"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the assertions enforce every stated tolerance and runtime budget.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import special, stats

from rsvi import cli
from rsvi.distributions import DirichletParams, dirichlet_kl
from rsvi.engine import RunConfig, run_rsvi, softplus, softplus_jacobian, trace_stability
from rsvi.estimators import (
    EstimatorConfig,
    ThetaState,
    default_theta_init,
    estimate,
    variance_profile,
)
from rsvi.mathcore import RandomStream, finite_diff_grad
from rsvi.models import (
    ConjugateModel,
    LatentBlock,
    ModelSpec,
    SparseGammaDEF,
    conjugate_exact_elbo_grad,
    conjugate_model_spec,
    def_model_spec,
    make_synthetic_def_data,
)
from rsvi.rejection import (
    dh_dalpha,
    dh_deps,
    grad_log_ratio_gamma,
    h_gam,
    log_ratio_q_over_r,
    make_sampler_bank,
)


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def conj():
    return ConjugateModel(np.ones(5), np.array([8, 5, 4, 2, 1]))


@pytest.fixture(scope="module")
def conj_spec(conj):
    return conjugate_model_spec(conj)


def test_criterion_01_acceptance_probability():
    """Empirical acceptance >= 0.95 at shape 1 and 0.98 +/- 0.005 at shape 2."""
    t0 = time.perf_counter()
    accs = {}
    for alpha, seed in ((1.0, 3), (2.0, 1)):
        bank = make_sampler_bank(np.array([alpha]), 1.0, 0)
        batch = bank.draw_batch(RandomStream(seed, 0), 10**5)
        trials = int(batch.trials.sum())
        assert trials >= 10**5
        accs[alpha] = 10**5 / trials
    elapsed = time.perf_counter() - t0
    ok = accs[1.0] >= 0.95 and abs(accs[2.0] - 0.98) <= 0.005 and elapsed < 5.0
    report(1, ok, f"acceptance a=1: {accs[1.0]:.4f} (>=0.95), a=2: {accs[2.0]:.4f} (0.98+/-0.005), {elapsed:.2f}s < 5s")


def test_criterion_02_sampler_marginals():
    """KS not rejected at family-wise level 0.01 and exact moments within 4 SE.

    The 24 (shape, rate, B) cells each run a KS test, so the gate holds the
    family-wise false-rejection rate at 0.01 by Bonferroni: a cell rejects
    at p <= 0.01 / 24. Uncorrected 0.01 per cell would fail a correct
    sampler with probability 1 - 0.99^24, about 21%. The 48 moment checks
    at 4 SE already have a family-wise rate near 0.3%.
    """
    t0 = time.perf_counter()
    n = 10**5
    grid = [(a, b, B) for a in (0.5, 1.0, 2.0, 10.0) for b in (1.0, 3.0) for B in (0, 1, 4)]
    ks_level = 0.01 / len(grid)
    failures = []
    for idx, (a, b, B) in enumerate(grid, 1):
        bank = make_sampler_bank(np.array([a]), b, B)
        z = bank.draw_batch(RandomStream(202, idx), n).z[:, 0]
        p = stats.kstest(z, lambda x: stats.gamma.cdf(x, a, scale=1.0 / b)).pvalue
        if p <= ks_level:
            failures.append(f"KS rejected at a={a} b={b} B={B} (p={p:.2e} <= {ks_level:.2e})")
        se_mean = math.sqrt(a) / b / math.sqrt(n)
        if abs(z.mean() - a / b) > 4.0 * se_mean:
            failures.append(f"mean off at a={a} b={b} B={B}")
        se_log = math.sqrt(special.polygamma(1, a)) / math.sqrt(n)
        if abs(np.log(z).mean() - (special.digamma(a) - math.log(b))) > 4.0 * se_log:
            failures.append(f"mean-log off at a={a} b={b} B={B}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    report(2, ok, f"{len(grid)} (shape, rate, B) combos x 1e5 draws, KS at family-wise 0.01 + moments: {failures or 'all good'}, {elapsed:.1f}s < 30s")


def test_criterion_03_gradient_unbiasedness(conj, conj_spec):
    """Mean of 1e5 one-sample estimates within 4 SE of the exact gradient.

    Estimate i runs on RandomStream(seed, 0).child(i); variance_profile
    evaluates those replicates together, and each one's total is
    bit-identical to estimate on the same child stream.
    """
    t0 = time.perf_counter()
    theta = np.array([1.4, 0.8, 2.2, 1.0, 3.0])
    exact = conjugate_exact_elbo_grad(conj, DirichletParams(theta))
    n = 10**5
    worst = {}
    for kind, seed in (("rsvi", 11), ("score_function", 12), ("importance", 13)):
        cfg = EstimatorConfig(kind=kind, aug_b=1)
        prof = variance_profile(conj_spec, theta, cfg, n, RandomStream(seed, 0))
        se = np.sqrt(prof.variances) / math.sqrt(n)
        worst[kind] = float(np.max(np.abs(prof.means - exact) / se))
    elapsed = time.perf_counter() - t0
    ok = all(w <= 4.0 for w in worst.values()) and elapsed < 120.0
    detail = ", ".join(f"{k}: max|z|={w:.2f}" for k, w in worst.items())
    report(3, ok, f"K=5 N=20 conjugate, 1e5 estimates each: {detail} (<=4 SE), {elapsed:.0f}s < 120s")


def test_criterion_04_variance_ordering():
    """Median variance RSVI(B=4) < RSVI(B=1) < score-function, shapes near 1.

    Evaluated at the variance-study instance (K=100 components, uniform
    prior, N=100 trials); the published magnitude table needs the full-scale
    model and an external baseline, so the ordering substitutes.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(20170211)
    counts = rng.multinomial(100, rng.dirichlet(np.ones(100)))
    model = ConjugateModel(np.ones(100), counts)
    spec = conjugate_model_spec(model)
    theta = np.ones(100)
    root = RandomStream(404, 0)
    med = {}
    for i, (kind, B) in enumerate((("rsvi", 4), ("rsvi", 1), ("score_function", 0))):
        prof = variance_profile(spec, theta, EstimatorConfig(kind, aug_b=B), 1000, root.child(i))
        med[(kind, B)] = prof.vmedian
    elapsed = time.perf_counter() - t0
    ok = med[("rsvi", 4)] < med[("rsvi", 1)] < med[("score_function", 0)]
    report(
        4,
        ok,
        "median variance: RSVI(B=4)=%.3g < RSVI(B=1)=%.3g < score=%.3g, G=1000, %.0fs"
        % (med[("rsvi", 4)], med[("rsvi", 1)], med[("score_function", 0)], elapsed),
    )


def test_criterion_05_correction_term_decay():
    """max |d/d shape log-ratio| over eps in [-3, 3] strictly decreasing.

    At shape 1 the transform support only reaches down to -sqrt(6), so each
    shape's maximum runs over the grid points inside its own support.
    """
    t0 = time.perf_counter()
    grid = np.linspace(-3.0, 3.0, 601)
    maxima = []
    for a in (1.0, 2.0, 10.0, 100.0):
        valid = grid > -math.sqrt(9.0 * a - 3.0) + 1e-9
        maxima.append(float(np.max(np.abs(grad_log_ratio_gamma(grid[valid], a)))))
    elapsed = time.perf_counter() - t0
    ok = all(b < a for a, b in zip(maxima, maxima[1:])) and elapsed < 1.0
    report(5, ok, f"max|grad log-ratio| at shapes (1,2,10,100): {[f'{m:.4g}' for m in maxima]}, {elapsed:.3f}s < 1s")


def test_criterion_06_eps_distribution_convergence():
    """KS distance of accepted eps to N(0,1) shrinks monotonically in shape."""
    t0 = time.perf_counter()
    n = 10**5
    ks = []
    for alpha, seed in ((1.0, 6), (2.0, 7), (10.0, 8)):
        bank = make_sampler_bank(np.array([alpha]), 1.0, 0)
        eps = bank.draw_batch(RandomStream(seed, 0), n).eps[:, 0]
        ks.append(stats.kstest(eps, "norm").statistic)
    elapsed = time.perf_counter() - t0
    ok = ks[0] > ks[1] > ks[2] and elapsed < 10.0
    report(6, ok, f"KS to standard normal at shapes (1,2,10): {[f'{k:.4f}' for k in ks]}, {elapsed:.1f}s < 10s")


def test_criterion_07_analytic_derivative_suite(conj_spec):
    """Every analytic derivative matches central differences, rel err <= 1e-4."""
    t0 = time.perf_counter()
    stream = RandomStream(707, 0)
    checks = {}

    def rel(an, fd):
        an, fd = np.atleast_1d(an).astype(float), np.atleast_1d(fd).astype(float)
        return float(np.max(np.abs(an - fd)) / max(1.0, float(np.max(np.abs(fd)))))

    # each worst error is np.max over a list, not a max() fold: max(0.0, nan)
    # is 0.0, while np.max keeps a NaN, and a NaN fails the gate below
    errs_e, errs_a = [], []
    for _ in range(50):
        a = 1.0 + 19.0 * stream.uniform()
        e = -2.5 + 5.5 * stream.uniform()
        errs_e.append(rel(dh_deps(e, a), finite_diff_grad(lambda v: h_gam(v, a), e, 1e-6)))
        errs_a.append(rel(dh_dalpha(e, a), finite_diff_grad(lambda v: h_gam(e, v), a, 1e-6)))
    checks["dh_deps"] = float(np.max(errs_e))
    checks["dh_dalpha"] = float(np.max(errs_a))

    errs = []
    for _ in range(50):
        a = 1.0 + 25.0 * stream.uniform()
        e = -2.0 + 4.0 * stream.uniform()
        errs.append(rel(grad_log_ratio_gamma(e, a), finite_diff_grad(lambda v: log_ratio_q_over_r(e, v), a, 1e-4)))
    checks["grad_log_ratio"] = float(np.max(errs))

    # the entropy gradient the estimators add: ThetaState on one-block specs
    # whose log-joint is never called, at theta = (shape, mean) for the gamma
    def entropy_grad_err(spec, theta):
        fd = finite_diff_grad(lambda v: ThetaState(spec, v).entropy, theta, 1e-6)
        return rel(ThetaState(spec, theta).g_entropy, fd)

    gamma = ModelSpec([LatentBlock("q", "gamma_mean_shape", 1)], None)
    errs = []
    for _ in range(20):
        a, b = 0.3 + 5.0 * stream.uniform(), 0.3 + 5.0 * stream.uniform()
        errs.append(entropy_grad_err(gamma, np.array([a, b])))
    checks["gamma_entropy_grad"] = float(np.max(errs))

    dirichlet = ModelSpec([LatentBlock("q", "dirichlet", 4)], None)
    errs = [entropy_grad_err(dirichlet, 0.3 + 4.0 * stream.uniforms(4)) for _ in range(20)]
    checks["dirichlet_entropy_grad"] = float(np.max(errs))

    xs = -25.0 + 50.0 * stream.uniforms(25)
    fd = np.array([finite_diff_grad(lambda v: softplus(v), float(x), 1e-6) for x in xs])
    checks["softplus_jacobian"] = rel(softplus_jacobian(xs), fd)

    checks["conjugate_model_grad"] = conj_spec.self_check(stream)
    counts, _ = make_synthetic_def_data((3, 2), 4, 3, RandomStream(1, 977))
    def_spec = def_model_spec(SparseGammaDEF((3, 2), counts))
    checks["def_model_grad"] = def_spec.self_check(stream)

    elapsed = time.perf_counter() - t0
    ok = all(v <= 1e-4 for v in checks.values()) and elapsed < 30.0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in checks.items())
    report(7, ok, f"{detail}, {elapsed:.1f}s < 30s")


def test_criterion_08_conjugate_convergence(conj, conj_spec):
    """Median final KL(q || exact posterior) < 0.01 nats across 10 seeds."""
    t0 = time.perf_counter()
    post = conj.exact_posterior()
    theta0 = default_theta_init(conj_spec)
    cfg = RunConfig(
        estimator=EstimatorConfig("rsvi", aug_b=1),
        eta=2.0,
        max_iters=5000,
        elbo_draws=10,
        stop_tol=None,
    )
    kls = []
    for seed in range(10):
        theta, _ = run_rsvi(conj_spec, theta0, cfg, RandomStream(seed, 0))
        kls.append(dirichlet_kl(DirichletParams(theta), post))
    elapsed = time.perf_counter() - t0
    median = float(np.median(kls))
    ok = median < 0.01 and elapsed < 300.0
    report(8, ok, f"median KL over 10 seeds = {median:.5f} < 0.01 (range {min(kls):.4f}..{max(kls):.4f}), {elapsed:.0f}s < 300s")


def test_criterion_09_def_stability():
    """Smoothed ELBO non-decreasing over the final 1000 of 2000 iterations.

    Ten seeds on the synthetic two-layer model; at least nine must show
    non-decreasing 100-iteration block means (up to block-mean noise).
    """
    t0 = time.perf_counter()
    counts, _ = make_synthetic_def_data((10, 5), 50, 20, RandomStream(0, 977))
    spec = def_model_spec(SparseGammaDEF((10, 5), counts))
    theta0 = default_theta_init(spec)
    cfg = RunConfig(
        estimator=EstimatorConfig("rsvi", aug_b=1),
        eta=0.75,
        max_iters=2000,
        elbo_draws=25,
        stop_tol=None,
    )
    stable = 0
    for seed in range(10):
        _, trace = run_rsvi(spec, theta0, cfg, RandomStream(seed, 0))
        stable += trace_stability(trace)
    elapsed = time.perf_counter() - t0
    ok = stable >= 9
    report(9, ok, f"{stable}/10 seeds stable (need >= 9), [10, 5] layers, 50x20 counts, {elapsed:.0f}s")


def test_criterion_10_determinism(tmp_path, conj_spec):
    """Every artifact type is byte-identical across two same-seed runs."""
    t0 = time.perf_counter()
    mismatches = []

    def rerun_identical(name, argv, outputs):
        assert cli.main(argv) == 0
        first = [p.read_bytes() for p in outputs]
        assert cli.main(argv) == 0
        if [p.read_bytes() for p in outputs] != first:
            mismatches.append(name)

    g = tmp_path / "g.csv"
    rerun_identical("sample-gamma", ["sample", "--alpha", "2", "--n-draws", "20000", "--seed", "1", "--out", str(g)], [g])
    d = tmp_path / "d.csv"
    rerun_identical("sample-dirichlet", ["sample", "--dist", "dirichlet", "--alpha", "1,2,3", "--n-draws", "5000", "--seed", "2", "--out", str(d)], [d])
    v = tmp_path / "v.csv"
    rerun_identical("variance", ["variance", "--b", "1,4", "--g", "150", "--seed", "3", "--out", str(v)], [v])
    f = tmp_path / "fitc"
    rerun_identical(
        "fit-conjugate",
        ["fit", "--iterations", "150", "--elbo-draws", "10", "--seed", "4", "--out", str(f)],
        [tmp_path / "fitc.trace.jsonl", tmp_path / "fitc.params.json"],
    )
    fd = tmp_path / "fitd"
    rerun_identical(
        "fit-def",
        ["fit", "--model", "def", "--layers", "4,2", "--n-obs", "8", "--n-dim", "5",
         "--iterations", "60", "--elbo-draws", "5", "--seed", "5", "--out", str(fd)],
        [tmp_path / "fitd.trace.jsonl", tmp_path / "fitd.params.json"],
    )

    # library-level replicas of the remaining criteria's artifacts
    theta = np.array([1.4, 0.8, 2.2, 1.0, 3.0])
    e1 = estimate(conj_spec, theta, EstimatorConfig("rsvi", 1), RandomStream(6, 0))
    e2 = estimate(conj_spec, theta, EstimatorConfig("rsvi", 1), RandomStream(6, 0))
    if not np.array_equal(e1.total, e2.total):
        mismatches.append("gradient-estimate")
    p1 = variance_profile(conj_spec, theta, EstimatorConfig("rsvi", 1), 100, RandomStream(7, 0))
    p2 = variance_profile(conj_spec, theta, EstimatorConfig("rsvi", 1), 100, RandomStream(7, 0))
    if not np.array_equal(p1.variances, p2.variances):
        mismatches.append("variance-profile")
    b1 = make_sampler_bank(np.array([2.0]), 1.0, 1).draw_batch(RandomStream(8, 0), 20000)
    b2 = make_sampler_bank(np.array([2.0]), 1.0, 1).draw_batch(RandomStream(8, 0), 20000)
    if not (np.array_equal(b1.z, b2.z) and np.array_equal(b1.eps, b2.eps)):
        mismatches.append("sampler-batch")

    elapsed = time.perf_counter() - t0
    ok = not mismatches
    report(10, ok, f"byte-identical reruns for {'all artifacts' if ok else mismatches}, {elapsed:.0f}s")
