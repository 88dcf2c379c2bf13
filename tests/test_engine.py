import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rsvi.distributions import DirichletParams, dirichlet_kl
from rsvi.engine import (
    OptimizerState,
    _norm,
    RunConfig,
    TraceRecord,
    init_optimizer,
    run_rsvi,
    softplus,
    softplus_inv,
    softplus_jacobian,
    step_size,
    trace_stability,
)
from rsvi.estimators import EstimatorConfig, default_theta_init
from rsvi.exceptions import DomainError, OptimizerAbortError
from rsvi.mathcore import RandomStream, finite_diff_grad
from rsvi.models import LatentBlock, ModelSpec


class TestSoftplus:
    def test_frozen_values(self):
        assert softplus(0.0) == pytest.approx(math.log(2.0), rel=1e-15)
        assert softplus_inv(softplus(50.0)) == pytest.approx(50.0, abs=1e-10)

    @pytest.mark.parametrize("theta", [1e-6, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e6])
    def test_mutually_inverse(self, theta):
        assert softplus(softplus_inv(theta)) == pytest.approx(theta, rel=1e-10)

    @given(st.floats(min_value=-40.0, max_value=40.0))
    def test_jacobian_matches_finite_differences(self, x):
        fd = finite_diff_grad(lambda v: softplus(v), x, 1e-6)
        assert abs(softplus_jacobian(x) - fd) <= 1e-8

    def test_positivity_is_structural(self):
        x = np.linspace(-700.0, 700.0, 101)
        assert np.all(softplus(x) > 0.0)

    def test_inverse_domain(self):
        with pytest.raises(DomainError):
            softplus_inv(0.0)
        with pytest.raises(DomainError):
            softplus_inv(-1.0)


class TestStepSize:
    def test_first_step_example(self):
        state = init_optimizer(1.0, 1)
        rho, nxt = step_size(state, np.array([3.0]))
        assert rho[0] == pytest.approx(0.25, rel=1e-12)  # 1 * 1 * (1 + 3)^-1
        assert nxt.s[0] == 9.0 and nxt.n == 2

    def test_zero_gradient_gives_pure_schedule(self):
        state = init_optimizer(0.5, 2)
        for n in range(1, 6):
            rho, state = step_size(state, np.zeros(2))
            assert np.allclose(rho, 0.5 * n ** (-0.5 + 1e-16))

    def test_schedule_decays(self):
        state = init_optimizer(1.0, 1)
        rhos = []
        for _ in range(200):
            rho, state = step_size(state, np.array([1.0]))
            rhos.append(rho[0])
        assert rhos[-1] < rhos[10] < rhos[1]
        assert rhos[-1] == pytest.approx(1.0 * 200**-0.5 / (1.0 + 1.0), rel=0.05)

    def test_rejects_non_finite(self):
        state = init_optimizer(1.0, 2)
        with pytest.raises(DomainError):
            step_size(state, np.array([1.0, float("nan")]))
        assert state.n == 1  # untouched

    def test_second_moment_recursion(self):
        state = OptimizerState(n=2, s=np.array([4.0]), eta=1.0)
        rho, nxt = step_size(state, np.array([2.0]))
        assert nxt.s[0] == pytest.approx(0.1 * 4.0 + 0.9 * 4.0)

    def test_squared_gradient_past_the_largest_double(self):
        # g^2 overflows to s = inf, and rho = 0 there: the schedule's limit as
        # g grows. The other coordinates step as usual, and no warning is raised
        state = init_optimizer(1.0, 3)
        rho, state = step_size(state, np.array([2e194, 3.0, -1e160]))
        assert rho.tolist() == [0.0, 0.25, 0.0]
        rho, state = step_size(state, np.array([1.0, 1.0, 1.0]))
        assert rho[0] == rho[2] == 0.0 and rho[1] > 0.0


def test_norm_of_a_finite_vector_past_the_largest_double():
    # finite norms are np.linalg.norm's own; an overflowing sum of squares is
    # redone on the vector scaled by its largest entry
    rng = np.random.default_rng(5)
    for scale in (1e-300, 1.0, 1e150):
        v = rng.normal(0.0, scale, 40)
        assert _norm(v) == float(np.linalg.norm(v))
    assert _norm(np.array([3e200, -4e200])) == pytest.approx(5e200, rel=1e-15)
    assert _norm(np.array([2e194, 1.0])) == 2e194


class TestRunRsvi:
    def test_zero_iterations(self, conj5_spec):
        theta0 = default_theta_init(conj5_spec)
        cfg = RunConfig(max_iters=0, stop_tol=None)
        theta, trace = run_rsvi(conj5_spec, theta0, cfg, RandomStream(0, 0))
        assert trace == []
        assert np.allclose(theta, theta0, rtol=1e-12)

    def test_determinism(self, conj5_spec):
        theta0 = default_theta_init(conj5_spec)
        cfg = RunConfig(estimator=EstimatorConfig("rsvi", 1), eta=1.0, max_iters=40, elbo_draws=10, stop_tol=None)
        t1, tr1 = run_rsvi(conj5_spec, theta0, cfg, RandomStream(7, 0))
        t2, tr2 = run_rsvi(conj5_spec, theta0, cfg, RandomStream(7, 0))
        assert np.array_equal(t1, t2)
        assert [r.elbo for r in tr1] == [r.elbo for r in tr2]
        assert [r.grad_norm for r in tr1] == [r.grad_norm for r in tr2]

    def test_trace_fields(self, conj5_spec):
        theta0 = default_theta_init(conj5_spec)
        cfg = RunConfig(max_iters=5, elbo_draws=5, stop_tol=None)
        _, trace = run_rsvi(conj5_spec, theta0, cfg, RandomStream(3, 0))
        assert [r.iteration for r in trace] == [1, 2, 3, 4, 5]
        for r in trace:
            assert isinstance(r, TraceRecord)
            assert r.trials >= 5 and 0.0 < r.accept_rate <= 1.0
            assert r.wall_clock >= 0.0

    def test_positivity_every_iterate(self, conj5_spec):
        theta0 = default_theta_init(conj5_spec)
        cfg = RunConfig(estimator=EstimatorConfig("rsvi", 1), eta=5.0, max_iters=60, elbo_draws=5, stop_tol=None)
        theta, trace = run_rsvi(conj5_spec, theta0, cfg, RandomStream(11, 0))
        assert np.all(theta > 0.0)

    def test_improves_objective(self, conj5, conj5_spec):
        theta0 = default_theta_init(conj5_spec)
        post = conj5.exact_posterior()
        kl0 = dirichlet_kl(DirichletParams(theta0), post)
        cfg = RunConfig(estimator=EstimatorConfig("rsvi", 1), eta=2.0, max_iters=600, elbo_draws=5, stop_tol=None)
        theta, _ = run_rsvi(conj5_spec, theta0, cfg, RandomStream(1, 0))
        kl1 = dirichlet_kl(DirichletParams(theta), post)
        assert kl1 < kl0 / 4.0

    def test_early_stop_triggers(self, conj5_spec):
        theta0 = default_theta_init(conj5_spec)
        cfg = RunConfig(max_iters=400, elbo_draws=5, stop_tol=1e9, stop_window=20)
        _, trace = run_rsvi(conj5_spec, theta0, cfg, RandomStream(2, 0))
        assert len(trace) == 40  # stops at the first comparison with a huge tolerance

    def test_abort_after_three_failures(self):
        calls = {"n": 0}

        def log_joint_batch(lz, grad=False):
            calls["n"] += 1
            f = np.full(len(lz), np.nan)
            return (f, np.zeros((len(lz), 1))) if grad else f

        spec = ModelSpec((LatentBlock("z", "gamma_mean_shape", 1),), log_joint_batch)
        cfg = RunConfig(max_iters=50, elbo_draws=5, stop_tol=None)
        with pytest.raises(OptimizerAbortError) as err:
            run_rsvi(spec, np.array([1.0, 1.0]), cfg, RandomStream(0, 0))
        assert err.value.trace == []
        assert np.allclose(err.value.theta, [1.0, 1.0])

    def test_elbo_failures_abort_instead_of_escaping(self):
        # estimate succeeds, the reported ELBO's model evaluation raises: the
        # fault hits only the ELBO's matrices of elbo_draws rows
        def failing_batch(lzmat, grad=False):
            if lzmat.shape[0] == 5:
                raise DomainError("log-joint needs finite log latents")
            f = np.zeros(lzmat.shape[0])
            return (f, np.zeros((len(lzmat), 1))) if grad else f

        spec = ModelSpec((LatentBlock("z", "gamma_mean_shape", 1),), failing_batch)
        cfg = RunConfig(max_iters=50, elbo_draws=5, stop_tol=None)
        with pytest.raises(OptimizerAbortError) as err:
            run_rsvi(spec, np.array([1.0, 1.0]), cfg, RandomStream(0, 0))
        assert err.value.trace == []
        # steps whose ELBO failed are discarded
        assert np.allclose(err.value.theta, [1.0, 1.0])
        assert "finite log latents" in str(err.value)

    def test_isolated_elbo_failure_skips_its_iteration(self, conj5_spec):
        calls = {"n": 0}

        def flaky_batch(lzmat, grad=False):
            # the ELBO's matrices have elbo_draws rows; an estimate's has one
            if lzmat.shape[0] == 5:
                calls["n"] += 1
                if calls["n"] == 2:
                    raise DomainError("transient")
            return conj5_spec.log_joint_batch(lzmat, grad=grad)

        spec = ModelSpec(conj5_spec.latent_layout, flaky_batch)
        cfg = RunConfig(max_iters=5, elbo_draws=5, stop_tol=None)
        _, trace = run_rsvi(spec, default_theta_init(spec), cfg, RandomStream(3, 0))
        assert [r.iteration for r in trace] == [1, 3, 4, 5]

    def test_vanishing_concentrations_abort(self, conj5_spec):
        # trigamma of the summed concentration is inf, so the entropy gradient
        # is inf - inf: every iteration fails and the run aborts
        cfg = RunConfig(max_iters=10, elbo_draws=5, stop_tol=None)
        with np.errstate(all="ignore"), pytest.raises(OptimizerAbortError, match="non-finite gradient") as err:
            run_rsvi(conj5_spec, np.full(5, 1e-200), cfg, RandomStream(0, 0))
        assert err.value.trace == []
        # the initial iterate, through softplus and back
        assert np.allclose(err.value.theta, 1e-200, rtol=1e-9, atol=0.0)

    def test_bad_init_rejected(self, conj5_spec):
        with pytest.raises(DomainError):
            run_rsvi(conj5_spec, np.array([1.0, -1.0, 1.0, 1.0, 1.0]), RunConfig(), RandomStream(0, 0))

    @pytest.mark.parametrize("shape,mean", [(1e300, 1e-300), (1e-300, 1e300)], ids=["rate-overflows", "rate-underflows"])
    def test_rate_out_of_range_fails_the_iteration(self, caplog, shape, mean):
        # a positive, finite theta whose rate shape/mean is inf or 0
        spec = ModelSpec(
            (LatentBlock("z", "gamma_mean_shape", 1),),
            lambda lz, grad=False: (np.zeros(len(lz)), np.zeros((len(lz), 1))) if grad else np.zeros(len(lz)),
        )
        theta0 = np.array([shape, mean])
        cfg = RunConfig(max_iters=2, elbo_draws=5, stop_tol=None)
        with caplog.at_level(logging.WARNING, logger="rsvi.engine"):
            _, trace = run_rsvi(spec, theta0, cfg, RandomStream(0, 0))
        assert trace == []
        failures = [r.getMessage() for r in caplog.records if "numerical failure" in r.getMessage()]
        assert len(failures) == 2 and all("rates" in m for m in failures)
        with pytest.raises(OptimizerAbortError):
            run_rsvi(spec, theta0, RunConfig(max_iters=5, elbo_draws=5, stop_tol=None), RandomStream(0, 0))

    def test_memory_does_not_grow_with_iterations(self, def_small_spec):
        # traced memory at the ELBO of iteration 400 against iteration 100; the
        # trace's own records account for about 0.2 MiB of the difference
        seen = {}

        def probing_batch(lzmat, grad=False):
            # the ELBO's matrices of elbo_draws rows only; an estimate's has one row
            if lzmat.shape[0] != 5:
                return def_small_spec.log_joint_batch(lzmat, grad=grad)
            seen["calls"] = seen.get("calls", 0) + 1
            if seen["calls"] in (100, 400):
                seen[seen["calls"]] = tracemalloc.get_traced_memory()[0]
            return def_small_spec.log_joint_batch(lzmat, grad=grad)

        spec = ModelSpec(def_small_spec.latent_layout, probing_batch)
        cfg = RunConfig(
            estimator=EstimatorConfig("rsvi", aug_b=1), eta=0.75, max_iters=400, elbo_draws=5, stop_tol=None
        )
        tracemalloc.start()
        try:
            _, trace = run_rsvi(spec, default_theta_init(spec), cfg, RandomStream(46, 0))
        finally:
            tracemalloc.stop()
        assert len(trace) == 400
        assert seen[400] - seen[100] <= 512 * 1024


class TestTraceStability:
    @staticmethod
    def _trace(values):
        return [
            TraceRecord(i + 1, float(v), 0.0, 0.0, 0.0, 1, 1.0) for i, v in enumerate(values)
        ]

    def test_increasing_is_stable(self):
        values = np.linspace(-100.0, -50.0, 1200) + 0.01 * np.sin(np.arange(1200))
        assert trace_stability(self._trace(values))

    def test_collapse_fails(self):
        values = np.concatenate([np.full(600, -50.0), np.linspace(-50.0, -300.0, 600)])
        values = values + 0.01 * np.cos(np.arange(1200))
        assert not trace_stability(self._trace(values))

    def test_short_trace_fails(self):
        assert not trace_stability(self._trace(np.zeros(500)))

    def test_only_the_last_1000_iterations_count(self):
        # a collapse before the last 1000 iterations does not count; 1000 flat
        # iterations are enough
        flat = -50.0 + 0.01 * np.cos(np.arange(1000))
        assert trace_stability(self._trace(np.concatenate([np.linspace(-50.0, -300.0, 200), flat])))
        assert trace_stability(self._trace(flat))
        assert not trace_stability(self._trace(flat[:999]))
