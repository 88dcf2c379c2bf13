"""Correctness checks for the benchmark's workloads, computed apart from rsvi.

Every reference value here comes from scipy and numpy, never from rsvi's own
special functions, samplers or entropies, so a fault in the program cannot
hide by agreeing with itself. Each check returns a `Check`; the run's
`correct` flag is the conjunction of all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special, stats

# The paper's ordering at the criterion-4 instance, each gap by at least this
# factor. Measured gaps are far wider (about 18x, 900x and 750x at G = 250).
ORDER_FACTOR = 2.0
KL_LIMIT = 0.01  # nats, criterion 8's gate on the median over fits
ELBO_SE_LIMIT = 4.0  # combined standard errors


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def variance_ordering(medians: dict, factor: float = ORDER_FACTOR) -> Check:
    """rsvi(B=4) < rsvi(B=1) < score_function and importance(B=1) < score_function.

    `medians` maps the row labels to their median per-parameter variance.
    Each "<" must hold by `factor`, and every median must be finite and
    positive.
    """
    labels = ("rsvi(B=4)", "rsvi(B=1)", "score_function", "importance(B=1)")
    v = {k: float(medians.get(k, math.nan)) for k in labels}
    finite = all(math.isfinite(x) and x > 0.0 for x in v.values())
    pairs = (
        ("rsvi(B=4)", "rsvi(B=1)"),
        ("rsvi(B=1)", "score_function"),
        ("importance(B=1)", "score_function"),
    )
    ordered = finite and all(v[lo] * factor < v[hi] for lo, hi in pairs)
    gaps = ", ".join(f"{hi}/{lo}={v[hi] / v[lo]:.3g}" for lo, hi in pairs) if finite else repr(v)
    return Check("variance_ordering", ordered, f"{gaps} (each > {factor})")


def dirichlet_kl(p, q) -> float:
    """KL(Dir(p) || Dir(q)) from scipy.special."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    p0 = p.sum()
    return float(
        special.gammaln(p0)
        - special.gammaln(p).sum()
        - special.gammaln(q.sum())
        + special.gammaln(q).sum()
        + np.dot(p - q, special.digamma(p) - special.digamma(p0))
    )


def conjugate_kl(fitted: list, posterior, limit: float = KL_LIMIT) -> Check:
    """Median over fits of KL(q || exact posterior) below `limit` nats."""
    kls = [dirichlet_kl(theta, posterior) for theta in fitted]
    med = float(np.median(kls)) if kls else math.inf
    return Check("median_kl", med < limit, f"median KL {med:.5f} over {len(kls)} fits (< {limit})")


def elbo_rise(elbo_traces: list, window: int, margin: float) -> Check:
    """Every fit's last-window mean ELBO exceeds its first-window mean by `margin` nats."""
    rises = []
    for elbos in elbo_traces:
        elbos = np.asarray(elbos, dtype=float)
        if elbos.size < 2 * window:
            rises.append(-math.inf)
        else:
            rises.append(float(elbos[-window:].mean() - elbos[:window].mean()))
    ok = bool(rises) and min(rises) > margin
    least = min(rises) if rises else math.nan
    return Check("elbo_rise", ok, f"smallest rise {least:.1f} nats over {len(rises)} fits (> {margin})")


def def_log_joint(model, lzs, lws) -> np.ndarray:
    """log p(x, z, w) of the sparse gamma DEF per draw, from log latents.

    lzs[l] is (n, n_obs, K_l) and lws[l] is (n, rows, cols). Poisson rates
    and layer means are log-sum-exps over the inner index; a rate's log is
    floored at ln(1e-10) inside x ln(rate), and an exactly zero rate against
    a positive count gives -inf, as the model documents.
    """
    x = np.asarray(model.data, dtype=float)

    def gamma_lp(lv, shape, log_rate):
        per = (shape - 1.0) * lv - np.exp(lv + log_rate) + shape * log_rate - special.gammaln(shape)
        return per.reshape(lv.shape[0], -1).sum(axis=1)

    log_lam = special.logsumexp(lzs[0][:, :, :, None] + lws[0][:, None, :, :], axis=2)
    lam = np.exp(log_lam)
    total = (x * np.maximum(log_lam, math.log(1e-10)) - lam - special.gammaln(x + 1.0)).reshape(lam.shape[0], -1).sum(axis=1)
    az = model.alpha_z
    for l in range(len(lzs) - 1):
        log_mean = special.logsumexp(lzs[l + 1][:, :, None, :] + lws[l + 1][:, None, :, :], axis=3)
        total += gamma_lp(lzs[l], az, math.log(az) - log_mean)
    ta, tb = model.top_prior
    total += gamma_lp(lzs[-1], ta, math.log(tb))
    wa, wb = model.weight_prior
    for lw in lws:
        total += gamma_lp(lw, wa, math.log(wb))
    dead = ((lam == 0.0) & (x > 0)).any(axis=(1, 2))
    return np.where(dead, -np.inf, total)


def def_block_shapes(model) -> list:
    """Matrix shape of each latent block, in layout order: z1..zL, w0..w(L-1)."""
    sizes = list(model.layer_sizes)
    n_obs, n_dim = model.data.shape
    return [(n_obs, k) for k in sizes] + [(sizes[0], n_dim)] + [(sizes[l], sizes[l + 1]) for l in range(len(sizes) - 1)]


def def_reference_elbo(model, theta, n_draws: int, seed: int, chunk: int = 100):
    """(mean, standard error) of the DEF ELBO at theta from numpy draws.

    theta packs, block by block (z1..zL, then w0..w(L-1)), the variational
    shapes followed by the means; a block is Gam(shape, rate = shape/mean).
    Draws use Gam(a) = Gam(a + 1) * U^(1/a) in log space, so shapes far
    below one stay finite; the entropy is scipy's gamma entropy.
    """
    n_layers = len(model.layer_sizes)
    rng = np.random.default_rng(seed)
    blocks = []
    pos = 0
    entropy = 0.0
    for shp in def_block_shapes(model):
        dim = shp[0] * shp[1]
        a = theta[pos : pos + dim]
        mean = theta[pos + dim : pos + 2 * dim]
        pos += 2 * dim
        blocks.append((shp, a, a / mean))
        entropy += float(stats.gamma.entropy(a, scale=mean / a).sum())
    values = []
    for start in range(0, n_draws, chunk):
        n = min(chunk, n_draws - start)
        logs = []
        for shp, a, rate in blocks:
            lg = np.log(rng.gamma(a + 1.0, size=(n, a.size))) + np.log(rng.random((n, a.size))) / a - np.log(rate)
            logs.append(lg.reshape(n, *shp))
        values.append(def_log_joint(model, logs[:n_layers], logs[n_layers:]))
    f = np.concatenate(values)
    return float(f.mean()) + entropy, float(f.std(ddof=1) / math.sqrt(f.size))


def elbo_agreement(program: tuple, reference: tuple, limit: float = ELBO_SE_LIMIT) -> Check:
    """The program's ELBO (mean, se) within `limit` combined SEs of the reference."""
    (pm, pse), (rm, rse) = program, reference
    se = math.hypot(pse, rse)
    z = abs(pm - rm) / se if se > 0.0 else math.inf
    ok = math.isfinite(pm) and z <= limit
    return Check("elbo_agreement", ok, f"program {pm:.2f}+/-{pse:.2f} vs reference {rm:.2f}+/-{rse:.2f}: {z:.2f} SE (<= {limit})")


def no_failures(attempted: int, failed: int) -> Check:
    return Check("no_failed_iterations", failed == 0, f"{failed} of {attempted} iterations failed")
