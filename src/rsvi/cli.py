"""Experiment command line: sampler diagnostics, gradient checks, variance
profiling, and model fitting.

Every subcommand is a pure function of (flags, input files, seed): identical
invocations produce byte-identical output files. Options resolve as command
line > config file > built-in default; the optional config file is flat
``key = value`` text mirroring the long flag names.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import engine
from .distributions import (
    DirichletParams,
    GammaParams,
    dirichlet_entropy,
    dirichlet_entropy_grad,
    dirichlet_kl,
    gamma_entropy,
    gamma_entropy_grad,
)
from .engine import RunConfig, run_rsvi, softplus_inv, softplus_jacobian, trace_stability
from .estimators import (
    EstimatorConfig,
    ThetaState,
    _log_simplex,
    default_theta_init,
    grad_log_ratio_gamma,
    param_layout,
    variance_profile,
)
from .exceptions import ContractError, DomainError, OptimizerAbortError, SamplerStallError
from .mathcore import RandomStream, finite_diff_grad, kolmogorov_sf, reg_inc_beta, reg_lower_gamma
from .models import (
    ConjugateModel,
    SparseGammaDEF,
    conjugate_elbo_exact,
    conjugate_model_spec,
    def_model_spec,
    make_synthetic_def_data,
)
from .rejection import (
    dh_dalpha,
    dh_deps,
    h_gam,
    log_ratio_q_over_r,
    make_sampler_bank,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_SAMPLER_STALL = 3
EXIT_NUMERICAL_FAILURE = 4

SEED_ENV_VAR = "RSVI_SEED"


class ConfigError(Exception):
    pass


# --- option schema and resolution ----------------------------------------------

# name -> (parser, default, help). Parsers take the raw string.


def _parse_floats(s):
    vals = [float(v) for v in str(s).split(",") if v != ""]
    if not vals:
        raise ValueError("empty list")
    return tuple(vals)


def _parse_ints(s):
    vals = [int(v) for v in str(s).split(",") if v != ""]
    if not vals:
        raise ValueError("empty list")
    return tuple(vals)


def _parse_bool(s):
    s = str(s).strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


_CHOICES = {
    "dist": ("gamma", "dirichlet"),
    "model": ("conjugate", "def"),
    "estimator": ("rsvi", "score_function", "importance"),
    "format": ("auto", "bow", "csv"),
}

# the model options of gradcheck, variance and fit
_MODEL_OPTIONS = {
    "model": (str, "conjugate", "model: conjugate, or def for the layered count model"),
    "prior": (_parse_floats, (1.0, 1.0, 1.0, 1.0, 1.0), "conjugate prior concentrations"),
    "counts": (_parse_ints, (8, 5, 4, 2, 1), "conjugate observed counts"),
    "layers": (_parse_ints, (10, 5), "layer sizes for the layered count model"),
    "n-obs": (int, 8, "synthetic observations for the layered model"),
    "n-dim": (int, 6, "synthetic observation dimension"),
    "data-seed": (int, 0, "seed for the synthetic layered data"),
}

SCHEMAS = {
    "sample": {
        "dist": (str, "gamma", "distribution to sample (gamma or dirichlet)"),
        "alpha": (_parse_floats, (2.0,), "shape (gamma) or comma-separated concentrations (dirichlet)"),
        "beta": (float, 1.0, "gamma rate"),
        "b": (int, 0, "shape augmentation steps"),
        "n-draws": (int, 100000, "number of accepted draws"),
        "seed": (int, None, "random seed (default from RSVI_SEED or 0)"),
        "out": (str, None, "output CSV path (required)"),
    },
    "gradcheck": {
        **_MODEL_OPTIONS,
        "seed": (int, None, "random seed"),
    },
    "variance": {
        **_MODEL_OPTIONS,
        "estimators": (str, "rsvi,score_function", "comma list of estimators"),
        "b": (_parse_ints, (0, 1, 4), "augmentation steps per rsvi/importance row"),
        "g": (int, 1000, "replicates per variance estimate (>= 2)"),
        "theta": (_parse_floats, None, "evaluation point (default: standard init)"),
        "draws": (int, 1, "draws averaged per estimate"),
        "seed": (int, None, "random seed"),
        "out": (str, None, "output CSV path (required)"),
    },
    "fit": {
        **_MODEL_OPTIONS,
        "n-obs": (int, 50, "synthetic observations when no data file is given"),
        "n-dim": (int, 20, "synthetic observation dimension"),
        "data": (str, None, "counts file (dense CSV or 'doc word count' triplets)"),
        "format": (str, "auto", "data format: auto, bow, or csv"),
        "estimator": (str, "rsvi", "gradient estimator"),
        "b": (int, 1, "shape augmentation steps"),
        "draws": (int, 1, "draws averaged per gradient estimate"),
        "eta": (float, 2.0, "step-size scale"),
        "iterations": (int, 1000, "maximum optimization iterations"),
        "elbo-draws": (int, 100, "fresh draws per reported ELBO value"),
        "stop-tol": (float, None, "early-stop tolerance on the windowed ELBO improvement"),
        "stop-window": (int, 200, "window (iterations) for the early-stop rule"),
        "timings": (_parse_bool, False, "include wall-clock seconds in the trace file"),
        "seed": (int, None, "random seed"),
        "out": (str, None, "output prefix (required): writes <out>.trace.jsonl and <out>.params.json"),
    },
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rsvi",
        description="Rejection-sampling reparameterization gradients: sampler diagnostics, "
        "gradient checks, variance profiles, and variational fits.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, schema in SCHEMAS.items():
        p = sub.add_parser(name, help=f"{name} experiment")
        p.add_argument("--config", default=None, help="flat key=value config file (flags win)")
        for key, (_parser, default, help_text) in schema.items():
            p.add_argument(f"--{key}", dest=key.replace("-", "_"), default=None, help=f"{help_text} (default: {default})")
    return top


def _read_config_file(path: str, schema: dict) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("_", "-")
        if key not in schema:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = val.strip()
    return values


def resolve_config(command: str, args: argparse.Namespace) -> dict:
    """Merge flags over config-file values over defaults; validate domains."""
    schema = SCHEMAS[command]
    file_values = _read_config_file(args.config, schema) if args.config else {}
    resolved = {}
    for key, (parser, default, _help) in schema.items():
        raw = getattr(args, key.replace("-", "_"))
        if raw is None and key in file_values:
            raw = file_values[key]
        if raw is None:
            resolved[key] = default
        else:
            try:
                resolved[key] = parser(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for --{key}: {raw!r} ({exc})") from exc
    if resolved.get("seed") is None:
        env = os.environ.get(SEED_ENV_VAR)
        try:
            resolved["seed"] = int(env) if env else 0
        except ValueError as exc:
            raise ConfigError(f"bad {SEED_ENV_VAR} value {env!r}") from exc
    for key, choices in _CHOICES.items():
        if key in resolved and resolved[key] not in choices:
            raise ConfigError(f"--{key} must be one of {choices}, got {resolved[key]!r}")
    return resolved


def _config_line(command: str, cfg: dict) -> str:
    parts = [f"{k}={cfg[k]!r}" for k in sorted(cfg)]
    return f"# rsvi {command} config: " + " ".join(parts)


def _require_out(cfg: dict):
    if not cfg.get("out"):
        raise ConfigError("--out is required")


# --- KS helper ------------------------------------------------------------------


def _ks_statistic(sorted_values: np.ndarray, cdf_values: np.ndarray) -> float:
    n = sorted_values.size
    if n == 0:
        return float("nan")
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - cdf_values)
    d_minus = np.max(cdf_values - (i - 1) / n)
    return float(max(d_plus, d_minus))


def _ks_report(values: np.ndarray, cdf) -> tuple[float, float]:
    """KS statistic and p-value of `values` against `cdf`, which takes the
    whole sorted sample at once."""
    v = np.sort(values)
    stat = _ks_statistic(v, cdf(v))
    pvalue = kolmogorov_sf(math.sqrt(v.size) * stat)
    return stat, pvalue


# --- subcommands ----------------------------------------------------------------


def cmd_sample(cfg: dict) -> int:
    _require_out(cfg)
    n = int(cfg["n-draws"])
    if n < 0:
        raise ConfigError("--n-draws must be >= 0")
    stream = RandomStream(cfg["seed"], 0)
    header = _config_line("sample", cfg)
    if cfg["dist"] == "gamma":
        if len(cfg["alpha"]) != 1:
            raise ConfigError("gamma sampling takes a single --alpha")
        alpha, beta = float(cfg["alpha"][0]), float(cfg["beta"])
        try:
            bank = make_sampler_bank(np.array([alpha]), beta, int(cfg["b"]))
            batch = bank.draw_batch(stream, n)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        eps = batch.eps[:, 0]
        z = batch.z[:, 0]
        trials = batch.trials[:, 0]
        columns = ["epsilon", "z", "trials"]
        rows = zip(eps.tolist(), z.tolist(), trials.tolist())
        if n:
            acc = n / int(trials.sum())
            stat, pvalue = _ks_report(z, lambda x: reg_lower_gamma(alpha, beta * x))
            summary = (
                f"# summary: draws={n} acceptance={acc!r} ks={stat!r} ks_pvalue={pvalue!r} "
                f"log_M={float(bank.log_M[0])!r} effective_shape={float(bank.eff_shapes[0])!r}"
            )
        else:
            summary = "# summary: no draws"
    else:
        conc = np.array(cfg["alpha"], dtype=float)
        if conc.size < 2:
            raise ConfigError("dirichlet sampling needs >= 2 concentrations in --alpha")
        try:
            bank = make_sampler_bank(conc, 1.0, int(cfg["b"]))
            batch = bank.draw_batch(stream, n)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        k = conc.size
        z = np.exp(_log_simplex(batch.log_z))
        columns = (
            [f"epsilon_{i}" for i in range(k)]
            + [f"z_{i}" for i in range(k)]
            + [f"trials_{i}" for i in range(k)]
        )
        rows = (
            list(batch.eps[i].tolist()) + list(z[i].tolist()) + list(batch.trials[i].tolist())
            for i in range(n)
        )
        if n:
            acc = n * k / int(batch.trials.sum())
            a0 = float(conc.sum())
            worst = 0.0
            for i in range(k):
                stat, _ = _ks_report(z[:, i], lambda x, ai=conc[i]: reg_inc_beta(ai, a0 - ai, x))
                worst = max(worst, stat)
            pvalue = kolmogorov_sf(math.sqrt(n) * worst)
            summary = f"# summary: draws={n} acceptance={acc!r} ks={worst!r} ks_pvalue={pvalue!r}"
        else:
            summary = "# summary: no draws"
    with open(cfg["out"], "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
        fh.write(summary + "\n")
    print(summary.lstrip("# "))
    return EXIT_OK


def _conjugate_from_cfg(cfg):
    try:
        return ConjugateModel(np.array(cfg["prior"], dtype=float), np.array(cfg["counts"]))
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _def_from_cfg(cfg):
    """The layered count model on the --data file (fit only) or on synthetic counts."""
    layers = tuple(cfg["layers"])
    if cfg.get("data"):
        counts = _load_counts(cfg["data"], cfg["format"])
    else:
        data_stream = RandomStream(cfg["data-seed"], 977)
        counts, _ = make_synthetic_def_data(layers, int(cfg["n-obs"]), int(cfg["n-dim"]), data_stream)
    try:
        return SparseGammaDEF(layers, counts)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _spec_for(cfg):
    if cfg["model"] == "conjugate":
        model = _conjugate_from_cfg(cfg)
        return model, conjugate_model_spec(model)
    model = _def_from_cfg(cfg)
    return model, def_model_spec(model)


def cmd_gradcheck(cfg: dict) -> int:
    """Run every analytic-vs-finite-difference check; nonzero exit on failure."""
    stream = RandomStream(cfg["seed"], 1)
    rng_pts = stream.uniforms(200)
    results = []

    def check(name, max_rel, tol):
        results.append((name, max_rel, tol, max_rel <= tol))

    # transform derivatives
    worst_e = worst_a = 0.0
    for i in range(50):
        a = 1.0 + 19.0 * rng_pts[2 * i]
        e = -2.5 + 5.5 * rng_pts[2 * i + 1]
        fd_e = finite_diff_grad(lambda v: h_gam(v, a), e, 1e-6)
        fd_a = finite_diff_grad(lambda v: h_gam(e, v), a, 1e-6)
        worst_e = max(worst_e, abs(fd_e - dh_deps(e, a)) / max(1.0, abs(fd_e)))
        worst_a = max(worst_a, abs(fd_a - dh_dalpha(e, a)) / max(1.0, abs(fd_a)))
    check("dh_deps", worst_e, 1e-6)
    check("dh_dalpha", worst_a, 1e-6)

    worst = 0.0
    for i in range(50):
        a = 1.0 + 19.0 * rng_pts[100 + 2 * i]
        e = -2.0 + 4.0 * rng_pts[100 + 2 * i + 1]
        fd = finite_diff_grad(lambda v: log_ratio_q_over_r(e, v), a, 1e-4)
        worst = max(worst, abs(fd - grad_log_ratio_gamma(e, a)) / max(1.0, abs(fd)))
    check("grad_log_ratio", worst, 1e-5)

    worst = 0.0
    pts = stream.uniforms(40)
    for i in range(20):
        p = GammaParams(0.2 + 5.0 * pts[2 * i], 0.2 + 5.0 * pts[2 * i + 1])
        fd = finite_diff_grad(lambda v: gamma_entropy(GammaParams(v[0], v[1])), np.array([p.shape, p.rate]), 1e-6)
        an = np.array(gamma_entropy_grad(p))
        worst = max(worst, float(np.max(np.abs(fd - an)) / max(1.0, float(np.max(np.abs(fd))))))
    check("gamma_entropy_grad", worst, 1e-6)

    worst = 0.0
    pts = stream.uniforms(60)
    for i in range(20):
        conc = 0.3 + 4.0 * pts[3 * i : 3 * i + 3]
        fd = finite_diff_grad(lambda v: dirichlet_entropy(DirichletParams(v)), conc, 1e-6)
        an = dirichlet_entropy_grad(DirichletParams(conc))
        worst = max(worst, float(np.max(np.abs(fd - an)) / max(1.0, float(np.max(np.abs(fd))))))
    check("dirichlet_entropy_grad", worst, 1e-6)

    xs = np.linspace(-30.0, 30.0, 21)
    fd = np.array([finite_diff_grad(lambda v: engine.softplus(v), float(x), 1e-6) for x in xs])
    an = softplus_jacobian(xs)
    check("softplus_jacobian", float(np.max(np.abs(fd - an))), 1e-8)

    spec = _spec_for(cfg)[1]
    try:
        worst = spec.self_check(stream.child(5), n_points=20, rel_tol=1e-4)
        check("model_grad_self_check", worst, 1e-4)
    except DomainError as exc:
        results.append(("model_grad_self_check", float("nan"), 1e-4, False))

    all_ok = True
    for name, max_rel, tol, ok in results:
        status = "PASS" if ok else "FAIL"
        all_ok &= ok
        print(f"{status} {name}: max_rel_err={max_rel!r} tol={tol!r}")
    print(f"gradcheck: {'all checks passed' if all_ok else 'CHECK FAILURES'} (seed={cfg['seed']})")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_variance(cfg: dict) -> int:
    _require_out(cfg)
    if int(cfg["g"]) < 2:
        raise ConfigError("--g must be >= 2 (sample variance needs two replicates)")
    estimators = [e.strip() for e in cfg["estimators"].split(",") if e.strip()]
    for e in estimators:
        if e not in _CHOICES["estimator"]:
            raise ConfigError(f"unknown estimator {e!r}")
    spec = _spec_for(cfg)[1]
    theta = np.array(cfg["theta"], dtype=float) if cfg["theta"] else default_theta_init(spec)
    try:
        ThetaState(spec, theta)
    except (ContractError, DomainError) as exc:
        raise ConfigError(f"bad --theta: {exc}") from exc
    stream = RandomStream(cfg["seed"], 2)
    rows = []
    try:
        for kind in estimators:
            b_values = [0] if kind == "score_function" else list(cfg["b"])
            for b in b_values:
                ecfg = EstimatorConfig(kind=kind, aug_b=int(b), draws=int(cfg["draws"]))
                prof = variance_profile(spec, theta, ecfg, int(cfg["g"]), stream.child(len(rows)))
                rows.append((kind, int(b), prof.vmin, prof.vmedian, prof.vmax))
    except DomainError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    with open(cfg["out"], "w", newline="", encoding="utf-8") as fh:
        fh.write(_config_line("variance", cfg) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["estimator", "B", "min", "median", "max"])
        for kind, b, vmin, vmed, vmax in rows:
            writer.writerow([kind, b, repr(vmin), repr(vmed), repr(vmax)])
    for kind, b, vmin, vmed, vmax in rows:
        print(f"{kind} B={b}: min={vmin:.6g} median={vmed:.6g} max={vmax:.6g}")
    return EXIT_OK


def _load_counts(path: str, fmt: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    except OSError as exc:
        raise ConfigError(f"cannot read data file {path}: {exc}") from exc
    if not lines:
        raise ConfigError(f"data file {path} is empty")
    if fmt == "auto":
        fmt = "csv" if path.endswith(".csv") else "bow"
    try:
        if fmt == "csv":
            rows = [[int(v) for v in ln.split(",")] for ln in lines]
            widths = {len(r) for r in rows}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            data = np.array(rows, dtype=np.int64)
        else:
            triplets = [tuple(int(v) for v in ln.split()) for ln in lines]
            if any(len(t) != 3 for t in triplets):
                raise ValueError("expected 'doc_id word_id count' triplets")
            docs = max(t[0] for t in triplets) + 1
            words = max(t[1] for t in triplets) + 1
            data = np.zeros((docs, words), dtype=np.int64)
            for d, w, c in triplets:
                if d < 0 or w < 0 or c < 0:
                    raise ValueError("negative id or count")
                data[d, w] += c
        if np.any(data < 0):
            raise ValueError("negative counts")
        return data
    except ValueError as exc:
        raise ConfigError(f"bad data file {path}: {exc}") from exc


def _param_names(spec) -> list:
    names = []
    blocks, _ = param_layout(spec)
    for pb in blocks:
        if pb.family == "gamma_mean_shape":
            names.extend(f"{pb.name}.shape[{i}]" for i in range(pb.dim))
            names.extend(f"{pb.name}.mean[{i}]" for i in range(pb.dim))
        else:
            names.extend(f"{pb.name}.conc[{i}]" for i in range(pb.dim))
    return names


def cmd_fit(cfg: dict) -> int:
    _require_out(cfg)
    model, spec = _spec_for(cfg)
    try:
        run_cfg = RunConfig(
            estimator=EstimatorConfig(kind=cfg["estimator"], aug_b=int(cfg["b"]), draws=int(cfg["draws"])),
            eta=float(cfg["eta"]),
            max_iters=int(cfg["iterations"]),
            elbo_draws=int(cfg["elbo-draws"]),
            stop_tol=cfg["stop-tol"],
            stop_window=int(cfg["stop-window"]),
        )
    except (DomainError, ContractError) as exc:
        raise ConfigError(str(exc)) from exc
    theta0 = default_theta_init(spec)
    stream = RandomStream(cfg["seed"], 3)
    trace_path = cfg["out"] + ".trace.jsonl"
    params_path = cfg["out"] + ".params.json"
    aborted = None
    try:
        theta, trace = run_rsvi(spec, theta0, run_cfg, stream)
    except OptimizerAbortError as exc:
        aborted = str(exc)
        theta, trace = exc.theta, exc.trace
    include_clock = bool(cfg["timings"])
    config = {k: list(v) if isinstance(v, tuple) else v for k, v in sorted(cfg.items())}
    final: dict = {"iterations_run": len(trace), "aborted": aborted}
    if trace:
        final["final_elbo"] = trace[-1].elbo
    if cfg["model"] == "conjugate":
        q = DirichletParams(theta)
        final["kl_to_posterior"] = dirichlet_kl(q, model.exact_posterior())
        final["exact_elbo_at_final"] = conjugate_elbo_exact(model, q)
    else:
        final["stable_smoothed_elbo"] = trace_stability(trace) if trace else False
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"config": config}) + "\n")
        for rec in trace:
            row = {
                "iteration": rec.iteration,
                "elbo": rec.elbo,
                "step_norm": rec.step_norm,
                "grad_norm": rec.grad_norm,
                "trials": rec.trials,
                "accept_rate": rec.accept_rate,
            }
            if include_clock:
                row["wall_clock"] = rec.wall_clock
            fh.write(json.dumps(row) + "\n")
        fh.write(json.dumps({"final": final}) + "\n")
    payload = {
        "config": config,
        "names": _param_names(spec),
        "constrained": theta.tolist(),
        "unconstrained": softplus_inv(theta).tolist(),
        "final": final,
    }
    with open(params_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    summary_bits = [f"{k}={v}" for k, v in final.items() if v is not None]
    print(f"fit complete: {' '.join(summary_bits)}")
    print(f"trace: {trace_path}")
    print(f"params: {params_path}")
    if aborted:
        return EXIT_NUMERICAL_FAILURE
    return EXIT_OK


_COMMANDS = {"sample": cmd_sample, "gradcheck": cmd_gradcheck, "variance": cmd_variance, "fit": cmd_fit}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](resolve_config(args.command, args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SamplerStallError as exc:
        print(f"sampler stall: {exc}", file=sys.stderr)
        return EXIT_SAMPLER_STALL
    except (DomainError, ContractError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
