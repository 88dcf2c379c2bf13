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
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import engine
from .distributions import DirichletParams, dirichlet_kl
from .engine import RunConfig, run_rsvi, softplus_inv, softplus_jacobian, trace_stability
from .estimators import (
    ESTIMATOR_KINDS,
    EstimatorConfig,
    ThetaState,
    _log_simplex,
    default_theta_init,
    variance_profile,
)
from .exceptions import ContractError, DomainError, OptimizerAbortError, SamplerStallError
from .mathcore import RandomStream, _rel_err, finite_diff_grad, kolmogorov_sf, reg_inc_beta, reg_lower_gamma
from .models import (
    ConjugateModel,
    LatentBlock,
    ModelSpec,
    SparseGammaDEF,
    conjugate_elbo_exact,
    conjugate_model_spec,
    def_model_spec,
    make_synthetic_def_data,
)
from .rejection import (
    dh_dalpha,
    dh_deps,
    grad_log_ratio_gamma,
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


def _parse_list(kind):
    """A parser of a non-empty comma-separated list of `kind` values into a tuple."""

    def parse(s):
        vals = tuple(kind(v) for v in str(s).split(",") if v != "")
        if not vals:
            raise ValueError("empty list")
        return vals

    return parse


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
    "estimator": ESTIMATOR_KINDS,
    "format": ("auto", "bow", "csv"),
}

# the model options of gradcheck, variance and fit
_MODEL_OPTIONS = {
    "model": (str, "conjugate", "model: conjugate, or def for the layered count model"),
    "prior": (_parse_list(float), (1.0, 1.0, 1.0, 1.0, 1.0), "conjugate prior concentrations"),
    "counts": (_parse_list(int), (8, 5, 4, 2, 1), "conjugate observed counts"),
    "layers": (_parse_list(int), (10, 5), "layer sizes for the layered count model"),
    "n-obs": (int, 8, "synthetic observations for the layered model"),
    "n-dim": (int, 6, "synthetic observation dimension"),
    "data-seed": (int, 0, "seed for the synthetic layered data"),
}

SCHEMAS = {
    "sample": {
        "dist": (str, "gamma", "distribution to sample (gamma or dirichlet)"),
        "alpha": (_parse_list(float), (2.0,), "shape (gamma) or comma-separated concentrations (dirichlet)"),
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
        "b": (_parse_list(int), (0, 1, 4), "augmentation steps per rsvi/importance row"),
        "g": (int, 1000, "replicates per variance estimate (>= 2)"),
        "theta": (_parse_list(float), None, "evaluation point (default: standard init)"),
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


# --- KS statistic and table writer ----------------------------------------------


def _ks_statistic(values: np.ndarray, cdf) -> float:
    """KS statistic of `values` against `cdf`, which takes the whole sorted
    sample at once; NaN if any CDF value is NaN."""
    v = np.sort(values)
    c = cdf(v)
    i = np.arange(1, v.size + 1)
    return float(max(np.max(i / v.size - c), np.max(c - (i - 1) / v.size)))


def _write_table(path: str, header: str, names: list, rows, summary: str | None = None):
    """Write the config header, the column names, the rows and an optional
    summary line. The csv module formats each cell: a float as its repr, an
    int or a string as its str, and it ends each row with \\r\\n."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\n")
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(rows)
        if summary is not None:
            fh.write(summary + "\n")


# --- subcommands ----------------------------------------------------------------


def cmd_sample(cfg: dict) -> int:
    """Draw --n-draws accepted samples and KS-test each coordinate against its
    exact marginal; the gamma is the one-coordinate case of the Dirichlet."""
    _require_out(cfg)
    n = int(cfg["n-draws"])
    if n < 0:
        raise ConfigError("--n-draws must be >= 0")
    conc = np.array(cfg["alpha"], dtype=float)
    gamma = cfg["dist"] == "gamma"
    if gamma and conc.size != 1:
        raise ConfigError("gamma sampling takes a single --alpha")
    if not gamma and conc.size < 2:
        raise ConfigError("dirichlet sampling needs >= 2 concentrations in --alpha")
    rate = float(cfg["beta"]) if gamma else 1.0
    try:
        bank = make_sampler_bank(conc, rate, int(cfg["b"]))
        batch = bank.draw_batch(RandomStream(cfg["seed"], 0), n)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    # the per-distribution choices; everything after them runs once for either
    if gamma:
        with np.errstate(over="ignore"):
            z = np.exp(batch.log_z)
        if not np.isfinite(z).all():
            print(f"numerical failure: gamma draws at rate {rate!r} overflow a double", file=sys.stderr)
            return EXIT_NUMERICAL_FAILURE
        names = ["epsilon", "z", "trials"]
        cdfs = [lambda x: reg_lower_gamma(float(conc[0]), rate * x)]
        envelope = f" log_M={float(bank.log_M[0])!r} effective_shape={float(bank.eff_shapes[0])!r}"
    else:
        z = np.exp(_log_simplex(batch.log_z))
        names = [f"{col}_{i}" for col in ("epsilon", "z", "trials") for i in range(conc.size)]
        a0 = float(conc.sum())
        cdfs = [lambda x, ai=ai: reg_inc_beta(ai, a0 - ai, x) for ai in conc]
        envelope = ""
    summary = "# summary: no draws"
    if n:
        acc = n * conc.size / int(batch.trials.sum())
        # np.max, not max(): a NaN marginal makes the worst statistic NaN
        worst = float(np.max([_ks_statistic(z[:, i], cdf) for i, cdf in enumerate(cdfs)]))
        pvalue = kolmogorov_sf(math.sqrt(n) * worst)
        summary = f"# summary: draws={n} acceptance={acc!r} ks={worst!r} ks_pvalue={pvalue!r}{envelope}"
    columns = [*batch.eps.T, *z.T, *batch.trials.T]
    _write_table(cfg["out"], _config_line("sample", cfg), names, zip(*(col.tolist() for col in columns)), summary)
    print(summary.lstrip("# "))
    return EXIT_OK


def _spec_for(cfg):
    """The --model model and its spec. The layered model is fitted to the
    --data file (fit only) or to synthetic counts."""
    try:
        if cfg["model"] == "conjugate":
            model = ConjugateModel(np.array(cfg["prior"], dtype=float), np.array(cfg["counts"]))
            return model, conjugate_model_spec(model)
        layers = tuple(cfg["layers"])
        if cfg.get("data"):
            counts = _load_counts(cfg["data"], cfg["format"])
        else:
            data_stream = RandomStream(cfg["data-seed"], 977)
            counts, _ = make_synthetic_def_data(layers, int(cfg["n-obs"]), int(cfg["n-dim"]), data_stream)
        model = SparseGammaDEF(layers, counts)
        return model, def_model_spec(model)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _cube_point(a, e, step):
    """(alpha, eps), moved up only where a central difference of half-width
    `step` would leave the cube's domain: until a - step rounds to >= 1,
    and to a step above the boundary -sqrt(9 (a - step) - 3)."""
    a = max(a, 1.0 + step)
    while a - step < 1.0:
        a = math.nextafter(a, 2.0)
    return a, max(e, 2.0 * step - math.sqrt(9.0 * (a - step) - 3.0))


def cmd_gradcheck(cfg: dict) -> int:
    """Run every analytic-vs-finite-difference check; nonzero exit on failure."""
    stream = RandomStream(cfg["seed"], 1)
    rng_pts = stream.uniforms(200)
    results = []

    def check(name, errors, tol):
        # np.max, not max(): a NaN error makes the worst error NaN, and NaN fails
        worst = float(np.max(errors))
        results.append((name, worst, tol, worst <= tol))

    # transform derivatives
    errs_e, errs_a = [], []
    for i in range(50):
        a, e = _cube_point(1.0 + 19.0 * rng_pts[2 * i], -2.5 + 5.5 * rng_pts[2 * i + 1], 1e-6)
        errs_e.append(_rel_err(finite_diff_grad(lambda v: h_gam(v, a), e, 1e-6), dh_deps(e, a)))
        errs_a.append(_rel_err(finite_diff_grad(lambda v: h_gam(e, v), a, 1e-6), dh_dalpha(e, a)))
    check("dh_deps", errs_e, 1e-6)
    check("dh_dalpha", errs_a, 1e-6)

    errs = []
    for i in range(50):
        a, e = _cube_point(1.0 + 19.0 * rng_pts[100 + 2 * i], -2.0 + 4.0 * rng_pts[100 + 2 * i + 1], 1e-4)
        fd = finite_diff_grad(lambda v: log_ratio_q_over_r(e, v), a, 1e-4)
        errs.append(_rel_err(fd, grad_log_ratio_gamma(e, a)))
    check("grad_log_ratio", errs, 1e-5)

    # the entropy gradient the estimators add, from ThetaState on one-block
    # specs whose log-joint is never called: theta is (shape, mean) for the
    # gamma and three concentrations for the Dirichlet
    for name, family, dim, low, scale in (
        ("gamma_entropy_grad", "gamma_mean_shape", 1, 0.2, 5.0),
        ("dirichlet_entropy_grad", "dirichlet", 3, 0.3, 4.0),
    ):
        one_block = ModelSpec([LatentBlock("q", family, dim)], None)
        n = one_block.n_params
        pts = low + scale * stream.uniforms(20 * n)
        errs = []
        for i in range(20):
            theta = pts[n * i : n * i + n]
            fd = finite_diff_grad(lambda v: ThetaState(one_block, v).entropy, theta, 1e-6)
            errs.append(_rel_err(fd, ThetaState(one_block, theta).g_entropy))
        check(name, errs, 1e-6)

    xs = np.linspace(-30.0, 30.0, 21)
    fd = np.array([finite_diff_grad(lambda v: engine.softplus(v), float(x), 1e-6) for x in xs])
    an = softplus_jacobian(xs)
    check("softplus_jacobian", np.abs(fd - an), 1e-8)

    spec = _spec_for(cfg)[1]
    try:
        worst = spec.self_check(stream.child(5))
    except DomainError:
        worst = float("nan")
    check("model_grad_self_check", worst, 1e-4)

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
    _write_table(cfg["out"], _config_line("variance", cfg), ["estimator", "B", "min", "median", "max"], rows)
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
    for pb in spec.blocks:
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
            row = dataclasses.asdict(rec)
            wall_clock = row.pop("wall_clock")
            if include_clock:
                row["wall_clock"] = wall_clock
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
