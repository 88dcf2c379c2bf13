"""Run one benchmark workload and print its result as one JSON line.

    python3 benchmarks/run.py --workload variance-k100 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from `src/`, and
the run fails with exit code 2 when that tree is missing. `--trace 0` times
the workload untraced and reports the end-to-end metrics; `--trace 1`
alternates untraced rounds with rounds that record spans around every
layer, and reports the per-layer metrics. The last line
of standard output is `{"correct", "attempted", "failed", "metrics"}`; the
raw result, with machine details, goes to `benchmarks/results/`. See
`benchmarks/README.md` for the workloads, metrics and bounds.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before numpy and rsvi load

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

# One process, one BLAS thread: the numbers measure the program, not the scheduler.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_SAMPLES = 5

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (after the BLAS limit and sys.path are set)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny rounds, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _fail(message):
    print(f"benchmark: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_program():
    """Put the checkout's src/ first on the path; fail when it is absent."""
    src = ROOT / "src"
    if not (src / "rsvi" / "__init__.py").is_file():
        _fail(f"no program source at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import rsvi

    if src.resolve() not in Path(rsvi.__file__).resolve().parents:
        _fail(f"rsvi was imported from {rsvi.__file__}, not from {src}")


def _make(args):
    cls = workloads.WORKLOADS[args.workload]
    return cls(**workloads.SMOKE[args.workload]) if args.smoke else cls()


def _setup_seconds(args) -> list:
    """Set-up time of fresh processes: import rsvi, build model, spec and data."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _run_rounds(round_fn, seed, budget_s, min_rounds):
    """Whole rounds until budget_s has passed and min_rounds are done."""
    rounds = []
    t0 = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - t0 < budget_s:
        ts = time.perf_counter()
        r = round_fn(seed, len(rounds))
        r.wall_s = time.perf_counter() - ts
        rounds.append(r)
    return rounds


def _commit():
    """The checkout's commit, when the checkout itself is a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _machine():
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "blas_threads": int(BLAS_THREADS),
        "platform": platform.platform(),
    }


def _end_to_end(rounds, setup_samples):
    walls = [r.wall_s for r in rounds]
    rates = [(r.attempted - r.failed) / r.wall_s for r in rounds]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "estimates_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "fit_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def _traced(w, args):
    """Untraced and traced rounds in turn, in pairs, until the time is up.

    Alternating keeps both kinds under the same machine load and cache
    state, so the traced/untraced wall-time ratio is the tracing overhead.
    """
    import math

    import numpy as np

    import layers
    import tracing

    tracer = tracing.Tracer()
    traced_round = tracer.wrap("bench.round", w.run_round)
    rounds, traced, walls = [], [], {False: 0.0, True: 0.0}
    hits_misses = {key: [0, 0] for key in layers.CACHES}
    min_pairs = math.ceil(w.min_rounds / 2)
    t0 = time.perf_counter()
    while len(rounds) < 2 * min_pairs or time.perf_counter() - t0 < args.seconds:
        for on in (False, True):
            index = len(rounds)
            if on:
                before = layers.cache_counts()
                tracing.install_rsvi_spans(tracer, w.spec)
            ts = time.perf_counter()
            try:
                r = (traced_round if on else w.run_round)(args.seed, index)
            finally:
                wall = time.perf_counter() - ts
                if on:
                    tracer.uninstall()
            r.wall_s = wall
            walls[on] += wall
            rounds.append(r)
            if on:
                traced.append(r)
                after = layers.cache_counts()
                for key, acc in hits_misses.items():
                    acc[0] += after[key][0] - before[key][0]
                    acc[1] += after[key][1] - before[key][1]
    arrs = tracer.arrays()
    RESULTS.mkdir(exist_ok=True)
    np.savez_compressed(RESULTS / f"{args.workload}-seed{args.seed}.spans.npz", **arrs)
    fits = w.ops == "iterations"
    metrics = layers.layer_metrics(
        arrs, len(traced), hits_misses, layers.cache_counts(),
        iterations=sum(r.attempted for r in traced) if fits else 0,
        failed_iterations=sum(r.failed for r in traced) if fits else 0,
        traced_wall=walls[True], untraced_wall=walls[False],
    )
    return rounds, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    w = _make(args)
    w.setup()
    if args.setup_probe:
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0
    if args.trace:
        rounds, metrics = _traced(w, args)
    else:
        setup_samples = _setup_seconds(args)
        rounds = _run_rounds(w.run_round, args.seed, args.seconds, w.min_rounds)
        metrics = _end_to_end(rounds, setup_samples)
    results = w.check(rounds, args.seed)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    raw = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": len(rounds), "round_wall_s": [r.wall_s for r in rounds],
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in results],
        "machine": _machine(),
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(raw, indent=1) + "\n")
    for c in results:
        print(f"check {c.name}: {'ok' if c.ok else 'FAILED'}: {c.detail}")
    print(json.dumps({k: raw[k] for k in ("workload", "rounds", "machine")}))
    print(json.dumps({"correct": all(c.ok for c in results), "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
