"""The benchmark's own tests: smoke runs of each workload and its checks.

Run with `python -m pytest benchmarks/tests -q` from the repository root.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    cmd = [sys.executable, str(cwd / "benchmarks" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run(workload, trace):
    out = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if workload != "conj-fit":
        # a 60-iteration conjugate fit cannot reach the 0.01-nat KL gate
        assert result["correct"] is True
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        parts = sum(m[k] for k in layers.SELF_TIMES) + m["bench.self_s"]
        assert parts == pytest.approx(m["bench.traced_round_s"], rel=1e-9)
        assert m["bench.self_s"] >= 0.0


def test_bare_directory_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = run_bench(tmp_path, "--workload", "conj-fit", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_per_layer_list_matches_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_kl_check_rejects_the_prior():
    model = workloads.ConjFit()
    model.setup()
    posterior = model.model.prior + model.model.counts
    assert checks.conjugate_kl([posterior] * 3, posterior).ok
    assert not checks.conjugate_kl([model.model.prior] * 3, posterior).ok


def test_scipy_kl_matches_program_kl():
    from rsvi import DirichletParams, dirichlet_kl

    rng = np.random.default_rng(5)
    for _ in range(20):
        p, q = rng.uniform(0.2, 30.0, size=(2, 6))
        assert checks.dirichlet_kl(p, q) == pytest.approx(dirichlet_kl(DirichletParams(p), DirichletParams(q)), rel=1e-9, abs=1e-12)


def test_ordering_check_rejects_swapped_rows():
    medians = {"rsvi(B=4)": 2.3, "rsvi(B=1)": 43.0, "score_function": 3.9e4, "importance(B=1)": 52.0}
    assert checks.variance_ordering(medians).ok
    swapped = dict(medians, **{"rsvi(B=4)": 43.0, "rsvi(B=1)": 2.3})
    assert not checks.variance_ordering(swapped).ok
    swapped = dict(medians, **{"importance(B=1)": 3.9e4, "score_function": 52.0})
    assert not checks.variance_ordering(swapped).ok
    assert not checks.variance_ordering(dict(medians, **{"rsvi(B=4)": math.nan})).ok


def test_elbo_check_rejects_a_ten_se_shift():
    reference = (-4200.0, 3.0)
    program = (-4201.0, 4.0)
    assert checks.elbo_agreement(program, reference).ok
    se = math.hypot(program[1], reference[1])
    assert not checks.elbo_agreement((program[0] + 10.0 * se, program[1]), reference).ok
    assert not checks.elbo_agreement((program[0] - 10.0 * se, program[1]), reference).ok


def test_elbo_rise_check():
    rising = np.linspace(-5000.0, -3000.0, 100)
    assert checks.elbo_rise([rising], window=10, margin=1000.0).ok
    assert not checks.elbo_rise([rising[::-1]], window=10, margin=1000.0).ok


def test_reference_log_joint_matches_program():
    """The benchmark's scipy DEF log-joint agrees with the model's own."""
    w = workloads.DefFit(**workloads.SMOKE["def-fit"])
    w.setup()
    rng = np.random.default_rng(11)
    lz = rng.normal(-1.0, 1.5, size=(7, w.spec.n_latents))
    parts, pos = [], 0
    for shp in checks.def_block_shapes(w.model):
        parts.append(lz[:, pos : pos + shp[0] * shp[1]].reshape(7, *shp))
        pos += shp[0] * shp[1]
    n_layers = len(w.model.layer_sizes)
    ours = checks.def_log_joint(w.model, parts[:n_layers], parts[n_layers:])
    np.testing.assert_allclose(ours, w.spec.log_joint_batch(lz), rtol=1e-10)
