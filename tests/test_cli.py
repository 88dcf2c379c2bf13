import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from rsvi import cli, mathcore
from rsvi.exceptions import DomainError, OptimizerAbortError, SamplerStallError
from rsvi.models import ModelSpec
from rsvi.rejection import _log_m_at_mode


def run_cli(*argv):
    return cli.main(list(argv))


def read(path):
    return path.read_bytes()


class TestSample:
    def test_gamma_summary_and_format(self, tmp_path):
        out = tmp_path / "g.csv"
        code = run_cli(
            "sample", "--dist", "gamma", "--alpha", "2", "--beta", "1",
            "--b", "0", "--n-draws", "50000", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# rsvi sample config:")
        assert lines[1] == "epsilon,z,trials"
        summary = lines[-1]
        assert summary.startswith("# summary:")
        acc = float(summary.split("acceptance=")[1].split()[0])
        assert abs(acc - 0.98) <= 0.005
        pval = float(summary.split("ks_pvalue=")[1].split()[0])
        assert pval > 0.01
        assert len(lines) == 50000 + 3

    def test_summary_reports_the_bank_envelope(self, tmp_path, golden_log_m):
        # shape 0.5 forces one augmentation step (the bump rule), so the
        # transform runs at effective shape 1.5 even with --b 0
        out = tmp_path / "g.csv"
        assert run_cli(
            "sample", "--alpha", "0.5", "--b", "0", "--n-draws", "200", "--seed", "1", "--out", str(out),
        ) == 0
        summary = out.read_text().splitlines()[-1]
        assert summary.split("effective_shape=")[1] == "1.5"
        log_m = float(summary.split("log_M=")[1].split()[0])
        assert log_m == _log_m_at_mode(1.5)
        assert abs(log_m - golden_log_m(1.5)) <= 1e-12

    def test_zero_draws(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert run_cli("sample", "--n-draws", "0", "--seed", "1", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[-1] == "# summary: no draws"
        assert len(lines) == 3

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "g.csv"
        args = ("sample", "--alpha", "2.5", "--b", "1", "--n-draws", "2000", "--seed", "9", "--out", str(out))
        assert run_cli(*args) == 0
        first = read(out)
        assert run_cli(*args) == 0
        assert read(out) == first

    def test_dirichlet(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run_cli(
            "sample", "--dist", "dirichlet", "--alpha", "2,3,5",
            "--n-draws", "4000", "--seed", "2", "--out", str(out),
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[:3] == ["epsilon_0", "epsilon_1", "epsilon_2"]
        pval = float(lines[-1].split("ks_pvalue=")[1].split()[0])
        assert pval > 0.01

    def test_dirichlet_tiny_concentrations(self, tmp_path):
        # most coordinates lie below the smallest double; normalizing must not give 0/0
        out = tmp_path / "tiny.csv"
        assert run_cli(
            "sample", "--dist", "dirichlet", "--alpha", "0.001,0.002",
            "--n-draws", "500", "--seed", "1", "--out", str(out),
        ) == 0
        assert "nan" not in out.read_text()

    def test_large_shape_ks_is_the_reference_statistic(self, tmp_path):
        # at shape 1e6 the reference CDF needs about 8000 Lentz and series
        # steps; the statistic depends only on the CSV's z column
        from scipy import special, stats

        out = tmp_path / "big.csv"
        assert run_cli("sample", "--alpha", "1e6", "--n-draws", "2000", "--seed", "4", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        z = np.array([float(line.split(",")[1]) for line in lines[2:-1]])
        ref = stats.kstest(z, lambda v: special.gammainc(1e6, v)).statistic
        assert abs(float(lines[-1].split("ks=")[1].split()[0]) - ref) <= 1e-9

    def test_ks_statistic_carries_nan(self):
        assert math.isnan(cli._ks_statistic(np.array([0.3, 0.1, 0.2]), lambda v: np.where(v == 0.2, np.nan, v)))

    def test_unconverged_cdf_prints_nan(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(mathcore, "_MAX_STEPS", 5)
        out = tmp_path / "g.csv"
        assert run_cli("sample", "--alpha", "50", "--n-draws", "100", "--seed", "1", "--out", str(out)) == 0
        assert " ks=nan ks_pvalue=nan " in capsys.readouterr().out

    def test_dirichlet_nan_marginal_is_not_dropped(self, tmp_path, monkeypatch, capsys):
        def one_nan_marginal(a, b, x):
            return np.full(np.shape(x), np.nan) if a == 2.0 else mathcore.reg_inc_beta(a, b, x)

        monkeypatch.setattr(cli, "reg_inc_beta", one_nan_marginal)
        out = tmp_path / "d.csv"
        assert run_cli(
            "sample", "--dist", "dirichlet", "--alpha", "1,2,3", "--n-draws", "100", "--seed", "1", "--out", str(out),
        ) == 0
        assert capsys.readouterr().out.rstrip().endswith(" ks=nan ks_pvalue=nan")

    def test_config_errors(self, tmp_path, capsys):
        assert run_cli("sample", "--alpha", "-2", "--out", str(tmp_path / "x.csv")) == 2
        assert run_cli("sample", "--alpha", "2") == 2  # missing --out
        assert run_cli("sample", "--dist", "weird", "--out", str(tmp_path / "x.csv")) == 2
        assert run_cli("sample", "--n-draws", "-5", "--out", str(tmp_path / "x.csv")) == 2
        capsys.readouterr()
        assert run_cli("sample", "--alpha", "2,3", "--out", str(tmp_path / "x.csv")) == 2
        assert capsys.readouterr().err == "config error: gamma sampling takes a single --alpha\n"
        assert run_cli("sample", "--dist", "dirichlet", "--alpha", "2", "--out", str(tmp_path / "x.csv")) == 2
        assert capsys.readouterr().err == "config error: dirichlet sampling needs >= 2 concentrations in --alpha\n"

    @pytest.mark.parametrize(
        "args, expected",
        [
            (
                ["sample", "--alpha", "0.3", "--b", "2", "--n-draws", "3", "--seed", "7", "--out", "g.csv"],
                b"# rsvi sample config: alpha=(0.3,) b=2 beta=1.0 dist='gamma' n-draws=3 out='g.csv' seed=7\n"
                b"epsilon,z,trials\r\n"
                b"-0.8664488533725647,0.0069812336391118284,1\r\n"
                b"0.2993178823318313,0.10513345829495031,1\r\n"
                b"1.23761825837002,0.7971398055233929,1\r\n"
                b"# summary: draws=3 acceptance=1.0 ks=0.2508768101230593 ks_pvalue=0.9916157376759955 "
                b"log_M=0.015494523616786438 effective_shape=2.3\n",
            ),
            (
                [
                    "sample", "--dist", "dirichlet", "--alpha", "1,2,3", "--n-draws", "2", "--seed", "7",
                    "--out", "d.csv",
                ],
                b"# rsvi sample config: alpha=(1.0, 2.0, 3.0) b=0 beta=1.0 dist='dirichlet' n-draws=2 out='d.csv' seed=7\n"
                b"epsilon_0,epsilon_1,epsilon_2,z_0,z_1,z_2,trials_0,trials_1,trials_2\r\n"
                b"-0.8664488533725647,0.2993178823318313,1.23761825837002,"
                b"0.023977959173114283,0.2776468695646847,0.6983751712622008,1,1,1\r\n"
                b"0.3752924835186,-0.6610409944386471,-0.3057133625174855,"
                b"0.24512891324780287,0.22791496672652126,0.5269561200256758,1,1,1\r\n"
                b"# summary: draws=2 acceptance=1.0 ks=0.5746475958310623 ks_pvalue=0.5236656007064968\n",
            ),
            (
                ["variance", "--g", "2", "--seed", "7", "--out", "v.csv"],
                b"# rsvi variance config: b=(0, 1, 4) counts=(8, 5, 4, 2, 1) data-seed=0 draws=1 "
                b"estimators='rsvi,score_function' g=2 layers=(10, 5) model='conjugate' n-dim=6 n-obs=8 out='v.csv' "
                b"prior=(1.0, 1.0, 1.0, 1.0, 1.0) seed=7 theta=None\n"
                b"estimator,B,min,median,max\r\n"
                b"rsvi,0,10.901757465197008,45.84522666995605,53.046067076814694\r\n"
                b"rsvi,1,1.5237658192443322,4.859813867683597,217.19569293281694\r\n"
                b"rsvi,4,0.15758224156193487,30.3654278397153,51.64778610629003\r\n"
                b"score_function,0,0.12712752894417295,909.8593530500037,2858.5416488792666\r\n",
            ),
        ],
        ids=["gamma", "dirichlet", "variance"],
    )
    def test_csv_bytes_are_pinned(self, tmp_path, monkeypatch, args, expected):
        # the whole file: the header (which records the relative --out), the
        # csv module's \r\n rows of repr cells and the summary line
        monkeypatch.chdir(tmp_path)
        assert run_cli(*args) == 0
        assert (tmp_path / args[-1]).read_bytes() == expected

    def test_overflowing_draws_are_a_numerical_failure(self, tmp_path, capsys):
        # every Gam(2, 1e-310) draw lies near 2e310, past the largest double:
        # the inputs are valid, so this is exit 4 with no numpy warning and no CSV
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(
                "sample", "--alpha", "2", "--beta", "1e-310", "--n-draws", "5", "--seed", "1", "--out", str(out),
            )
        assert code == 4 and not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: gamma draws at rate 1e-310 overflow a double"
        ]

    def test_sampler_stall_exit_code(self, tmp_path, monkeypatch):
        class StallBank:
            def draw_batch(self, stream, n):
                raise SamplerStallError(2.0, 0.0, 10**6)

        monkeypatch.setattr(cli, "make_sampler_bank", lambda *a, **k: StallBank())
        code = run_cli("sample", "--alpha", "2", "--n-draws", "10", "--out", str(tmp_path / "s.csv"))
        assert code == 3


class TestConfigResolution:
    def test_flags_beat_config_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("alpha = 3.0\nn-draws = 10\nseed = 4\n")
        out = tmp_path / "o.csv"
        assert run_cli("sample", "--config", str(cfg), "--alpha", "2.0", "--out", str(out)) == 0
        header = out.read_text().splitlines()[0]
        assert "alpha=(2.0,)" in header
        assert "n-draws=10" in header and "seed=4" in header

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("junk = 1\n")
        assert run_cli("sample", "--config", str(cfg), "--out", str(tmp_path / "o.csv")) == 2

    def test_underscores_accepted_in_config(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n_draws = 7\n")
        out = tmp_path / "o.csv"
        assert run_cli("sample", "--config", str(cfg), "--seed", "1", "--out", str(out)) == 0
        assert "n-draws=7" in out.read_text().splitlines()[0]

    def test_missing_config_file(self, tmp_path):
        assert run_cli("sample", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o.csv")) == 2

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
        out = tmp_path / "o.csv"
        assert run_cli("sample", "--n-draws", "5", "--out", str(out)) == 0
        assert "seed=123" in out.read_text().splitlines()[0]


class TestGradcheck:
    def test_passes_by_default(self, capsys):
        assert run_cli("gradcheck", "--model", "conjugate", "--seed", "3") == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7 and "FAIL" not in out

    def test_deterministic_report(self, capsys):
        run_cli("gradcheck", "--seed", "5")
        first = capsys.readouterr().out
        run_cli("gradcheck", "--seed", "5")
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "model,line",
        [
            ("conjugate", "PASS model_grad_self_check: max_rel_err=6.897948877794871e-10 tol=0.0001"),
            ("def", "PASS model_grad_self_check: max_rel_err=9.719263475844879e-09 tol=0.0001"),
        ],
    )
    def test_model_check_is_pinned(self, capsys, model, line):
        # pinned across commits, as test_golden.py pins estimates: a change to
        # the model callbacks, self_check or finite_diff_grad that moves a
        # digit shows here
        assert run_cli("gradcheck", "--model", model, "--seed", "5") == 0
        out = capsys.readouterr().out.splitlines()
        assert [row for row in out if "model_grad_self_check" in row] == [line]

    @pytest.mark.parametrize(
        "corrupt,line",
        [
            # the worst error itself, finite: the offset of 1 + |g| on one coordinate
            ("offset", "FAIL model_grad_self_check: max_rel_err=1.1250000006466614 tol=0.0001"),
            ("nan", "FAIL model_grad_self_check: max_rel_err=nan tol=0.0001"),
        ],
    )
    def test_negative_control(self, capsys, monkeypatch, corrupt, line):
        spec_for = cli._spec_for

        def wrong_gradient(cfg):
            model, spec = spec_for(cfg)

            def corrupted(lz, grad=False):
                if not grad:
                    return spec.log_joint_batch(lz)
                f, g = spec.log_joint_batch(lz, grad=True)
                g = np.array(g)
                g[:, 0] = np.nan if corrupt == "nan" else g[:, 0] + 1.0 + abs(g[:, 0])
                return f, g

            return model, ModelSpec(spec.latent_layout, corrupted)

        monkeypatch.setattr(cli, "_spec_for", wrong_gradient)
        assert run_cli("gradcheck", "--seed", "3") == 1
        out = capsys.readouterr().out.splitlines()
        assert line in out

    def test_nan_transform_derivative_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "dh_deps", lambda e, a: float("nan"))
        assert run_cli("gradcheck", "--seed", "3") == 1
        out = capsys.readouterr().out.splitlines()
        assert "FAIL dh_deps: max_rel_err=nan tol=1e-06" in out
        assert out[-1] == "gradcheck: CHECK FAILURES (seed=3)"

    def test_layered_model(self):
        assert run_cli("gradcheck", "--model", "def", "--layers", "3,2", "--n-obs", "4",
                       "--n-dim", "3", "--seed", "4") == 0

    # every seed in 0-19,999 whose points, or their finite-difference
    # stencils, reach alpha < 1 or eps at the support boundary
    @pytest.mark.parametrize(
        "seed", [2488, 5912, 6548, 9524, 10107, 10211, 10277, 12018, 14152, 15129, 15277, 17141, 18509, 18887]
    )
    def test_points_at_the_domain_edge(self, capsys, seed):
        assert run_cli("gradcheck", "--seed", str(seed)) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7 and "FAIL" not in out


class TestVariance:
    def test_table_layout_and_determinism(self, tmp_path):
        out = tmp_path / "v.csv"
        args = ("variance", "--estimators", "rsvi,score_function", "--b", "1,4",
                "--g", "100", "--seed", "5", "--out", str(out))
        assert run_cli(*args) == 0
        first = read(out)
        lines = out.read_text().splitlines()
        assert lines[1] == "estimator,B,min,median,max"
        rows = [ln.split(",") for ln in lines[2:]]
        assert [(r[0], r[1]) for r in rows] == [("rsvi", "1"), ("rsvi", "4"), ("score_function", "0")]
        for r in rows:
            vmin, vmed, vmax = float(r[2]), float(r[3]), float(r[4])
            assert 0.0 <= vmin <= vmed <= vmax
        assert run_cli(*args) == 0
        assert read(out) == first

    def test_g_validation(self, tmp_path):
        assert run_cli("variance", "--g", "1", "--out", str(tmp_path / "v.csv")) == 2

    def test_bad_estimator(self, tmp_path):
        assert run_cli("variance", "--estimators", "magic", "--out", str(tmp_path / "v.csv")) == 2

    def test_theta_length_check(self, tmp_path):
        assert run_cli("variance", "--theta", "1,2", "--out", str(tmp_path / "v.csv")) == 2

    @pytest.mark.parametrize(
        "model_args, theta",
        [
            ((), "0,1,1,1,1"),
            ((), "-1,1,1,1,1"),
            ((), "nan,1,1,1,1"),
            ((), "1,inf,1,1,1"),
            # shape/mean underflows to a zero rate
            (("--model", "def", "--layers", "1", "--n-obs", "1", "--n-dim", "1"), "1e-300,1e300,1,1"),
        ],
    )
    def test_bad_theta_is_a_config_error(self, tmp_path, capsys, model_args, theta):
        out = tmp_path / "v.csv"
        assert run_cli("variance", *model_args, f"--theta={theta}", "--g", "20", "--out", str(out)) == 2
        assert "config error" in capsys.readouterr().err and not out.exists()

    def test_numerical_failure_is_not_a_config_error(self, tmp_path, capsys):
        # a valid theta whose tiny shape gives a non-finite gradient estimate
        # and whose intended infs raise no numpy warning on the way
        out = tmp_path / "v.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("variance", "--theta", "1e-200,1,1,1,1", "--g", "20", "--b", "0,1", "--out", str(out))
        err = capsys.readouterr().err
        assert code == 4 and not out.exists()
        assert "numerical failure: estimate rejected" in err and "config error" not in err
        assert err.splitlines() == ["numerical failure: estimate rejected: non-finite gradient component"]


class TestFit:
    def test_overflowing_latents_print_only_the_failures(self, tmp_path):
        # latents that run huge overflow the gamma log-density's z * rate to
        # inf on purpose: the log-joint is -inf and the iteration fails. Run
        # as a process, so stderr is what a user sees, numpy warnings included
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
        args = ["fit", "--model", "def", "--layers", "3,2", "--n-obs", "4", "--n-dim", "3",
                "--estimator", "importance", "--eta", "30", "--iterations", "30", "--elbo-draws", "5",
                "--seed", "45", "--out", str(tmp_path / "huge")]
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from rsvi.cli import main; sys.exit(main(sys.argv[1:]))", *args],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 4, proc.stderr
        lines = proc.stderr.splitlines()
        assert lines and all(line.startswith("numerical failure at iteration ") for line in lines), lines

    def test_huge_finite_gradient_is_strict_json(self, tmp_path):
        # iteration 8 of this fit has a finite gradient whose sum of squares
        # overflows: its grad_norm is about 2.1e194, not Infinity, and the
        # step schedule's g * g raises no warning
        def no_constant(name):
            raise ValueError(f"not JSON: {name}")

        out = tmp_path / "huge"
        code = run_cli("fit", "--model", "def", "--layers", "4,3,2", "--n-obs", "8", "--n-dim", "6",
                       "--iterations", "100", "--elbo-draws", "20", "--seed", "24", "--out", str(out))
        assert code == 4
        lines = (tmp_path / "huge.trace.jsonl").read_text().splitlines()
        records = [json.loads(line, parse_constant=no_constant) for line in lines]
        assert records[8]["iteration"] == 8
        assert records[8]["grad_norm"] == pytest.approx(2.0987e194, rel=1e-4)

    def test_conjugate_fit_outputs(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("fit", "--model", "conjugate", "--iterations", "150",
                       "--elbo-draws", "10", "--eta", "2.0", "--seed", "6", "--out", str(out)) == 0
        trace_lines = (tmp_path / "run.trace.jsonl").read_text().splitlines()
        head = json.loads(trace_lines[0])
        assert head["config"]["iterations"] == 150
        rec = json.loads(trace_lines[1])
        assert set(rec) == {"iteration", "elbo", "step_norm", "grad_norm", "trials", "accept_rate"}
        tail = json.loads(trace_lines[-1])
        assert "kl_to_posterior" in tail["final"]
        params = json.loads((tmp_path / "run.params.json").read_text())
        assert len(params["names"]) == 5 == len(params["constrained"])
        assert params["names"][0] == "z.conc[0]"
        cons = np.array(params["constrained"])
        assert np.all(cons > 0.0)

    def test_zero_iterations_returns_init(self, tmp_path):
        out = tmp_path / "zero"
        assert run_cli("fit", "--iterations", "0", "--seed", "1", "--out", str(out)) == 0
        lines = (tmp_path / "zero.trace.jsonl").read_text().splitlines()
        assert len(lines) == 2  # config + final only
        params = json.loads((tmp_path / "zero.params.json").read_text())
        assert params["constrained"] == [1.0] * 5

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "det"
        args = ("fit", "--iterations", "60", "--elbo-draws", "5", "--seed", "8", "--out", str(out))
        assert run_cli(*args) == 0
        t1, p1 = read(tmp_path / "det.trace.jsonl"), read(tmp_path / "det.params.json")
        assert run_cli(*args) == 0
        assert read(tmp_path / "det.trace.jsonl") == t1
        assert read(tmp_path / "det.params.json") == p1

    def test_timings_flag_adds_clock(self, tmp_path):
        out = tmp_path / "clocked"
        assert run_cli("fit", "--iterations", "3", "--elbo-draws", "2", "--timings", "true",
                       "--seed", "2", "--out", str(out)) == 0
        rec = json.loads((tmp_path / "clocked.trace.jsonl").read_text().splitlines()[1])
        assert "wall_clock" in rec

    def test_def_fit_with_bow_data(self, tmp_path):
        data = tmp_path / "docs.bow"
        data.write_text("0 0 3\n0 2 1\n1 1 2\n2 0 1\n")
        out = tmp_path / "bow"
        assert run_cli("fit", "--model", "def", "--layers", "2", "--data", str(data),
                       "--iterations", "5", "--elbo-draws", "3", "--seed", "3", "--out", str(out)) == 0
        tail = json.loads((tmp_path / "bow.trace.jsonl").read_text().splitlines()[-1])
        assert "stable_smoothed_elbo" in tail["final"]

    def test_def_fit_with_csv_data(self, tmp_path):
        data = tmp_path / "counts.csv"
        data.write_text("3,0,1\n0,2,0\n")
        out = tmp_path / "csvfit"
        assert run_cli("fit", "--model", "def", "--layers", "2", "--data", str(data),
                       "--iterations", "4", "--elbo-draws", "2", "--seed", "3", "--out", str(out)) == 0

    def test_unreadable_data_exit_code(self, tmp_path):
        code = run_cli("fit", "--model", "def", "--data", str(tmp_path / "missing.bow"),
                       "--out", str(tmp_path / "x"))
        assert code == 2

    def test_malformed_data_exit_code(self, tmp_path):
        data = tmp_path / "bad.bow"
        data.write_text("0 1\n")
        assert run_cli("fit", "--model", "def", "--data", str(data), "--out", str(tmp_path / "x")) == 2

    def test_numerical_failure_in_elbo_is_an_abort(self, tmp_path, monkeypatch):
        real_spec = cli.conjugate_model_spec

        def spec_with_failing_elbo(model):
            spec = real_spec(model)

            def failing_batch(lzmat, grad=False):
                # the ELBO's matrices of --elbo-draws rows; an estimate's has one row
                if lzmat.shape[0] == 2:
                    raise DomainError("ELBO estimate is non-finite (nan)")
                return spec.log_joint_batch(lzmat, grad=grad)

            return ModelSpec(spec.latent_layout, failing_batch)

        monkeypatch.setattr(cli, "conjugate_model_spec", spec_with_failing_elbo)
        out = tmp_path / "numeric"
        code = run_cli("fit", "--iterations", "5", "--elbo-draws", "2", "--seed", "1", "--out", str(out))
        assert code == 4
        tail = json.loads((tmp_path / "numeric.trace.jsonl").read_text().splitlines()[-1])
        assert "non-finite" in tail["final"]["aborted"]

    @pytest.mark.parametrize(
        "flag",
        ["--eta=0", "--eta=nan", "--eta=inf", "--iterations=-1", "--elbo-draws=0", "--stop-window=0",
         "--stop-tol=nan"],
    )
    def test_bad_run_configuration_is_a_config_error(self, tmp_path, capsys, flag):
        # the flag comes last, so it wins over the short --iterations
        assert run_cli("fit", "--iterations", "5", "--seed", "1", "--out", str(tmp_path / "f"), flag) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert list(tmp_path.iterdir()) == []

    def test_optimizer_abort_exit_code(self, tmp_path, monkeypatch):
        def exploding_run(spec, theta0, cfg, stream):
            raise OptimizerAbortError("boom", theta0, [])

        monkeypatch.setattr(cli, "run_rsvi", exploding_run)
        out = tmp_path / "abort"
        code = run_cli("fit", "--iterations", "5", "--seed", "1", "--out", str(out))
        assert code == 4
        tail = json.loads((tmp_path / "abort.trace.jsonl").read_text().splitlines()[-1])
        assert tail["final"]["aborted"] == "boom"


class TestContract:
    def test_contract_script_writes_every_output(self, tmp_path):
        # tools/contract.py is the bit-identity record of the CLI outputs; run
        # it as its docstring says, from the checkout's root
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "tools/contract.py", str(tmp_path)], cwd=root, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert len(list(tmp_path.iterdir())) == 108
        exits = {path.stem: path.read_text() for path in tmp_path.glob("*.exit")}
        # every command exits 0 but the four that check a failure path
        failing = {
            "sample-gamma-overflow": "4\n", "variance-theta-negative": "2\n", "fit-stop-tol-nan": "2\n",
            "fit-def-runaway": "4\n",
        }
        assert len(exits) == 27
        assert exits == {name: failing.get(name, "0\n") for name in exits}
