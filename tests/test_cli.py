import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import opentasep
from opentasep import cli, exact_engine, fluctuations, markov_oracle, textio, two_line_sampler
from opentasep.cli import main
from opentasep.rng import stream


PROFILES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "profiles")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _last_line_in_fresh_process(code, env=None):
    src = os.path.dirname(os.path.dirname(opentasep.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**(env or os.environ), "PYTHONPATH": src})
    return out.stdout.strip().splitlines()[-1]


def test_import_does_not_load_scipy():
    # only the Markov oracle needs SciPy, and the closed-form commands need no
    # NumPy either; neither is paid for by the commands that do not use it
    code = "import opentasep.cli, sys; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    assert _last_line_in_fresh_process(code) == "[]"
    fan, shock = (os.path.join(PROFILES, f"c7_{half}.csv") for half in ("fan", "shock"))
    for argv in (["phase", "--a", "2", "--b", "1"],
                 ["ldp", "density", "--r", "0.3", "--a", "2", "--b", "1.5"],
                 ["ldp", "rate", "--profile", fan, "--a", "0.5", "--b", "0.8", "--variational"],
                 ["ldp", "rate", "--profile", shock, "--a", "2", "--b", "1.5", "--variational"]):
        code = (f"import sys; from opentasep.cli import main; code = main({argv!r}); "
                "print(code, 'numpy' in sys.modules)")
        assert _last_line_in_fresh_process(code) == "0 False", argv
    code = "import opentasep.ldp, sys; print('numpy' in sys.modules)"
    assert _last_line_in_fresh_process(code) == "False"


@pytest.mark.parametrize("preset,want", [(None, "1"), ("3", "3")])
def test_openblas_threads_default(preset, want):
    # main pins OpenBLAS to one thread unless the user already chose
    code = ("import os; from opentasep.cli import main; main(['phase', '--a', '2', '--b', '1']); "
            "print(os.environ['OPENBLAS_NUM_THREADS'])")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    assert _last_line_in_fresh_process(code, env) == want


class TestPhase:
    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "phase", "--a", "2", "--b", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["region"] == "LD"
        assert payload["rho_bar"] == pytest.approx(1 / 3)
        assert payload["shock"] is True

    def test_scaling_parameterization(self, capsys):
        code, out, _ = run(capsys, "phase", "--u", "1", "--v", "-0.5", "--n", "100")
        assert code == 0
        payload = json.loads(out)
        assert payload["a"] == pytest.approx(math.exp(-0.1))

    @pytest.mark.parametrize("argv,a", [(("--a", "1e-17", "--b", "1"), 1e-17),
                                        (("--n", "1", "--u", "40", "--v", "0"), math.exp(-40))])
    def test_rate_rounding_to_one_accepted(self, capsys, argv, a):
        # alpha = 1/(1+a) rounds to 1 here, which only the Markov oracle refuses
        code, out, _ = run(capsys, "phase", *argv)
        assert code == 0
        assert json.loads(out)["a"] == a


class TestExitCodes:
    def test_missing_n_is_usage_error(self, capsys):
        code, _, err = run(capsys, "stationary", "--a", "2", "--b", "1")
        assert code == 1 and "required" in err

    def test_conflicting_parameterizations(self, capsys):
        code, _, _ = run(capsys, "phase", "--a", "1", "--b", "1", "--u", "0", "--v", "0")
        assert code == 1

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "phase", "--a", "-1", "--b", "1")
        assert code == 2 and "domain" in err

    def test_resource_error(self, capsys):
        code, _, _ = run(capsys, "stationary", "--n", "20", "--a", "1", "--b", "1")
        assert code == 3

    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 1

    def test_seed_required_for_stochastic(self, capsys, tmp_path):
        code, _, err = run(capsys, "sample", "--n", "3", "--a", "1", "--b", "1",
                           "--count", "5", "--out", str(tmp_path / "s.csv"))
        assert code == 1 and "seed" in err

    @pytest.mark.parametrize("argv", [
        ("sample", "--n", "8", "--a", "0.5", "--b", "0.8", "--count", "10"),
        ("fluct", "--n", "64", "--u", "0", "--v", "0", "--count", "10"),
    ], ids=["sample", "fluct"])
    def test_negative_seed(self, capsys, tmp_path, argv):
        code, _, err = run(capsys, *argv, "--seed", "-1",
                           "--out", str(tmp_path / "out"))
        assert code == 1
        assert err == "usage error: --seed must be >= 0\n"

    @pytest.mark.parametrize("argv", [
        ("sample", "--n", "8", "--a", "0.5", "--b", "0.8", "--count", "10", "--seed", "1"),
        ("verify", "--n-max", "2"),
        ("ldp", "density", "--r", "0.5", "--a", "2", "--b", "2"),
    ], ids=["sample", "verify", "ldp"])
    def test_unwritable_output(self, capsys, tmp_path, argv):
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "missing_dir" / "x"))
        assert code == 1
        assert err.startswith("usage error: cannot write") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,module,stage,target", [
        (("sample", "--n", "8", "--a", "0.5", "--b", "0.8", "--count", "10", "--seed", "1"),
         two_line_sampler, "build_partition_table", "missing_dir/x"),
        (("verify", "--n-max", "2"), exact_engine, "stationary_weights_recursive",
         "missing_dir/x"),
        # an existing directory: the output path itself cannot be a file
        (("sample", "--n", "8", "--a", "0.5", "--b", "0.8", "--count", "10", "--seed", "1"),
         two_line_sampler, "build_partition_table", "."),
        (("verify", "--n-max", "2"), exact_engine, "stationary_weights_recursive", "."),
    ], ids=["sample", "verify", "sample-directory", "verify-directory"])
    def test_unwritable_output_refused_before_work(self, capsys, tmp_path, monkeypatch,
                                                   argv, module, stage, target):
        def work(*args, **kwargs):
            raise AssertionError("work started before the output was checked")

        monkeypatch.setattr(module, stage, work)
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / target))
        assert code == 1 and out == ""
        assert err.startswith("usage error: cannot write output") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,want", [
        (("sample", "--count", "0"), 2),
        (("sample", "--count", "1000000000"), 3),
        (("fluct", "--count", "0", "--limit-count", "10"), 2),
    ], ids=["sample-count", "sample-paths", "fluct-count"])
    def test_count_refused_before_table(self, capsys, tmp_path, monkeypatch, argv, want):
        # a count below 1 exits 2, and path storage over the cap exits 3,
        # before the partition table is built
        def forbidden(*args, **kwargs):
            raise AssertionError("built the table before checking the count")

        monkeypatch.setattr(two_line_sampler, "build_partition_table", forbidden)
        monkeypatch.setattr(fluctuations, "build_partition_table", forbidden)
        command, *sizes = argv
        code, out, err = run(capsys, command, "--n", "16", "--u", "0", "--v", "0", *sizes,
                             "--seed", "1", "--out", str(tmp_path / "out"))
        assert code == want and out == ""
        prefix = "domain error:" if want == 2 else "resource error:"
        assert err.startswith(prefix) and err.count("\n") == 1

    @pytest.mark.parametrize("argv,profile", [
        (("ldp", "density", "--r", "nan", "--a", "0.5", "--b", "0.8"), None),
        (("ldp", "check", "--n", "10", "--r", "nan", "--a", "1", "--b", "1"), None),
        (("ldp", "rate", "--a", "0.5", "--b", "0.8", "--variational"),
         "x,f\n0,0\n0.5,nan\n1,0.5\n"),
        (("ldp", "rate", "--a", "2", "--b", "1.5", "--variational"),
         "x,f\n0,0\n0.5,nan\n1,0.5\n"),
    ], ids=["density", "check", "rate-fan", "rate-shock"])
    def test_nan_input_is_domain_error(self, capsys, tmp_path, argv, profile):
        if profile is not None:
            prof = tmp_path / "f.csv"
            prof.write_text(profile)
            argv += ("--profile", str(prof))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("domain error:") and err.count("\n") == 1

    @pytest.mark.parametrize("sizes,limit_runs", [
        (("--count", "5", "--limit-count", "10000000000"), False),
        (("--count", "10000000000", "--limit-count", "10"), True),
    ], ids=["limit-count", "count"])
    def test_fluct_size_caps(self, capsys, tmp_path, monkeypatch, sizes, limit_runs):
        # output bytes over the cap exit 3 before the partition table is built
        # or any path is sampled; an oversized limit ensemble is refused
        # before any draw
        def forbidden(*args, **kwargs):
            raise AssertionError("worked past a size cap")

        monkeypatch.setattr(fluctuations, "build_partition_table", forbidden)
        monkeypatch.setattr(two_line_sampler, "_walk", forbidden)
        if not limit_runs:
            monkeypatch.setattr(fluctuations, "stream", forbidden)
        code, out, err = run(capsys, "fluct", "--n", "16", "--u", "0", "--v", "0",
                             *sizes, "--seed", "1", "--out", str(tmp_path))
        assert code == 3 and out == ""
        assert err.startswith("resource error:") and err.count("\n") == 1


    def test_fluct_tilt_overflow(self, capsys, tmp_path):
        # exp((u+v) min - v omega(1)) overflows at (u, v) = (-500, -500): a
        # domain error before any output, with no floating-point warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "fluct", "--n", "64", "--u", "-500",
                                 "--v", "-500", "--count", "100", "--seed", "1",
                                 "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("domain error:") and err.count("\n") == 1
        assert "(-500.0, -500.0)" in err
        assert not (tmp_path / "summary.json").exists()

    def test_fluct_has_no_n_steps(self, capsys, tmp_path):
        # fluct draws its limit ensemble exactly, so there is no grid to set
        code, out, err = run(capsys, "fluct", "--n", "16", "--u", "0", "--v", "0",
                             "--count", "5", "--n-steps", "128", "--seed", "1",
                             "--out", str(tmp_path))
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and "--n-steps" in err


class TestStationary:
    def test_uniform_table(self, capsys, tmp_path):
        code, out, _ = run(capsys, "stationary", "--n", "2", "--alpha", "0.5",
                           "--beta", "0.5", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["z"] == pytest.approx(16.0)
        lines = (tmp_path / "weights.csv").read_text().splitlines()
        assert len(lines) == 5
        probs = sorted(float(l.split(",")[-1]) for l in lines[1:])
        assert probs == pytest.approx([0.25] * 4)

    def test_single_site_probability(self, capsys, tmp_path):
        code, out, _ = run(capsys, "stationary", "--n", "1", "--a", "2", "--b", "1",
                           "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "weights.csv").read_text().splitlines()
        rows = {l.split(",")[0]: float(l.split(",")[-1]) for l in lines[1:]}
        assert rows["1"] == pytest.approx(2 / 5)

    def test_refused_rate_writes_nothing(self, capsys, tmp_path):
        # alpha = 1/(1+1e-17) rounds to 1, which the generator refuses only
        # after the other routes have run; no partial weights.csv is left
        code, _, err = run(capsys, "stationary", "--n", "3", "--a", "1e-17", "--b", "1",
                           "--out", str(tmp_path))
        assert code == 2 and "alpha must lie in (0, 1)" in err
        assert list(tmp_path.iterdir()) == []


class TestVerify:
    def test_small_grid_passes(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        code, out, _ = run(capsys, "verify", "--n-max", "4", "--out", str(report))
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["passed"] is True
        assert set(payload["worst"]) == {"marginal", "identity", "matrix", "generator"}
        assert all(isinstance(c["marginal_max_abs_error"], float)
                   for c in payload["checks"])

    def test_injected_corruption_fails(self, capsys, tmp_path, monkeypatch):
        solve = markov_oracle.solve_stationary
        monkeypatch.setattr(markov_oracle, "solve_stationary",
                            lambda gen: solve(gen) * (1.0 + 1e-3))
        code, _, err = run(capsys, "verify", "--n-max", "2",
                           "--out", str(tmp_path / "r.json"))
        assert code == 4

    def test_n_max_11_passes(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        code, _, _ = run(capsys, "verify", "--n-max", "11", "--out", str(report))
        payload = json.loads(report.read_text())
        assert code == 0
        assert payload["passed"] is True


class TestSample:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "sample", "--n", "64", "--u", "1", "--v", "-0.5",
                             "--count", "500", "--seed", "7", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_binary_output(self, capsys, tmp_path):
        path = tmp_path / "s.bin"
        code, _, _ = run(capsys, "sample", "--n", "12", "--a", "0.5", "--b", "2",
                         "--count", "3", "--seed", "1", "--binary", "--out", str(path))
        assert code == 0
        raw = path.read_bytes()
        assert int.from_bytes(raw[:4], "little") == 12
        assert len(raw) == 4 + 3 * 2 * 2  # ceil(12/8) = 2 bytes per line

    def test_summary_log_c(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sample", "--n", "2", "--alpha", "0.5",
                           "--beta", "0.5", "--count", "2", "--seed", "1",
                           "--out", str(tmp_path / "s.csv"))
        payload = json.loads(out)
        assert payload["log_c"] == pytest.approx(0.0, abs=1e-12)


class TestFluct:
    def test_summary_schema_and_determinism(self, capsys, tmp_path):
        args = ("fluct", "--u", "1", "--v", "-0.5", "--n", "128", "--count", "4000",
                "--limit-count", "8000", "--seed", "7")
        code, out1, _ = run(capsys, *args, "--out", str(tmp_path / "f1"))
        assert code == 0
        payload = json.loads(out1)
        assert "kappa_hat" in payload and "w_minus_vs_limit" in payload
        assert set(payload["w_minus_vs_limit"]) == {"0.25", "0.5", "0.75", "1.0"}
        for rep in payload["w_minus_vs_limit"].values():
            assert 0 <= rep["ks"] <= 1 and rep["w1"] >= 0
        code, out2, _ = run(capsys, *args, "--out", str(tmp_path / "f2"))
        p1, p2 = json.loads(out1), json.loads(out2)
        p1.pop("files"), p2.pop("files")
        assert p1 == p2
        csv1 = (tmp_path / "f1" / "tle_w1.csv").read_bytes()
        csv2 = (tmp_path / "f2" / "tle_w1.csv").read_bytes()
        assert csv1 == csv2

    def test_w1_csv_rows_are_mesh_major(self, capsys, tmp_path):
        count, seed = 300, 7
        code, _, _ = run(capsys, "fluct", "--u", "1", "--v", "-0.5", "--n", "128",
                         "--count", str(count), "--limit-count", "600",
                         "--seed", str(seed), "--out", str(tmp_path))
        assert code == 0
        cfg = fluctuations.ScalingConfig(u=1.0, v=-0.5, n=128)
        w1 = fluctuations.sample_scaled_processes(cfg, count, seed).w1
        lines = (tmp_path / "tle_w1.csv").read_text().splitlines()
        assert lines[0] == "x,sample_id,value"
        assert len(lines) == 1 + len(cfg.mesh) * count
        for j, x in enumerate(cfg.mesh):
            for i in range(count):
                cells = lines[1 + j * count + i].split(",")
                assert (float(cells[0]), int(cells[1]), float(cells[2])) == (x, i, w1[i, j])

    def test_csvs_match_reference_writer(self, tmp_path):
        # the three CSVs equal, byte for byte, rows of Python values joined
        # by textio.write_csv one cell at a time; the columns repeat values
        # (integers over sqrt(N)) and hold -0.0 beside 0.0
        rng = stream(3)
        mesh = (0.25, 0.5, 1.0)
        w1 = rng.integers(-40, 41, size=(500, 3)) / math.sqrt(200)
        w1[:4, 0] = [0.0, -0.0, 0.0, -0.0]
        w_minus = rng.integers(0, 30, size=(500, 3)) / math.sqrt(200)
        w_minus[7, 2] = -0.0
        scaled = fluctuations.ScaledSample(w1=w1, w_plus=w1 - w_minus, w_minus=w_minus)
        omega = rng.normal(size=(300, 3))
        omega[0] = [-0.0, 1e-300, 1e300]
        weights = rng.exponential(size=300)
        ens = fluctuations.LimitEnsemble(u=0.0, v=0.0, n_steps=100, mesh=mesh,
                                         omega_mesh=omega, weights=weights,
                                         kappa_hat=1.0, ess=300.0, degenerate=False)
        files = {key: str(tmp_path / f"{key}.csv")
                 for key in ("tle_w1", "tle_wminus", "limit")}
        cli._write_fluct_csvs(files, mesh, scaled, ens)
        for key, values in (("tle_w1", w1), ("tle_wminus", w_minus)):
            textio.write_csv(tmp_path / "ref.csv", ["x", "sample_id", "value"],
                             ((x, i, value) for x, column in zip(mesh, values.T)
                              for i, value in enumerate(column.tolist())))
            assert (tmp_path / f"{key}.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        textio.write_csv(tmp_path / "ref.csv",
                         ["sample_id", "weight"] + [f"value_at_{x}" for x in mesh],
                         ([i, w] + row.tolist()
                          for i, (w, row) in enumerate(zip(weights.tolist(), omega))))
        assert (tmp_path / "limit.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestLdp:
    def test_rate_schema(self, capsys, tmp_path):
        prof = tmp_path / "f.csv"
        prof.write_text("x,f\n0,0\n0.5,0.5\n1,0.5\n")
        code, out, _ = run(capsys, "ldp", "rate", "--profile", str(prof),
                           "--a", "0.5", "--b", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["rate"] == pytest.approx(math.log(2), rel=1e-12)
        assert payload["region"] == "fan"
        assert "diagnostics" in payload

    def test_rate_variational_flag(self, capsys, tmp_path):
        prof = tmp_path / "f.csv"
        prof.write_text("x,f\n0,0\n1,1\n")
        code, out, _ = run(capsys, "ldp", "rate", "--profile", str(prof),
                           "--a", "1", "--b", "1", "--variational", "--mesh", "60")
        payload = json.loads(out)
        assert abs(payload["variational"]["rate"] - payload["rate"]) <= 1e-3

    def test_mesh_cap(self, capsys, tmp_path):
        prof = tmp_path / "f.csv"
        prof.write_text("x,f\n0,0\n1,0.5\n")
        code, _, err = run(capsys, "ldp", "rate", "--profile", str(prof), "--a", "0.5",
                           "--b", "0.5", "--variational", "--mesh", "10000000")
        assert code == 3
        assert err.startswith("resource error:")

    @pytest.mark.parametrize("text", [None, "x,f\n0\n1,0.5\n", "x,f\n0,0\n1,half\n"],
                             ids=["missing-file", "one-field", "not-a-number"])
    def test_malformed_profile_is_usage_error(self, capsys, tmp_path, text):
        prof = tmp_path / "f.csv"
        if text is not None:
            prof.write_text(text)
        code, _, err = run(capsys, "ldp", "rate", "--profile", str(prof),
                           "--a", "0.5", "--b", "0.5")
        assert code == 1
        assert err.startswith("usage error:")

    @pytest.mark.parametrize("extra", [(), ("--variational",)], ids=["closed", "variational"])
    @pytest.mark.parametrize("a,b", [("0.5", "0.8"), ("2", "1.5")], ids=["fan", "shock"])
    def test_inadmissible_profile_is_domain_error(self, capsys, tmp_path, a, b, extra):
        # its rate is +inf, which JSON cannot carry: refuse it and write nothing
        prof = tmp_path / "f.csv"
        prof.write_text("x,f\n0,0\n0.5,0.9\n1,1\n")
        dest = tmp_path / "rate.json"
        code, out, err = run(capsys, "ldp", "rate", "--profile", str(prof), "--a", a,
                             "--b", b, "--out", str(dest), *extra)
        assert code == 2
        assert out == ""
        assert err == "domain error: profile slope 1.8 on [0.0, 0.5] lies outside [0, 1]\n"
        assert not dest.exists()

    def test_density(self, capsys):
        code, out, _ = run(capsys, "ldp", "density", "--r", "0.5", "--a", "2", "--b", "2")
        payload = json.loads(out)
        assert abs(payload["rate"]) <= 1e-12

    def test_huge_a_rate_variational(self, capsys, tmp_path):
        prof = tmp_path / "f.csv"
        prof.write_text("x,f\n0,0\n0.5,0.5\n1,0.5\n")
        code, out, _ = run(capsys, "ldp", "rate", "--profile", str(prof),
                           "--a", "1e200", "--b", "1", "--variational", "--mesh", "60")
        assert code == 0
        payload = json.loads(out)
        assert math.isfinite(payload["rate"]) and math.isfinite(payload["variational"]["rate"])

    def test_huge_a_density(self, capsys):
        code, out, _ = run(capsys, "ldp", "density", "--r", "0.5", "--a", "1e200", "--b", "1")
        assert code == 0
        assert math.isfinite(json.loads(out)["rate"])

    @pytest.mark.parametrize("a,b", [("1e200", "1e200"), ("1e160", "1e170")])
    def test_huge_shock_density(self, capsys, a, b):
        # the shock middle branch in logs: a*b beyond the double range
        code, out, _ = run(capsys, "ldp", "density", "--r", "0.5", "--a", a, "--b", b)
        assert code == 0
        payload = json.loads(out)
        assert math.isfinite(payload["rate"])
        assert abs(payload["rate"] - payload["variational_rate"]) <= 1e-3

    @pytest.mark.parametrize("r,a,b", [("0.9", "0.5", "1e20"), ("1", "1e150", "1e150"),
                                       ("0.7", "1e-200", "1e100")])
    def test_extreme_density_branches(self, capsys, r, a, b):
        # outer branches where b/(1+b) or 1/(1+a) rounds to 1
        code, out, _ = run(capsys, "ldp", "density", "--r", r, "--a", a, "--b", b)
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["rate"] - payload["variational_rate"]) <= 1e-9

    def test_check(self, capsys):
        code, out, _ = run(capsys, "ldp", "check", "--n", "50", "--r", "0.5",
                           "--a", "1", "--b", "1")
        payload = json.loads(out)
        assert payload["gap"] == pytest.approx(payload["empirical_rate"], rel=1e-12)

    def test_missing_subcommand(self, capsys):
        assert run(capsys, "ldp")[0] == 1


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 2\nalpha = 0.5\nbeta = 0.5\n")
        code, out, _ = run(capsys, "--config", str(cfg), "stationary",
                           "--out", str(tmp_path))
        assert code == 0
        assert json.loads(out)["z"] == pytest.approx(16.0)

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 2\nalpha = 0.5\nbeta = 0.5\n")
        code, out, _ = run(capsys, "--config", str(cfg), "stationary",
                           "--n", "1", "--out", str(tmp_path))
        assert code == 0
        assert json.loads(out)["n_sites"] == 1

    def test_bad_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense without equals\n")
        code, _, err = run(capsys, "--config", str(cfg), "phase", "--a", "1", "--b", "1")
        assert code == 1

    def test_threads_key_acts_like_flag(self, capsys, tmp_path, monkeypatch):
        seen = []
        sample = two_line_sampler.sample_two_line

        def recording(table, count, seed, threads=1):
            seen.append(threads)
            return sample(table, count, seed, threads=threads)

        monkeypatch.setattr(two_line_sampler, "sample_two_line", recording)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = 2\nn = 8\na = 1\nb = 1\n")
        argv = ("sample", "--count", "10", "--seed", "1", "--out", str(tmp_path / "s.csv"))
        assert run(capsys, "--config", str(cfg), *argv)[0] == 0
        assert run(capsys, "--threads", "1", "--config", str(cfg), *argv)[0] == 0
        assert seen == [2, 1]

    def test_config_after_command(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a = 2\nb = 1\n")
        code, out, _ = run(capsys, "phase", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["region"] == "LD"

    def test_missing_config_file(self, capsys):
        code, _, _ = run(capsys, "--config", "/nonexistent.cfg", "phase",
                         "--a", "1", "--b", "1")
        assert code == 1


class TestThreads:
    def test_thread_count_does_not_change_output(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        code, _, _ = run(capsys, "sample", "--n", "40", "--a", "0.5", "--b", "2",
                         "--count", "70000", "--seed", "5", "--out", str(a))
        assert code == 0
        code, _, _ = run(capsys, "--threads", "4", "sample", "--n", "40",
                         "--a", "0.5", "--b", "2", "--count", "70000",
                         "--seed", "5", "--out", str(b))
        assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_fallback(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TASEP_THREADS", "2")
        code, _, _ = run(capsys, "sample", "--n", "8", "--a", "1", "--b", "1",
                         "--count", "10", "--seed", "1",
                         "--out", str(tmp_path / "s.csv"))
        assert code == 0

    def test_invalid_threads(self, capsys):
        code, _, _ = run(capsys, "--threads", "0", "phase", "--a", "1", "--b", "1")
        assert code == 1
