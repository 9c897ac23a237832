import json
import math
import os
import subprocess
import sys

import pytest

import opentasep
from opentasep import fluctuations, markov_oracle, two_line_sampler
from opentasep.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_import_does_not_load_scipy():
    # only the Markov oracle needs SciPy; other commands must not pay its import
    code = "import opentasep.cli, sys; print('scipy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(opentasep.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


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
                "--limit-count", "8000", "--n-steps", "128", "--seed", "7")
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
                         "--n-steps", "128", "--seed", str(seed), "--out", str(tmp_path))
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

    def test_density(self, capsys):
        code, out, _ = run(capsys, "ldp", "density", "--r", "0.5", "--a", "2", "--b", "2")
        payload = json.loads(out)
        assert abs(payload["rate"]) <= 1e-12

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
