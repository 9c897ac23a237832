"""Smoke test of the benchmark's tracer (perfbench/tracer.py).

The tracer wraps library functions by their attribute names, so renaming or
removing one breaks traced benchmark runs.  Each case runs the tracer on a
small invocation in a fresh process and checks its exit code and span names.
"""

import json
import os
import subprocess
import sys

import pytest

import opentasep

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
FAN_PROFILE = os.path.join(ROOT, "perfbench", "profiles", "c7_fan.csv")
SRC = os.path.dirname(os.path.dirname(opentasep.__file__))


def trace(tmp_path, *args):
    spans = tmp_path / "spans.json"
    proc = subprocess.run([sys.executable, TRACER, str(spans), "t", *args],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text())


CASES = {
    "sample": (["sample", "--n", "8", "--a", "0.5", "--b", "0.8", "--count", "50",
                "--seed", "1", "--out", "s.csv"],
               {"two_line_sampler.build_partition_table", "two_line_sampler.sample_two_line",
                "two_line_sampler.SamplePaths.write_csv", "textio.write_csv"}),
    "fluct": (["fluct", "--n", "64", "--u", "-1", "--v", "0.3", "--count", "200",
               "--seed", "1", "--out", "f"],
              {"fluctuations.sample_scaled_processes", "two_line_sampler.build_partition_table",
               "two_line_sampler.sample_functionals",
               "fluctuations.LimitEnsemble.sample_b_plus_x", "fluctuations.compare_distributions",
               "textio.write_csv"}),
    "verify": (["verify", "--n-max", "3", "--out", "v.json"],
               {"exact_engine.stationary_weights_recursive", "exact_engine.tle_enumerate",
                "exact_engine.stationary_weights_matrix", "markov_oracle.build_generator",
                "markov_oracle.solve_stationary"}),
    "ldp-rate": (["ldp", "rate", "--variational", "--profile", FAN_PROFILE,
                  "--a", "0.5", "--b", "0.8"],
                 {"ldp.rate_height_report", "ldp.rate_height_variational"}),
    # the density rates come from core, which the tracer does not wrap
    "ldp-density": (["ldp", "density", "--r", "0.3", "--a", "2", "--b", "1.5"], set()),
}


@pytest.mark.parametrize("case", list(CASES))
def test_traced_cli_run(tmp_path, case):
    argv, expected = CASES[case]
    names = {s["name"] for s in trace(tmp_path, "--", *argv)["spans"]}
    assert {"cli.import", "cli.main"} | expected <= names


def test_threads_speedup(tmp_path):
    out = trace(tmp_path, "--threads-speedup", "8", "0.5", "2", "100", "1")
    names = {s["name"] for s in out["spans"]}
    assert {"two_line_sampler.sample_two_line[threads=1]",
            "two_line_sampler.sample_two_line[threads=2]"} <= names
    assert out["speedup"]["identical"] is True
