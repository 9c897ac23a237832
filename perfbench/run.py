#!/usr/bin/env python3
"""opentasep benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding `src/opentasep`
and `BENCHMARK.json`).  The workload's inputs are made from the seed; each
invocation is a fresh `python -m opentasep.cli` process at the default
`--threads 1`, and a round (the workload's invocations, one after another) is
repeated, closed loop, until S seconds have passed.  Outputs are checked, and
every rerun must be byte-identical to the first round.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced rounds
with traced ones (the same invocations run in-process through
perfbench/tracer.py) and prints the per-layer metrics, including the tracing
overhead.  The last stdout line is one JSON object; a results file with every
invocation, digest and the environment is written under .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
PY = sys.executable
TRACER = os.path.join(HERE, "tracer.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")
HARD_LIMIT_S = 170.0     # the whole run, so that it exits within 180 s
MIN_SETUP_SAMPLES = 7
EMIT_SPANS = {"textio.write_csv", "textio.write_json",
              "two_line_sampler.SamplePaths.write_csv",
              "two_line_sampler.SamplePaths.write_binary"}
ROUTE_SPANS = {"exact_engine.stationary_weights_recursive",
               "exact_engine.stationary_weights_matrix"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("TASEP_THREADS", None)
    return env


class Runner:
    """Spawns children one at a time and measures each from spawn to exit."""

    def __init__(self, started: float):
        self.started = started
        self.env = child_env()
        self.killed = False

    def spawn(self, argv, cwd, stdout_path, stderr_path) -> dict:
        budget = max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(budget, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code < 0:
            self.killed = True
        return {"code": code, "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0}

    def setup_sample(self, work) -> float:
        """Wall time of a fresh interpreter that only imports opentasep.cli."""
        rec = self.spawn([PY, "-c", "import opentasep.cli"], work,
                         os.path.join(work, "setup.out"), os.path.join(work, "setup.err"))
        if rec["code"] != 0:
            with open(os.path.join(work, "setup.err"), encoding="utf-8", errors="replace") as fh:
                raise RuntimeError("import opentasep.cli failed:\n" + fh.read())
        return rec["wall_s"]


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def output_digests(round_dir, outputs) -> dict:
    digests = {}
    for out in outputs:
        path = os.path.join(round_dir, out)
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                digests[f"{out}/{name}"] = sha256_file(os.path.join(path, name))
        elif os.path.isfile(path):
            digests[out] = sha256_file(path)
    return digests


def run_round(runner, wl, work, k, traced) -> tuple[str, list[dict]]:
    round_dir = os.path.join(work, f"round{k}")
    os.makedirs(round_dir)
    recs = []
    for i, inv in enumerate(wl.invocations):
        run_id = f"{wl.name}-r{k}-i{i}"
        spans = os.path.join(work, "spans", run_id + ".json") if traced else None
        if traced:
            argv = [PY, TRACER, spans, run_id, "--", *inv.args]
        else:
            argv = [PY, "-m", "opentasep.cli", *inv.args]
        stdout = os.path.join(work, "stdio", run_id + ".out")
        rec = runner.spawn(argv, round_dir, stdout, os.path.join(work, "stdio", run_id + ".err"))
        rec.update(round=k, index=i, traced=traced, run=run_id, spans=spans,
                   args=list(inv.args),
                   digests={"stdout": sha256_file(stdout), **output_digests(round_dir, inv.outputs)})
        recs.append(rec)
        if runner.killed:
            break
    return round_dir, recs


def span_metrics(spans: list[dict]) -> dict:
    """Raw per-layer sums for one traced invocation."""
    dur = [s["end"] - s["start"] for s in spans]
    raw: dict[str, float] = {}

    def add(key, value):
        raw[key] = raw.get(key, 0.0) + value

    def keep_max(key, value):
        raw[key] = max(raw.get(key, 0.0), value)

    children = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children[s["parent"]] += dur[i]
    for i, s in enumerate(spans):
        name, attrs = s["name"], s["attrs"]
        parent = spans[s["parent"]]["name"] if s["parent"] is not None else ""
        add("self:" + name.split(".")[0], dur[i] - children[i])
        if name == "cli.import":
            add("import_s", dur[i])
        elif name == "cli.main":
            add("cli_self_s", dur[i] - children[i])
        elif name in EMIT_SPANS and parent not in EMIT_SPANS:
            add("emit_s", dur[i])
            add("emit_bytes", attrs["bytes"])
        elif name == "two_line_sampler.build_partition_table":
            add("table_s", dur[i])
            add("table_cells", attrs["cells"])
            keep_max("table_bytes", attrs.get("bytes", 0))
        elif name == "two_line_sampler.sample_two_line":
            add("paths_s", dur[i])
            add("sample_steps", attrs["steps"])
            keep_max("paths_bytes", attrs["bytes"])
        elif name == "two_line_sampler.sample_functionals":
            add("functionals_s", dur[i])
            add("sample_steps", attrs["steps"])
        elif name == "fluctuations.simulate_limit_process":
            add("limit_s", dur[i])
            add("limit_path_steps", attrs["path_steps"])
            add("limit_paths", attrs["paths"])
            add("limit_ess", attrs["ess"])
        elif name in ("fluctuations.compare_distributions",
                      "fluctuations.LimitEnsemble.sample_b_plus_x"):
            add("compare_s", dur[i])
        elif name == "ldp.rate_height_variational":
            add(f"height_{attrs['half']}_s", dur[i])
            keep_max("variational_gap", attrs["gap"])
        elif name == "ldp.rate_density_variational":
            add("density_var_s", dur[i])
        elif name == "exact_engine.f_n_enumerate":
            add("pair_sum_s", dur[i])
        elif name == "exact_engine.verify_marginal_identity":
            add("marginal_s", dur[i])
        elif name in ROUTE_SPANS and not parent.startswith("exact_engine."):
            add("routes_s", dur[i])
        elif name == "markov_oracle.build_generator":
            add("generator_s", dur[i])
        elif name == "markov_oracle.solve_stationary":
            add("stationary_s", dur[i])
    return raw


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(raws: list[dict]) -> dict:
    """Per-layer metrics of one traced round from its invocations' raw sums.
    A layer the round never entered reads 0."""
    r: dict[str, float] = {}
    for raw in raws:
        for key, value in raw.items():
            if key in ("table_bytes", "paths_bytes", "variational_gap"):
                r[key] = max(r.get(key, 0.0), value)
            elif key != "import_s":
                r[key] = r.get(key, 0.0) + value
    g = lambda key: r.get(key, 0.0)  # noqa: E731
    sample_s = g("paths_s") + g("functionals_s")
    m = {
        "cli.import_s": statistics.median(raw.get("import_s", 0.0) for raw in raws),
        "cli.self_s": g("cli_self_s"),
        "textio.emit_s": g("emit_s"),
        "textio.emit_bytes": g("emit_bytes"),
        "textio.emit_mb_per_s": _ratio(g("emit_bytes") / 1e6, g("emit_s")),
        "two_line_sampler.table_build_s": g("table_s"),
        "two_line_sampler.table_build_ns_per_cell": _ratio(g("table_s") * 1e9, g("table_cells")),
        "two_line_sampler.table_bytes": g("table_bytes"),
        "two_line_sampler.sample_s": sample_s,
        "two_line_sampler.sample_two_line_s": g("paths_s"),
        "two_line_sampler.sample_functionals_s": g("functionals_s"),
        "two_line_sampler.ns_per_sample_step": _ratio(sample_s * 1e9, g("sample_steps")),
        "two_line_sampler.paths_bytes": g("paths_bytes"),
        "fluctuations.limit_s": g("limit_s"),
        "fluctuations.ns_per_path_step": _ratio(g("limit_s") * 1e9, g("limit_path_steps")),
        "fluctuations.ess_ratio": _ratio(g("limit_ess"), g("limit_paths")),
        "fluctuations.compare_s": g("compare_s"),
        "ldp.height_variational_fan_s": g("height_fan_s"),
        "ldp.height_variational_shock_s": g("height_shock_s"),
        "ldp.variational_gap": g("variational_gap"),
        "ldp.density_variational_s": g("density_var_s"),
        "exact_engine.pair_sum_s": g("pair_sum_s"),
        "exact_engine.marginal_s": g("marginal_s"),
        "exact_engine.routes_s": g("routes_s"),
        "markov_oracle.generator_build_s": g("generator_s"),
        "markov_oracle.stationary_solve_s": g("stationary_s"),
    }
    for key, value in r.items():
        if key.startswith("self:"):
            m[f"self_s.{key[5:]}"] = value
    return m


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "cpu_model": None, "caches": {}, "commit": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), None)
    except OSError:
        pass
    cache_root = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(cache_root)):
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(cache_root, index, key), encoding="utf-8") as fh:
                    fields[key] = fh.read().strip()
            env["caches"][f"L{fields['level']} {fields['type']}"] = fields["size"]
    except OSError:
        pass
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            env["commit"] = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "opentasep")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            h.update(sha256_file(path).encode())
    env["source_sha256"] = h.hexdigest()
    return env


def median_of(values):
    return statistics.median(values) if values else 0.0


def measure(runner, wl, work, seconds, trace) -> tuple[list[float], list[dict]]:
    """Closed loop within `seconds`: untraced runs take one set-up sample and
    one round per turn; traced runs take an untraced and a traced round per
    turn, swapping their order every turn.  A turn starts only if a turn of
    the median length so far still ends within `seconds`; the first always
    runs."""
    setup, records, durations = [], [], []
    t0 = time.perf_counter()
    turn = 0
    while True:
        turn_start = time.perf_counter()
        if not trace:
            setup.append(runner.setup_sample(work))
        order = (False,) if not trace else ((False, True) if turn % 2 == 0 else (True, False))
        for traced in order:
            k = records[-1]["round"] + 1 if records else 0
            round_dir, recs = run_round(runner, wl, work, k, traced)
            records.extend(recs)
            if k > 0:
                shutil.rmtree(round_dir)  # round 0 stays for the output checks
            if runner.killed:
                break
        turn += 1
        now = time.perf_counter()
        durations.append(now - turn_start)
        if runner.killed or now - t0 + statistics.median(durations) > seconds:
            break
    while not trace and len(setup) < MIN_SETUP_SAMPLES and not runner.killed:
        setup.append(runner.setup_sample(work))
    return setup, records


def threads_speedup(runner, wl, work) -> dict:
    """Time the workload's sample_two_line call at threads 1 and 2 in one traced child."""
    spans = os.path.join(work, "spans", f"{wl.name}-threads-speedup.json")
    rec = runner.spawn([PY, TRACER, spans, f"{wl.name}-threads-speedup", "--threads-speedup",
                        *wl.speedup_args], work, os.path.join(work, "stdio", "speedup.out"),
                       os.path.join(work, "stdio", "speedup.err"))
    result = {"code": rec["code"]}
    if rec["code"] == 0:
        with open(spans, encoding="utf-8") as fh:
            result.update(json.load(fh)["speedup"])
    return result


def judge(wl, work, records) -> None:
    """Check round 0's outputs and require every other invocation to match
    round 0 byte for byte; sets each record's list of failure reasons."""
    ref = [r for r in records if r["round"] == 0]
    stdouts = []
    for r in ref:
        with open(os.path.join(work, "stdio", r["run"] + ".out"), encoding="utf-8",
                  errors="replace") as fh:
            stdouts.append(fh.read())
    sys.path.insert(0, SRC)  # the checks call the program's own reference functions
    errors = wl.check(os.path.join(work, "round0"), wl.invocations[:len(ref)], stdouts)
    for r in records:
        reasons = [f"exit code {r['code']}"] if r["code"] != 0 else []
        if r["index"] >= len(ref):
            reasons.append("not run in round 0")
        else:
            if r["digests"] != ref[r["index"]]["digests"]:
                reasons.append("output not byte-identical to round 0")
            reasons.extend(errors[r["index"]])
        r["failed"] = reasons


def traced_metrics(traced_rounds) -> dict:
    per_round = []
    for recs in traced_rounds:
        raws = []
        for r in recs:
            if os.path.isfile(r["spans"]):  # absent only if the child was killed
                with open(r["spans"], encoding="utf-8") as fh:
                    raws.append(span_metrics(json.load(fh)["spans"]))
        if raws:
            per_round.append(layer_metrics(raws))
    keys = sorted({key for m in per_round for key in m})
    return {key: median_of([m.get(key, 0.0) for m in per_round]) for key in keys}


def main(argv=None) -> int:
    started = time.perf_counter()
    # SIGTERM unwinds like an exception, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "opentasep", "cli.py")) or not os.path.isfile(spec_path):
        print("perfbench: run from a checkout holding src/opentasep and BENCHMARK.json",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    wl = workloads.build(args.workload, args.seed)

    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    work = os.path.join(OUT_DIR, "work", tag)
    for sub in ("stdio", "spans"):
        os.makedirs(os.path.join(work, sub))
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    results_path = os.path.join(OUT_DIR, "results", tag + ".json")
    spans_path = os.path.join(OUT_DIR, "results", tag + "-spans.json") if args.trace else None
    runner = Runner(started)
    try:
        runner.setup_sample(work)  # warm-up: byte-compile and fill the file cache, untimed
        setup, records = measure(runner, wl, work, args.seconds, args.trace)
        speedup = None
        if args.trace and wl.speedup_args and not runner.killed:
            speedup = threads_speedup(runner, wl, work)
        judge(wl, work, records)
        attempted = len(records) + (speedup is not None)
        failed = sum(1 for r in records if r["failed"])
        if speedup is not None and not (speedup["code"] == 0 and speedup["identical"]):
            failed += 1

        rounds = {}
        for r in records:
            rounds.setdefault(r["round"], []).append(r)
        untraced = [v for k, v in sorted(rounds.items()) if not v[0]["traced"]]
        traced_rounds = [v for k, v in sorted(rounds.items()) if v[0]["traced"]]
        metrics = {
            "wall_s": median_of([sum(r["wall_s"] for r in v) for v in untraced]),
            "cpu_s": median_of([sum(r["cpu_s"] for r in v) for v in untraced]),
            "peak_rss_mb": median_of([max(r["peak_rss_mb"] for r in v) for v in untraced]),
            "fail_ratio": failed / attempted,
        }
        if setup:
            metrics["setup_s"] = median_of(setup)
        if args.trace:
            metrics.update(traced_metrics(traced_rounds))
            metrics["trace.overhead_s"] = (
                median_of([sum(r["wall_s"] for r in v) for v in traced_rounds]) - metrics["wall_s"])
            metrics["two_line_sampler.threads2_speedup"] = (
                _ratio(speedup["threads1_s"], speedup["threads2_s"])
                if speedup and speedup["code"] == 0 else 0.0)
            metrics.update(wl.extra_metrics(os.path.join(work, "round0")))
            merged = []
            for r in records:
                if r["spans"] and os.path.isfile(r["spans"]):
                    with open(r["spans"], encoding="utf-8") as fh:
                        merged.append(json.load(fh))
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump(merged, fh)

        section = spec["per_layer" if args.trace else "end_to_end"]
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)),
                                          "unit": m["unit"]} for m in section}}
        counts = {"rounds": len(untraced), "invocations_per_round": len(wl.invocations),
                  "traced_rounds": len(traced_rounds), "setup_samples": len(setup)}
        with open(results_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "environment": environment(),
                       "inputs": [list(inv.args) for inv in wl.invocations],
                       "counts": counts, "setup_samples_s": setup, "metrics": metrics,
                       "threads_speedup": speedup, "invocations": records,
                       "spans_file": spans_path,
                       **{k: result[k] for k in ("correct", "attempted", "failed")}},
                      fh, indent=1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for r in records:
        if r["failed"]:
            print(f"failed: {r['run']}: {'; '.join(r['failed'])}", file=sys.stderr)
    print(f"{wl.name} seed={args.seed}: " + ", ".join(f"{v} {k}" for k, v in counts.items())
          + f"; results in {os.path.relpath(results_path, ROOT)}", file=sys.stderr)
    for name in sorted(metrics):
        print(f"  {name:45s} {metrics[name]:.6g}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
