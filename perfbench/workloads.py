"""Workload definitions and output checks for the opentasep benchmark.

A workload turns the benchmark seed into a fixed list of CLI invocations (one
"round"); the runner repeats the round until its time is up.  Checks read only
the program's public outputs (stdout JSON and the files it writes) and are
valid for any correct program, including one that consumes its random
streams differently, so they compare against mathematical facts and stated
tolerances, never against stored digests.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
PROFILES = os.path.join(HERE, "profiles")

LOG_C_TOL = 1e-10        # stdout log_c against build_partition_table(log_c_only=True)
C6_W1_CAP = 0.05         # C6's cap on W1 of W- at x = 1
C7_TOL = 1e-3            # C7's |closed - variational| cap, also used for the density rate


@dataclass(frozen=True)
class Invocation:
    """One `python -m opentasep.cli` call: its arguments and the files or
    directories (relative to the round directory) it writes."""

    args: tuple[str, ...]
    outputs: tuple[str, ...] = ()


def _no_metrics(round_dir) -> dict:
    return {}


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    # (round_dir, invocations, stdouts) -> one list of error strings per invocation
    check: Callable
    # arguments of tracer.py --threads-speedup, for a traced run; empty for none
    speedup_args: tuple[str, ...] = ()
    # round 0 directory -> layer metrics read from the program's outputs
    extra_metrics: Callable = _no_metrics


def _json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _sample_log_c_errors(payload, n, a, b):
    if not isinstance(payload, dict) or not isinstance(payload.get("log_c"), float):
        return ["stdout is not the sample summary with a float log_c"]
    from opentasep.two_line_sampler import build_partition_table

    ref = build_partition_table(n, a, b, log_c_only=True)
    if not abs(payload["log_c"] - ref) <= LOG_C_TOL:
        return [f"log_c {payload['log_c']!r} differs from the O(N) recursion {ref!r}"]
    return []


def _check_sample_csv(path, n, count):
    import numpy as np

    with open(path, "rb") as fh:
        header = fh.readline()
        body = fh.read()
    want = ",".join([f"s1_{j}" for j in range(1, n + 1)] + [f"s2_{j}" for j in range(1, n + 1)])
    if header != (want + "\n").encode():
        return ["CSV header is not s1_1..s1_N,s2_1..s2_N"]
    width = 4 * n  # 2N one-digit cells, 2N-1 commas, one newline
    if len(body) != count * width:
        return [f"CSV body has {len(body)} bytes, expected {count} rows of {width}"]
    cells = np.frombuffer(body, dtype=np.uint8).reshape(count, width)
    digits = cells[:, 0::2]
    seps = cells[:, 1::2]
    if not np.isin(digits, (ord("0"), ord("1"))).all():
        return ["CSV increments are not all 0/1"]
    if not ((seps[:, :-1] == ord(",")).all() and (seps[:, -1] == ord("\n")).all()):
        return ["CSV rows are not 2N comma-separated cells"]
    return []


def _check_sample_binary(path, n, count):
    import numpy as np

    row = 2 * ((n + 7) // 8)
    size = os.path.getsize(path)
    if size != 4 + count * row:
        return [f"binary file has {size} bytes, expected {4 + count * row}"]
    with open(path, "rb") as fh:
        head = np.frombuffer(fh.read(4), dtype="<i4")[0]
        body = np.frombuffer(fh.read(), dtype=np.uint8).reshape(count, 2, row // 2)
    if head != n:
        return [f"binary header n={head}, expected {n}"]
    pad = 8 * (row // 2) - n
    if pad and (body[:, :, -1] >> (8 - pad)).any():
        return ["binary padding bits are not zero"]
    return []


def sample_workload(name, n, a, b, count, seed, binary):
    out = "samples.bin" if binary else "samples.csv"
    args = ["sample", "--n", str(n), "--a", repr(a), "--b", repr(b),
            "--count", str(count), "--seed", str(seed), "--out", out]
    if binary:
        args.append("--binary")
    inv = Invocation(tuple(args), (out,))

    def check(round_dir, invocations, stdouts):
        errors = _sample_log_c_errors(_json(stdouts[0]), n, a, b)
        path = os.path.join(round_dir, out)
        if not os.path.isfile(path):
            return [errors + [f"{out} was not written"]]
        checker = _check_sample_binary if binary else _check_sample_csv
        return [errors + checker(path, n, count)]

    speedup = (str(n), repr(a), repr(b), str(count), str(seed))
    return Workload(name, (inv,), check, speedup_args=speedup)


FLUCT_KEYS = {
    "n": int, "u": float, "v": float, "count": int, "limit_count": int,
    "n_steps": int, "seed": int, "kappa_hat": float, "ess": float,
    "degenerate": bool, "w_minus_vs_limit": dict, "w1_vs_b_plus_x_at_1": dict,
    "files": dict,
}
FLUCT_MESH = ("0.25", "0.5", "0.75", "1.0")


def _line_count(path):
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def fluct_workload(n, u, v, count, seed):
    args = ("fluct", "--n", str(n), "--u", repr(u), "--v", repr(v),
            "--count", str(count), "--seed", str(seed), "--out", "fl")
    inv = Invocation(args, ("fl",))

    def check(round_dir, invocations, stdouts):
        summary_path = os.path.join(round_dir, "fl", "summary.json")
        if not os.path.isfile(summary_path):
            return [["fl/summary.json was not written"]]
        with open(summary_path, encoding="utf-8") as fh:
            text = fh.read()
        s = _json(text)
        if not isinstance(s, dict) or set(s) != set(FLUCT_KEYS):
            return [["summary.json keys differ from the documented schema"]]
        errors = [f"summary.json {k} is not {t.__name__}" for k, t in FLUCT_KEYS.items()
                  if not isinstance(s[k], t) or (t is int and isinstance(s[k], bool))]
        if errors:
            return [errors]
        if text != stdouts[0]:
            errors.append("stdout differs from summary.json")
        wm = s["w_minus_vs_limit"]
        if set(wm) != set(FLUCT_MESH) or not all(
                isinstance(wm[x].get(k), float) for x in FLUCT_MESH for k in ("ks", "w1")):
            return [errors + ["w_minus_vs_limit is not {ks, w1} at the mesh points"]]
        if not wm["1.0"]["w1"] < C6_W1_CAP:
            errors.append(f"W1 of W- at x=1 is {wm['1.0']['w1']!r}, C6 caps it at {C6_W1_CAP}")
        rows = {"tle_w1": count * len(FLUCT_MESH), "tle_wminus": count * len(FLUCT_MESH),
                "limit": s["limit_count"]}
        for key, want in rows.items():
            path = os.path.join(round_dir, s["files"].get(key, ""))
            if not os.path.isfile(path):
                errors.append(f"{key} CSV was not written")
            elif _line_count(path) != want + 1:
                errors.append(f"{key} CSV does not have {want} rows")
        return [errors]

    return Workload("fluct", (inv,), check)


LDP_HALVES = (("fan", 0.5, 0.8), ("shock", 2.0, 1.5))


def ldp_workload(seed):
    rng = random.Random(seed)
    invs = []
    for half, a, b in LDP_HALVES:
        profile = os.path.join(PROFILES, f"c7_{half}.csv")
        invs.append(Invocation(("ldp", "rate", "--profile", profile, "--a", repr(a),
                                "--b", repr(b), "--variational")))
    for half, a, b in LDP_HALVES:
        r = round(rng.uniform(0.05, 0.95), 6)
        invs.append(Invocation(("ldp", "density", "--r", repr(r), "--a", repr(a), "--b", repr(b))))

    def check(round_dir, invocations, stdouts):
        out = []
        for inv, text in zip(invocations, stdouts):
            p = _json(text)
            p = p if isinstance(p, dict) else {}
            closed = p.get("rate")
            if inv.args[1] == "rate":
                var = (p.get("variational") or {}).get("rate")
            else:
                var = p.get("variational_rate")
            if not (isinstance(closed, float) and isinstance(var, float)):
                out.append(["stdout lacks the closed and variational rates"])
            elif not abs(closed - var) <= C7_TOL:
                out.append([f"|closed - variational| = {abs(closed - var):.3g} > {C7_TOL}"])
            else:
                out.append([])
        return out

    return Workload("ldp-variational", tuple(invs), check)


def verify_workload():
    inv = Invocation(("verify", "--n-max", "11", "--out", "verify_report.json"),
                     ("verify_report.json",))

    def check(round_dir, invocations, stdouts):
        p = _json(stdouts[0])
        if not isinstance(p, dict) or p.get("passed") is not True:
            return [["verify report does not say passed: true"]]
        return [[]]

    def stationary_errors(round_dir):
        """Largest |generator - recursion| per N, from the verify report."""
        path = os.path.join(round_dir, "verify_report.json")
        if not os.path.isfile(path):
            return {}
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        worst = {}
        for c in report["checks"]:
            key = f"markov_oracle.stationary_err_n{c['n']}"
            worst[key] = max(worst.get(key, 0.0), float(c["generator_max_abs_error"]))
        return worst

    return Workload("verify", (inv,), check, extra_metrics=stationary_errors)


BUILDERS = {
    "sample-csv": lambda seed: sample_workload("sample-csv", 1000, 0.5, 0.8, 1000, seed,
                                               binary=False),
    "sample-binary": lambda seed: sample_workload("sample-binary", 6000, 2.0, 1.5, 4096, seed,
                                                  binary=True),
    "fluct": lambda seed: fluct_workload(2048, -1.0, 0.3, 20000, seed),
    "ldp-variational": ldp_workload,
    "verify": lambda seed: verify_workload(),
}
NAMES = tuple(BUILDERS)


def build(name: str, seed: int) -> Workload:
    """The workload `name` with inputs made from `seed`."""
    return BUILDERS[name](seed)
