"""Traced child process of the opentasep benchmark.

Runs one CLI invocation in-process through `opentasep.cli.main`, with spans
around calls into each module's public functions, and writes the spans as
JSON when the invocation ends.  Spans are recorded by replacing module and
class attributes with timing wrappers; the program's own code is unchanged.

    python3 perfbench/tracer.py SPANS_JSON RUN_ID -- CLI_ARGS...
    python3 perfbench/tracer.py SPANS_JSON RUN_ID --threads-speedup N A B COUNT SEED

The second form times the same `sample_two_line` call at threads 1 and 2 and
records whether the two outputs are identical.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder.  A span is a dict with name, start, end
    (perf_counter seconds), parent (index into `spans` or None), run id and
    attrs (counts measured at the same boundary)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id, "attrs": {}}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace owner.attr by a wrapper that records span `name`; `note`
        maps (args, kwargs, result) to attrs stored on the span."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if note is not None:
                    rec["attrs"].update(note(args, kwargs, out))
            return out

        setattr(owner, attr, traced)

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "spans": self.spans, **extra}, fh)


def _file_bytes(pos: int):
    def note(args, kwargs, out):
        return {"bytes": os.path.getsize(args[pos])}
    return note


def instrument(tr: Tracer) -> None:
    """Wrap the public entry points of every opentasep layer."""
    from opentasep import (exact_engine, fluctuations, ldp, markov_oracle, textio,
                           two_line_sampler as tls)

    def table_note(args, kwargs, out):
        n = args[0]
        note = {"n": n, "cells": (n + 1) * (n + 2)}
        if not isinstance(out, float):
            note["bytes"] = out.log_l.nbytes + out.prob_up.nbytes + out.prob_flat.nbytes
        return note

    def paths_note(args, kwargs, out):
        return {"steps": args[1] * args[0].n_sites, "bytes": out.s1.nbytes + out.s2.nbytes}

    def functionals_note(args, kwargs, out):
        return {"steps": args[1] * args[0].n_sites}

    def limit_note(args, kwargs, out):
        return {"path_steps": out.count * out.n_steps, "paths": out.count, "ess": out.ess}

    def height_note(args, kwargs, out):
        return {"half": "shock" if args[1] * args[2] >= 1.0 else "fan", "gap": out.gap}

    tr.wrap(textio, "write_csv", "textio.write_csv", _file_bytes(0))
    tr.wrap(textio, "write_json", "textio.write_json", _file_bytes(0))
    for owner in (tls, fluctuations):
        tr.wrap(owner, "build_partition_table", "two_line_sampler.build_partition_table",
                table_note)
    tr.wrap(tls, "sample_two_line", "two_line_sampler.sample_two_line", paths_note)
    for owner in (tls, fluctuations):
        tr.wrap(owner, "sample_functionals", "two_line_sampler.sample_functionals",
                functionals_note)
    tr.wrap(tls.SamplePaths, "write_csv", "two_line_sampler.SamplePaths.write_csv",
            _file_bytes(1))
    tr.wrap(tls.SamplePaths, "write_binary", "two_line_sampler.SamplePaths.write_binary",
            _file_bytes(1))
    tr.wrap(fluctuations, "sample_scaled_processes", "fluctuations.sample_scaled_processes")
    tr.wrap(fluctuations, "simulate_limit_process", "fluctuations.simulate_limit_process",
            limit_note)
    tr.wrap(fluctuations, "compare_distributions", "fluctuations.compare_distributions")
    tr.wrap(fluctuations.LimitEnsemble, "sample_b_plus_x",
            "fluctuations.LimitEnsemble.sample_b_plus_x")
    tr.wrap(ldp, "rate_height_report", "ldp.rate_height_report")
    tr.wrap(ldp, "rate_height_variational", "ldp.rate_height_variational", height_note)
    tr.wrap(ldp, "rate_density", "ldp.rate_density")
    tr.wrap(ldp, "rate_density_variational", "ldp.rate_density_variational")
    for attr in ("stationary_weights_recursive", "stationary_weights_matrix",
                 "f_n_enumerate", "tle_enumerate", "verify_marginal_identity"):
        tr.wrap(exact_engine, attr, f"exact_engine.{attr}")
    tr.wrap(markov_oracle, "build_generator", "markov_oracle.build_generator")
    tr.wrap(markov_oracle, "solve_stationary", "markov_oracle.solve_stationary")


def run_cli(tr: Tracer, argv: list[str]) -> int:
    with tr.span("cli.import"):
        import opentasep.cli as cli
    instrument(tr)
    with tr.span("cli.main"):
        return cli.main(argv)


def threads_speedup(tr: Tracer, n: int, a: float, b: float, count: int, seed: int) -> dict:
    import numpy as np
    from opentasep import two_line_sampler as tls

    table = tls.build_partition_table(n, a, b)
    tls.sample_two_line(table, count, seed)  # untimed: the first call also pays page faults
    times, outs = {}, {}
    for threads in (1, 2):
        with tr.span(f"two_line_sampler.sample_two_line[threads={threads}]") as rec:
            outs[threads] = tls.sample_two_line(table, count, seed, threads=threads)
        times[threads] = rec["end"] - rec["start"]
    same = bool(np.array_equal(outs[1].s1, outs[2].s1) and np.array_equal(outs[1].s2, outs[2].s2))
    return {"threads1_s": times[1], "threads2_s": times[2], "identical": same}


def main(argv: list[str]) -> int:
    spans_path, run_id, mode, *rest = argv
    tr = Tracer(run_id)
    extra = {}
    try:
        if mode == "--threads-speedup":
            n, a, b, count, seed = rest
            extra["speedup"] = threads_speedup(tr, int(n), float(a), float(b), int(count),
                                               int(seed))
            return 0
        return run_cli(tr, rest)
    finally:
        tr.dump(spans_path, **extra)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
