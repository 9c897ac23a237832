"""Command-line surface: stationary, verify, sample, fluct, ldp, phase.

Conventions:
  * exit codes: 0 success, 1 usage, 2 domain, 3 resource cap,
    4 verification failure;
  * stderr carries human diagnostics, stdout and files carry machine output;
  * every stochastic command is a pure function of (config, seed);
  * flags > config file > defaults; the config file is flat "key = value"
    lines, keys matching long option names.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, textio
from .core import (
    DomainError,
    NumericConsistencyError,
    ResourceLimitError,
    VerificationError,
    normalization_K,
    params_from_ab,
    params_from_rates,
    params_from_scaling,
    phase_info,
)
from . import exact_engine, fluctuations, ldp, markov_oracle, two_line_sampler

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_RESOURCE = 3
EXIT_VERIFY = 4

DEFAULT_GRID = ((1.0, 1.0), (0.5, 0.5), (2.0, 1.0), (1.0, 3.0), (3.0, 3.0),
                (0.3, 0.45), (1.3, 1.7))


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _add_param_options(p: _Parser, with_n: bool = True) -> None:
    if with_n:
        p.add_argument("--n", type=int, default=None, help="system size")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--u", type=float, default=None)
    p.add_argument("--v", type=float, default=None)


def _resolve_params(args, n: int | None = None):
    groups = {
        "alpha/beta": (args.alpha, args.beta),
        "a/b": (args.a, args.b),
        "u/v": (args.u, args.v),
    }
    given = [name for name, pair in groups.items()
             if pair[0] is not None or pair[1] is not None]
    if len(given) != 1:
        raise UsageError(
            "exactly one parameterization among --alpha/--beta, --a/--b, --u/--v required"
        )
    name = given[0]
    x, y = groups[name]
    if x is None or y is None:
        raise UsageError(f"both components of {name} must be supplied")
    if name == "alpha/beta":
        return params_from_rates(x, y)
    if name == "a/b":
        return params_from_ab(x, y)
    if n is None:
        raise UsageError("--u/--v parameterization needs --n")
    return params_from_scaling(x, y, n)


def build_parser() -> _Parser:
    parser = _Parser(prog="opentasep", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker cap for sample-parallel commands "
                             "(default: TASEP_THREADS or 1)")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("phase", help="phase-diagram classification")
    _add_param_options(p)

    p = sub.add_parser("stationary", help="exact stationary table and oracles")
    _add_param_options(p)
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("verify", help="cross-route verification suite")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--out", default="verify_report.json")
    p.add_argument("--tol-marginal", type=float, default=1e-10)
    p.add_argument("--tol-identity", type=float, default=1e-12)
    p.add_argument("--tol-matrix", type=float, default=1e-10)
    p.add_argument("--tol-generator", type=float, default=1e-10)

    p = sub.add_parser("sample", help="exact pair-ensemble samples")
    _add_param_options(p)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="samples.csv")
    p.add_argument("--binary", action="store_true",
                   help="write the compact binary stream instead of CSV")

    p = sub.add_parser("fluct", help="scaling-window fluctuation experiment")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--u", type=float, default=None)
    p.add_argument("--v", type=float, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--limit-count", type=int, default=None)
    p.add_argument("--n-steps", type=int, default=1024)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("ldp", help="rate-function calculators")
    lsub = p.add_subparsers(dest="ldp_command")

    pr = lsub.add_parser("rate", help="height-profile rate function")
    pr.add_argument("--profile", required=False, default=None,
                    help="CSV of (x, f(x)) knot pairs")
    _add_param_options(pr)
    pr.add_argument("--variational", action="store_true",
                    help="also run the mesh minimization")
    pr.add_argument("--mesh", type=int, default=200,
                    help="variational mesh: uniform cells, plus the profile's knots")
    pr.add_argument("--out", default=None, help="optional JSON output path")

    pd = lsub.add_parser("density", help="mean-density rate function")
    pd.add_argument("--r", type=float, required=False, default=None)
    _add_param_options(pd)
    pd.add_argument("--out", default=None)

    pc = lsub.add_parser("check", help="finite-size density-rate check")
    pc.add_argument("--r", type=float, required=False, default=None)
    _add_param_options(pc)
    pc.add_argument("--out", default=None)

    return parser


GLOBAL_VALUE_OPTIONS = ("--config", "--threads")


def _split_config(argv: list[str]) -> tuple[str | None, list[str]]:
    """The config path, if any, and argv without its --config option."""
    for j, tok in enumerate(argv):
        if tok == "--config":
            if j + 1 >= len(argv):
                raise UsageError("--config needs a path")
            return argv[j + 1], argv[:j] + argv[j + 2:]
        if tok.startswith("--config="):
            return tok.split("=", 1)[1], argv[:j] + argv[j + 1:]
    return None, argv


def _apply_config(argv: list[str]) -> list[str]:
    """Consume --config wherever it stands and insert the file's entries as
    flags ahead of the explicit ones, so explicit flags (parsed later) win:
    global options go first, the others right after the command tokens."""
    path, out = _split_config(argv)
    if path is None:
        return argv
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    global_flags: list[str] = []
    flags: list[str] = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"bad config line: {line!r}")
        key, _, value = line.partition("=")
        flag = f"--{key.strip()}"
        target = global_flags if flag in GLOBAL_VALUE_OPTIONS else flags
        target.extend([flag, value.strip()])
    # locate the command token, skipping global flags and their values
    j = 0
    while j < len(out):
        tok = out[j]
        if tok in GLOBAL_VALUE_OPTIONS:
            j += 2
        elif tok.startswith("-"):
            j += 1
        else:
            break
    if j >= len(out):
        return global_flags + out  # no command; the parser will complain
    pos = j + 1
    if out[j] == "ldp" and pos < len(out) and not out[pos].startswith("-"):
        pos += 1
    return global_flags + out[:pos] + flags + out[pos:]


def _require(args, names) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise UsageError(f"--{name} is required")


def _emit(payload: dict, out_path=None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    sys.stdout.write(text + "\n")


def cmd_phase(args) -> int:
    params = _resolve_params(args, n=args.n)
    info = phase_info(params.a, params.b)
    _emit({
        "alpha": params.alpha, "beta": params.beta,
        "a": params.a, "b": params.b,
        "region": info.region, "rho_bar": info.rho_bar,
        "fan": info.fan, "shock": info.shock, "coexistence": info.coexistence,
        "K": normalization_K(params.a, params.b),
    })
    return EXIT_OK


def cmd_stationary(args) -> int:
    _require(args, ["n"])
    params = _resolve_params(args, n=args.n)
    n = args.n
    table = exact_engine.stationary_weights_recursive(n, params.a, params.b)
    os.makedirs(args.out, exist_ok=True)
    weights_path = os.path.join(args.out, "weights.csv")
    table.write_csv(weights_path)
    matrix = exact_engine.stationary_weights_matrix(n, params.a, params.b)
    rel = np.max(np.abs(matrix.weights - table.weights) / table.weights)
    summary = table.summary()
    summary["matrix_route_max_rel_error"] = float(rel)
    if n <= markov_oracle.GENERATOR_CAP:
        gen = markov_oracle.build_generator(n, params.alpha, params.beta)
        pi = markov_oracle.solve_stationary(gen)
        summary["generator_max_abs_error"] = float(
            np.max(np.abs(pi - table.probabilities()))
        )
    summary["files"] = {"weights": weights_path}
    _emit(summary, os.path.join(args.out, "summary.json"))
    return EXIT_OK


def cmd_verify(args) -> int:
    checks = []
    worst = {"marginal": 0.0, "identity": 0.0, "matrix": 0.0, "generator": 0.0}
    n_max = args.n_max
    if not 1 <= n_max <= exact_engine.PAIR_ENUMERATION_CAP:
        raise ResourceLimitError(
            f"--n-max must lie in 1..{exact_engine.PAIR_ENUMERATION_CAP}"
        )
    for a, b in DEFAULT_GRID:
        for n in range(1, n_max + 1):
            rec = exact_engine.stationary_weights_recursive(n, a, b)
            probs = rec.probabilities()
            # f_N(tau), the sum of pair weights over every second walk
            f_n = exact_engine.tle_enumerate(n, a, b).s1_marginal()
            marg_err = float(np.max(np.abs(f_n / f_n.sum() - probs)))
            ident_err = float(np.max(np.abs(f_n - rec.weights) / rec.weights))
            mat = exact_engine.stationary_weights_matrix(n, a, b)
            mat_err = float(np.max(np.abs(mat.weights - rec.weights) / rec.weights))
            params = params_from_ab(a, b)
            gen = markov_oracle.build_generator(n, params.alpha, params.beta)
            pi = markov_oracle.solve_stationary(gen)
            gen_err = float(np.max(np.abs(pi - probs)))
            checks.append({
                "n": n, "a": a, "b": b,
                "marginal_max_abs_error": marg_err,
                "identity_max_rel_error": ident_err,
                "matrix_max_rel_error": mat_err,
                "generator_max_abs_error": gen_err,
            })
            worst["marginal"] = max(worst["marginal"], marg_err)
            worst["identity"] = max(worst["identity"], ident_err)
            worst["matrix"] = max(worst["matrix"], mat_err)
            worst["generator"] = max(worst["generator"], gen_err)
    passed = (
        worst["marginal"] <= args.tol_marginal
        and worst["identity"] <= args.tol_identity
        and worst["matrix"] <= args.tol_matrix
        and worst["generator"] <= args.tol_generator
    )
    payload = {
        "passed": passed,
        "tolerances": {
            "marginal": args.tol_marginal, "identity": args.tol_identity,
            "matrix": args.tol_matrix, "generator": args.tol_generator,
        },
        "worst": worst,
        "checks": checks,
    }
    _emit(payload, args.out)
    if not passed:
        print("verification failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_sample(args) -> int:
    _require(args, ["n", "count", "seed"])
    params = _resolve_params(args, n=args.n)
    table = two_line_sampler.build_partition_table(args.n, params.a, params.b)
    paths = two_line_sampler.sample_two_line(table, args.count, args.seed,
                                             threads=args.threads)
    if args.binary:
        paths.write_binary(args.out)
    else:
        paths.write_csv(args.out)
    _emit({
        "n": args.n, "a": params.a, "b": params.b,
        "count": args.count, "seed": args.seed,
        "log_c": table.log_c, "file": args.out,
    })
    return EXIT_OK


def cmd_fluct(args) -> int:
    _require(args, ["n", "u", "v", "count", "seed"])
    limit_count = args.limit_count if args.limit_count is not None else 2 * args.count
    cfg = fluctuations.ScalingConfig(u=args.u, v=args.v, n=args.n)
    scaled = fluctuations.sample_scaled_processes(cfg, args.count, args.seed,
                                                  threads=args.threads)
    ens = fluctuations.simulate_limit_process(args.u, args.v, args.n_steps,
                                              limit_count, args.seed + 1,
                                              mesh=cfg.mesh)
    if ens.degenerate:
        print(f"warning: importance-sampling ESS {ens.ess:.1f} below 1% of "
              f"{limit_count}", file=sys.stderr)
    os.makedirs(args.out, exist_ok=True)
    tle_path = os.path.join(args.out, "tle_w1.csv")
    wminus_path = os.path.join(args.out, "tle_wminus.csv")
    limit_path = os.path.join(args.out, "limit.csv")
    for path, values in ((tle_path, scaled.w1), (wminus_path, scaled.w_minus)):
        textio.write_csv(
            path, ["x", "sample_id", "value"],
            ((x, i, value) for x, column in zip(cfg.mesh, values.T)
             for i, value in enumerate(column.tolist())),
        )
    textio.write_csv(
        limit_path,
        ["sample_id", "weight"] + [f"value_at_{x}" for x in cfg.mesh],
        ([i, w] + row.tolist()
         for i, (w, row) in enumerate(zip(ens.weights.tolist(), ens.omega_mesh))),
    )
    per_mesh = {}
    for j, x in enumerate(cfg.mesh):
        rep = fluctuations.compare_distributions(
            scaled.w_minus[:, j], ens.omega_mesh[:, j], ens.weights
        )
        per_mesh[str(x)] = {"ks": rep.ks, "w1": rep.w1}
    bx = ens.sample_b_plus_x(args.count, args.seed + 2)
    full = fluctuations.compare_distributions(scaled.w1[:, -1], bx[:, -1])
    payload = {
        "n": args.n, "u": args.u, "v": args.v,
        "count": args.count, "limit_count": limit_count,
        "n_steps": args.n_steps, "seed": args.seed,
        "kappa_hat": ens.kappa_hat, "ess": ens.ess, "degenerate": ens.degenerate,
        "w_minus_vs_limit": per_mesh,
        "w1_vs_b_plus_x_at_1": {"ks": full.ks, "w1": full.w1},
        "files": {"tle_w1": tle_path, "tle_wminus": wminus_path, "limit": limit_path},
    }
    _emit(payload, os.path.join(args.out, "summary.json"))
    return EXIT_OK


def _load_profile(path: str) -> ldp.Profile:
    xs, ys = [], []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read profile: {exc}")
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if parts[0].strip().lower() in ("x", "knot"):
            continue
        try:
            xs.append(float(parts[0]))
            ys.append(float(parts[1]))
        except (IndexError, ValueError):
            raise UsageError(f"bad profile line, expected x,f(x): {line!r}")
    return ldp.Profile(tuple(xs), tuple(ys))


def cmd_ldp(args) -> int:
    if args.ldp_command == "rate":
        _require(args, ["profile"])
        params = _resolve_params(args, n=args.n)
        f = _load_profile(args.profile)
        report = ldp.rate_height_report(f, params.a, params.b)
        info = phase_info(params.a, params.b)
        payload = {
            "profile_knots": list(zip(f.knots, f.values)),
            "a": params.a, "b": params.b,
            "region": report.region, "phase": info.region,
            "rate": report.rate,
            "K": normalization_K(params.a, params.b),
            "diagnostics": {"y_star": report.y_star,
                            "x1": report.x1, "x2": report.x2},
        }
        if args.variational:
            var = ldp.rate_height_variational(f, params.a, params.b, mesh=args.mesh)
            payload["variational"] = {"rate": var.rate, "gap": var.gap}
        _emit(payload, args.out)
        return EXIT_OK
    if args.ldp_command == "density":
        _require(args, ["r"])
        params = _resolve_params(args, n=args.n)
        payload = {
            "r": args.r, "a": params.a, "b": params.b,
            "rate": ldp.rate_density(args.r, params.a, params.b),
            "variational_rate": ldp.rate_density_variational(args.r, params.a, params.b),
            "K": normalization_K(params.a, params.b),
        }
        _emit(payload, args.out)
        return EXIT_OK
    if args.ldp_command == "check":
        _require(args, ["n", "r"])
        params = _resolve_params(args, n=args.n)
        chk = ldp.finite_n_ldp_check(args.n, params.a, params.b, args.r)
        payload = {
            "n": chk.n, "r": chk.r, "a": params.a, "b": params.b,
            "empirical_rate": chk.empirical_rate,
            "closed_rate": chk.closed_rate,
            "gap": chk.gap,
        }
        _emit(payload, args.out)
        return EXIT_OK
    raise UsageError("ldp needs a subcommand: rate, density, or check")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config(argv)
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required")
        if args.threads is None:
            args.threads = int(os.environ.get("TASEP_THREADS", "1"))
        if args.threads < 1:
            raise UsageError("--threads must be >= 1")
        handler = {
            "phase": cmd_phase,
            "stationary": cmd_stationary,
            "verify": cmd_verify,
            "sample": cmd_sample,
            "fluct": cmd_fluct,
            "ldp": cmd_ldp,
        }[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (VerificationError, NumericConsistencyError) as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
