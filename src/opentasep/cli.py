"""Command-line surface: stationary, verify, sample, fluct, ldp, phase.

Conventions:
  * exit codes: 0 success, 1 usage, 2 domain, 3 resource cap,
    4 verification failure;
  * stderr carries human diagnostics, stdout and files carry machine output;
  * every stochastic command is a pure function of (config, seed);
  * flags > config file > defaults; the config file is flat "key = value"
    lines, keys matching long option names;
  * each command imports only the modules it runs, so `phase`,
    `ldp density` and `ldp rate` start without NumPy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, textio
from .core import (
    DomainError,
    NumericConsistencyError,
    ResourceLimitError,
    check_size,
    normalization_K,
    params_from_ab,
    params_from_rates,
    params_from_scaling,
    phase_info,
    rate_density,
    rate_density_variational,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_RESOURCE = 3
EXIT_VERIFY = 4

DEFAULT_GRID = ((1.0, 1.0), (0.5, 0.5), (2.0, 1.0), (1.0, 3.0), (3.0, 3.0),
                (0.3, 0.45), (1.3, 1.7))
# verify's pass thresholds on the worst error of each route over the grid
TOLERANCES = {"marginal": 1e-10, "identity": 1e-12, "matrix": 1e-10, "generator": 1e-10}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _add_param_options(p: _Parser, need_n: bool = False) -> None:
    p.add_argument("--n", type=int, required=need_n, help="system size")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--u", type=float, default=None)
    p.add_argument("--v", type=float, default=None)


def _resolve_params(args):
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
    if args.n is None:
        raise UsageError("--u/--v parameterization needs --n")
    return params_from_scaling(x, y, args.n)


def build_parser() -> _Parser:
    parser = _Parser(prog="opentasep", description=__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--threads", type=int, default=os.environ.get("TASEP_THREADS", "1"),
                        help="worker cap for sample-parallel commands "
                             "(default: TASEP_THREADS or 1)")
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("phase", help="phase-diagram classification")
    p.set_defaults(handler=cmd_phase)
    _add_param_options(p)

    p = sub.add_parser("stationary", help="exact stationary table and oracles")
    p.set_defaults(handler=cmd_stationary)
    _add_param_options(p, need_n=True)
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("verify", help="cross-route verification suite")
    p.set_defaults(handler=cmd_verify)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--out", default="verify_report.json")

    p = sub.add_parser("sample", help="exact pair-ensemble samples")
    p.set_defaults(handler=cmd_sample)
    _add_param_options(p, need_n=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default="samples.csv")
    p.add_argument("--binary", action="store_true",
                   help="write the compact binary stream instead of CSV")

    p = sub.add_parser("fluct", help="scaling-window fluctuation experiment")
    p.set_defaults(handler=cmd_fluct)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--limit-count", type=int, default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("ldp", help="rate-function calculators")
    lsub = p.add_subparsers(required=True)

    pr = lsub.add_parser("rate", help="height-profile rate function")
    pr.set_defaults(handler=cmd_ldp_rate)
    pr.add_argument("--profile", required=True, help="CSV of (x, f(x)) knot pairs")
    _add_param_options(pr)
    pr.add_argument("--variational", action="store_true",
                    help="also run the mesh minimization")
    pr.add_argument("--out", default=None, help="optional JSON output path")

    pd = lsub.add_parser("density", help="mean-density rate function")
    pd.set_defaults(handler=cmd_ldp_density)
    pd.add_argument("--r", type=float, required=True)
    _add_param_options(pd)
    pd.add_argument("--out", default=None)

    pc = lsub.add_parser("check", help="finite-size density-rate check")
    pc.set_defaults(handler=cmd_ldp_check)
    pc.add_argument("--r", type=float, required=True)
    _add_param_options(pc, need_n=True)
    pc.add_argument("--out", default=None)

    return parser


GLOBAL_VALUE_OPTIONS = ("--config", "--threads")


def _apply_config(argv: list[str]) -> list[str]:
    """Consume --config wherever it stands and insert the file's entries as
    flags ahead of the explicit ones, so explicit flags (parsed later) win:
    global options go first, the others right after the command tokens."""
    finder = _Parser(add_help=False, allow_abbrev=False)
    finder.add_argument("--config")
    known, out = finder.parse_known_args(argv)
    if known.config is None:
        return argv
    try:
        with open(known.config, "r", encoding="utf-8") as fh:
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
    if out[j] == "ldp" and (j + 1 == len(out) or out[j + 1].startswith("-")):
        return argv  # no ldp subcommand; the parser reports it or prints help
    pos = j + 2 if out[j] == "ldp" else j + 1
    return global_flags + out[:pos] + flags + out[pos:]


def _check_writable(path) -> None:
    """Refuse an output file that is a directory, or whose directory is
    missing or read-only, before any work starts; nothing is created or
    truncated here (main refuses an empty --out for every command)."""
    if os.path.isdir(path):
        raise UsageError(f"cannot write output: {path}: is a directory")
    folder = os.path.dirname(os.path.abspath(path))
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise UsageError(f"cannot write output: {path}: no writable directory {folder}")


def _emit(payload: dict, out_path=None) -> None:
    if out_path is not None:
        textio.write_json(out_path, payload)
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_phase(args) -> int:
    params = _resolve_params(args)
    info = phase_info(params.a, params.b)
    _emit({
        "alpha": params.alpha, "beta": params.beta,
        "a": params.a, "b": params.b,
        "region": info.region, "rho_bar": info.rho_bar,
        "fan": info.fan, "shock": info.shock, "coexistence": info.coexistence,
        "K": normalization_K(params.a, params.b),
    })
    return EXIT_OK


def _route_errors(n: int, params, rec) -> tuple[float, float | None]:
    """Largest relative error of the matrix-product weights and largest
    absolute error of the Markov generator's stationary law against the
    recursion table rec; the latter is None above the generator cap."""
    import numpy as np

    from . import exact_engine, markov_oracle

    mat = exact_engine.stationary_weights_matrix(n, params.a, params.b)
    mat_err = float(np.max(np.abs(mat.weights - rec.weights) / rec.weights))
    if n > markov_oracle.GENERATOR_CAP:
        return mat_err, None
    pi = markov_oracle.solve_stationary(
        markov_oracle.build_generator(n, params.alpha, params.beta))
    return mat_err, float(np.max(np.abs(pi - rec.probabilities())))


def cmd_stationary(args) -> int:
    from . import exact_engine

    params = _resolve_params(args)
    table = exact_engine.stationary_weights_recursive(args.n, params.a, params.b)
    mat_err, gen_err = _route_errors(args.n, params, table)
    if mat_err > TOLERANCES["matrix"]:
        print(f"warning: matrix-product route relative error {mat_err:.3g} above "
              f"verify's tolerance {TOLERANCES['matrix']:g}", file=sys.stderr)
    # written only once every route has run, so a refused rate leaves no file
    os.makedirs(args.out, exist_ok=True)
    weights_path = os.path.join(args.out, "weights.csv")
    table.write_csv(weights_path)
    summary = table.summary()
    summary["matrix_route_max_rel_error"] = mat_err
    if gen_err is not None:
        summary["generator_max_abs_error"] = gen_err
    summary["files"] = {"weights": weights_path}
    _emit(summary, os.path.join(args.out, "summary.json"))
    return EXIT_OK


def cmd_verify(args) -> int:
    import numpy as np

    from . import exact_engine

    check_size(args.n_max, exact_engine.PAIR_ENUMERATION_CAP)
    _check_writable(args.out)
    checks = []
    worst = dict.fromkeys(TOLERANCES, 0.0)
    for a, b in DEFAULT_GRID:
        for n in range(1, args.n_max + 1):
            rec = exact_engine.stationary_weights_recursive(n, a, b)
            # f_N(tau), the sum of pair weights over every second walk
            f_n = exact_engine.f_n_enumerate_all(n, a, b)
            errors = {"marginal": float(np.max(np.abs(f_n / f_n.sum() - rec.probabilities()))),
                      "identity": float(np.max(np.abs(f_n - rec.weights) / rec.weights))}
            errors["matrix"], errors["generator"] = _route_errors(n, params_from_ab(a, b), rec)
            checks.append({
                "n": n, "a": a, "b": b,
                "marginal_max_abs_error": errors["marginal"],
                "identity_max_rel_error": errors["identity"],
                "matrix_max_rel_error": errors["matrix"],
                "generator_max_abs_error": errors["generator"],
            })
            for key, err in errors.items():
                worst[key] = max(worst[key], err)
    passed = all(worst[key] <= tol for key, tol in TOLERANCES.items())
    _emit({"passed": passed, "tolerances": TOLERANCES, "worst": worst, "checks": checks},
          args.out)
    if not passed:
        print("verification failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_sample(args) -> int:
    from . import two_line_sampler

    params = _resolve_params(args)
    _check_writable(args.out)
    # refuse a bad count or oversized path storage before the table is built
    two_line_sampler.check_paths_bytes(args.count, args.n)
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


def _mesh_major_rows(mesh, values, mids):
    """Rows "x,i,value" of a (count, len(mesh)) matrix, mesh-major, each as
    one preformatted cell.  A column of W1 or W- is an integer over sqrt(N),
    so it holds at most 2N+1 distinct values: each is formatted once, found
    by its bit pattern so that -0.0 keeps its own text, and the ",i," cells
    in `mids` are shared by every column.  Each mesh point's rows come as
    one cell, joined by newlines, so a file takes one write per column."""
    import numpy as np

    for x, column in zip(mesh, values.T):
        bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
        texts = [str(value) for value in bits.view(np.float64).tolist()]
        head = str(x)
        yield ("\n".join([head + mid + texts[k] for mid, k in zip(mids, inverse.tolist())]),)


def _write_fluct_csvs(files: dict, mesh, scaled, ens) -> None:
    """tle_w1 and tle_wminus as (x, sample_id, value) rows, mesh-major, and
    limit as one (sample_id, weight, value at each mesh point) row per path."""
    mids = [f",{i}," for i in range(scaled.w1.shape[0])]
    for key, values in (("tle_w1", scaled.w1), ("tle_wminus", scaled.w_minus)):
        textio.write_csv(files[key], ["x", "sample_id", "value"],
                         _mesh_major_rows(mesh, values, mids))
    textio.write_csv(
        files["limit"],
        ["sample_id", "weight"] + [f"value_at_{x}" for x in mesh],
        ([i, w, *row]
         for i, (w, row) in enumerate(zip(ens.weights.tolist(), ens.omega_mesh.tolist()))),
    )


def cmd_fluct(args) -> int:
    from . import fluctuations

    limit_count = args.limit_count if args.limit_count is not None else 2 * args.count
    # refuse bad or oversized requests before sampling starts; the sampler
    # checks (u, v, n) and the count itself, and --out is made once it has drawn
    fluctuations.check_limit_request(args.u, args.v, limit_count)
    scaled = fluctuations.sample_scaled_processes(args.u, args.v, args.n, args.count,
                                                  args.seed, threads=args.threads)
    os.makedirs(args.out, exist_ok=True)
    ens = fluctuations.simulate_limit_exact(args.u, args.v, limit_count, args.seed + 1)
    if ens.degenerate:
        print(f"warning: importance-sampling ESS {ens.ess:.1f} below 1% of "
              f"{limit_count}", file=sys.stderr)
    files = {key: os.path.join(args.out, f"{key}.csv")
             for key in ("tle_w1", "tle_wminus", "limit")}
    _write_fluct_csvs(files, fluctuations.MESH, scaled, ens)
    per_mesh = {}
    for j, x in enumerate(fluctuations.MESH):
        rep = fluctuations.compare_distributions(
            scaled.w_minus[:, j], ens.omega_mesh[:, j], ens.weights
        )
        per_mesh[str(x)] = {"ks": rep.ks, "w1": rep.w1}
    bx = ens.sample_b_plus_x(args.count, args.seed + 2)
    full = fluctuations.compare_distributions(scaled.w1[:, -1], bx[:, -1])
    payload = {
        "n": args.n, "u": args.u, "v": args.v,
        "count": args.count, "limit_count": limit_count,
        "n_steps": ens.n_steps, "seed": args.seed,
        "kappa_hat": ens.kappa_hat, "ess": ens.ess, "degenerate": ens.degenerate,
        "w_minus_vs_limit": per_mesh,
        "w1_vs_b_plus_x_at_1": {"ks": full.ks, "w1": full.w1},
        "files": files,
    }
    _emit(payload, os.path.join(args.out, "summary.json"))
    return EXIT_OK


def _load_profile(path: str):
    from .ldp import Profile

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
            x, y = map(float, parts)
        except ValueError:
            raise UsageError(f"bad profile line, expected x,f(x): {line!r}")
        xs.append(x)
        ys.append(y)
    return Profile(tuple(xs), tuple(ys))


def cmd_ldp_rate(args) -> int:
    from . import ldp

    params = _resolve_params(args)
    f = _load_profile(args.profile)
    if not f.admissible:  # its rate is +inf, which JSON cannot carry
        x0, x1, s = next((x0, x1, s) for x0, x1, s in zip(f.knots, f.knots[1:], f.slopes)
                         if not ldp.Profile.linear(s).admissible)
        raise DomainError(f"profile slope {s:.6g} on [{x0!r}, {x1!r}] lies outside [0, 1]")
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
        var = ldp.rate_height_variational(f, params.a, params.b)
        payload["variational"] = {"rate": var.rate, "gap": var.gap}
    _emit(payload, args.out)
    return EXIT_OK


def cmd_ldp_density(args) -> int:
    params = _resolve_params(args)
    payload = {
        "r": args.r, "a": params.a, "b": params.b,
        "rate": rate_density(args.r, params.a, params.b),
        "variational_rate": rate_density_variational(args.r, params.a, params.b),
        "K": normalization_K(params.a, params.b),
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_ldp_check(args) -> int:
    from . import ldp

    params = _resolve_params(args)
    chk = ldp.finite_n_ldp_check(args.n, params.a, params.b, args.r)
    payload = {
        "n": chk.n, "r": chk.r, "a": params.a, "b": params.b,
        "empirical_rate": chk.empirical_rate,
        "closed_rate": chk.closed_rate,
        "gap": chk.gap,
    }
    _emit(payload, args.out)
    return EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # set before any command loads NumPy: no command makes a BLAS call large
    # enough to gain from OpenBLAS's thread pool, whose start-up costs CPU
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config(argv))
        if args.threads < 1:
            raise UsageError("--threads must be >= 1")
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise UsageError("--seed must be >= 0")
        if getattr(args, "out", None) == "":
            raise UsageError("cannot write output: empty path")
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # inputs are read under UsageError, so this is output
        print(f"usage error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except NumericConsistencyError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
