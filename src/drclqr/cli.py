"""File ingestion, the H-sweep experiment, and the command-line interface.

System files are strict JSON: keys "A", "B", "Q", "R", "S" (optionally "K0"),
each a row-major array of arrays of finite JSON numbers (a string, a boolean
or an integer beyond the double range is refused).  Unknown keys are
rejected unless --lax is passed, so a typo'd weight name cannot silently turn
into a default, and a key given twice is refused, so a stray copy of a
matrix cannot silently replace the first.

A file's K0 is applied by the commands that need a stable plant, and only
by them: sweep, drc, cost --h and simulate --h solve the pre-stabilized
system transform(sys, K0).transformed, whose optimal gain is K - K0, so an
unstable plant with a stabilizing K0 is a valid input to each.  On such a
file drc prints L1= as recover_gain(K0, L1), which approximates the plant's
optimal gain K; its solve_residual and cost are the transformed system's,
whose cost is the plant's under u = K0 x + v.  On a file without a K0 the
four commands refuse an unstable A with :class:`Unstable`, before they
solve anything.  validate, dare, and cost and simulate without --h solve
the plant as loaded.

Every command that needs the optimal order-H DRC reads it off the
finite-horizon Riccati recursion: sweep and cost --h take every order's
gaps from :func:`drclqr.drc.order_gaps`, simulate --h takes the policy from
:func:`drclqr.drc.optimal_drc`, and drc --h takes both its policy and its
cost from one order_gaps call, the policy built from its gains as
optimal_drc builds it.  drc prints that policy's L1; its solve_residual is
||M L + J|| against the paper's assembled equation, a check of the
recursion, and its cost is trace_P plus the order-H cost gap, the cost_drc
that cost --h prints.

The sweep (one row per order H) is the package's headline experiment: it
measures how fast the first DRC block converges to the optimal gain and
checks the measurement against the certified bounds, emitting CSV with the
fixed header

    H,err_L1_K,bound_thm1,cost_gap,bound_perf,wall_ms

followed by a trailer line `# slope=... rho=... tau=...` carrying the fitted
log-linear decay rate and the certificate constants.  All numeric output uses
12 significant digits; timing lives only in the wall_ms column.  The sweep
is a table of columns, one (H_max,) array per CSV column: it reads every
order's gaps off one closed form of the finite-horizon Riccati recursion
(see :func:`drclqr.drc.order_gaps`), evaluates every order's gain error in
one :func:`drclqr.model.spectral_norm` call and every order's bounds in one
call per bound.  wall_ms is one value per sweep, the 1/H_max share of that
one timed ``spectral_norm`` call, printed on every row; the shared closed
form is in no row.

Exit codes: 0 success, 1 domain error (bad math, bad file, an --out path that
cannot be written), 2 usage error.  Out-of-range numbers (--h or --h-max below
1, a negative --burn-in or --seed, a simulate --seed of 2**128 or more,
--steps not above --burn-in, a witness --n, --h or --t below 1, a witness --h
above --n or a --t below --h) are usage errors.  sweep opens --out before it
solves anything, so an unwritable path fails at once.  It writes the CSV over
the file's old bytes and then cuts a regular file to the CSV's length, so a
sweep that fails after the open leaves the file empty.  The open does not
empty the file: a sweep killed outright (SIGKILL, power loss) before it
writes leaves the previous contents in place, not an empty file.
The argument parser is built once per process: repeated dispatch calls in
one interpreter share it, and each parse fills a fresh namespace.
The solver modules (riccati, cost, bounds, prestabilize) are imported inside
the commands and functions that use them, so a command loads only what it
runs: validate loads none of them.

Set DRC_LQR_LOG to info or debug to print diagnostics on stderr, one
``drclqr: INFO: <message>`` line each; debug prints the same lines as info.
error, the default, prints none, and any other value prints one warning per
dispatch and is read as error.  The result stream stays clean.  The lines
are printed directly, not through the stdlib logging module: there is no
``logging.getLogger("drclqr")`` logger to attach handlers to, and a library
call of :func:`run_sweep` prints them under the same setting.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys as _sys
import time
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .drc import DRCPolicy, assemble, optimal_drc, order_gaps, policy_from_gains
from .exceptions import DimensionMismatch, DrclqrError, InvalidHorizon, ParseError, Unstable
from .lyapunov import gramian
from .model import LQRSystem, joint_certificate, spectral_norm, spectral_radius, validate_system

__all__ = [
    "SweepResult",
    "load_system",
    "load_system_file",
    "save_system",
    "run_sweep",
    "write_csv",
    "dispatch",
    "main",
]

CSV_HEADER = "H,err_L1_K,bound_thm1,cost_gap,bound_perf,wall_ms"

_REQUIRED_KEYS = ("A", "B", "Q", "R", "S")
_OPTIONAL_KEYS = ("K0",)
# The types json.load gives a JSON number; bool is a type of its own.
_NUMBER_TYPES = {int, float}


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _fmt_matrix(M: np.ndarray) -> str:
    rows = ["[" + ", ".join(_fmt(v) for v in row) + "]" for row in np.atleast_2d(M)]
    return "[" + "; ".join(rows) + "]"


# ---------------------------------------------------------------------------
# System files
# ---------------------------------------------------------------------------

def _reject_constant(token):
    raise ParseError(f"non-finite number {token!r} in system file")


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict, refusing a key that appears twice (json keeps the last silently)."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ParseError(f"duplicate key {key!r} in system file")
        doc[key] = value
    return doc


def _parse_matrix(key: str, value) -> np.ndarray:
    if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
        raise ParseError(f"field {key!r} must be a non-empty array of arrays")
    if not set(map(type, chain.from_iterable(value))) <= _NUMBER_TYPES:
        entry = next(x for x in chain.from_iterable(value) if type(x) not in _NUMBER_TYPES)
        raise ParseError(f"field {key!r} has entry {entry!r}, which is not a JSON number")
    try:
        arr = np.asarray(value, dtype=float)
    except OverflowError as exc:
        raise ParseError(f"field {key!r} has an integer too large for a float") from exc
    except ValueError as exc:
        raise ParseError(f"field {key!r} is not a rectangular matrix: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"field {key!r} contains non-finite entries")
    return arr


def load_system_file(path, lax: bool = False):
    """Parse a system file; returns (LQRSystem, K0-or-None), validated."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object with keys {_REQUIRED_KEYS}")

    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise ParseError(f"{path}: missing required keys {missing}")
    extra = sorted(set(doc) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS))
    if extra and not lax:
        raise ParseError(f"{path}: unknown keys {extra} (pass --lax to ignore)")

    mats = {k: _parse_matrix(k, doc[k]) for k in _REQUIRED_KEYS}
    sys_ = LQRSystem(A=mats["A"], B=mats["B"], Q=mats["Q"], R=mats["R"], S=mats["S"])
    validate_system(sys_)

    K0 = None
    if "K0" in doc:
        K0 = _parse_matrix("K0", doc["K0"])
        _check_k0(sys_, K0)
    return sys_, K0


def _check_k0(sys_: LQRSystem, K0: np.ndarray):
    """Raise :class:`DimensionMismatch` unless K0 is a finite n_u x n_x gain."""
    if K0.shape != (sys_.n_u, sys_.n_x):
        raise DimensionMismatch(f"field 'K0' has shape {K0.shape}, expected {(sys_.n_u, sys_.n_x)}")
    if not np.all(np.isfinite(K0)):
        raise DimensionMismatch("field 'K0' contains non-finite entries")


def load_system(path, lax: bool = False) -> LQRSystem:
    """Parse a system file, dropping any embedded K0."""
    return load_system_file(path, lax=lax)[0]


def save_system(sys_: LQRSystem, path, K0=None):
    """Write a system file that re-loads bit-identically.

    json serializes floats via repr, which round-trips every finite double
    exactly, so load(save(sys)) compares equal entry for entry.  A K0 the
    loader would refuse (wrong shape, non-finite entries) raises
    :class:`DimensionMismatch` before the file is opened.
    """
    doc = {k: getattr(sys_, k).tolist() for k in _REQUIRED_KEYS}
    if K0 is not None:
        K0 = np.atleast_2d(np.asarray(K0, dtype=float))
        _check_k0(sys_, K0)
        doc["K0"] = K0.tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# The sweep experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepResult:
    """The sweep as a table of columns: entry H - 1 of each array is order H.

    ``err_L1_K``, ``bound_thm1``, ``cost_gap`` and ``bound_perf`` are the
    CSV's per-order columns as (H_max,) float arrays; ``wall_ms`` is one
    value for the whole sweep, printed on every row.
    """

    err_L1_K: np.ndarray
    bound_thm1: np.ndarray
    cost_gap: np.ndarray
    bound_perf: np.ndarray
    wall_ms: float
    slope: float
    tau: float
    rho: float


def _fit_slope(errs: np.ndarray) -> float:
    """Least-squares slope of ln(err) vs H over the positive errors, preferring the settled tail H >= 5."""
    H = np.arange(1, len(errs) + 1)
    pts = errs > 0.0
    if np.count_nonzero(pts & (H >= 5)) >= 2:
        pts &= H >= 5
    if np.count_nonzero(pts) < 2:
        return float("nan")
    return float(np.polyfit(H[pts], np.log(errs[pts]), 1)[0])


def run_sweep(sys_: LQRSystem, H_max: int) -> SweepResult:
    """Measure gain-gap and cost-gap decay for H = 1..H_max against the bounds.

    The plant must be stable (the certificate raises :class:`Unstable` on an
    unstable A); an unstable plant is swept through the transformed system
    of :func:`drclqr.prestabilize.transform`, as the CLI does for a file
    with a K0.  One joint certificate for
    (A, A+BK) is computed up front and every order's bounds come from it in
    one call per bound, so every bound shares the same constants.

    The optimal order-H DRC is the finite-horizon Riccati recursion from
    P_0 = G, so every order's gain gap L_1^{(H)} - K and cost gap
    trace(P_H - P) come from one closed form of that recursion
    (:func:`drclqr.drc.order_gaps`), with no system assembled or factored.
    The gain errors ||L_1^{(H)} - K||_2 of all orders come from one
    ``spectral_norm`` call on their stack; wall_ms is the 1/H_max share of
    that call's wall time, one value for the whole sweep.
    """
    from .bounds import BoundInputs, cost_gap_bound, gain_gap_bound
    from .riccati import solve_dare

    if H_max < 1:
        raise InvalidHorizon(f"H_max must be >= 1, got {H_max}")

    sol = solve_dare(sys_)
    _log_info(f"DARE solved: {sol.iterations} doubling steps, residual {sol.residual_norm:.3e}")
    cert = joint_certificate(sys_.A, sys_.A + sys_.B @ sol.K)
    _log_info(f"joint certificate: tau={cert.tau:.6g} rho={cert.rho:.6g} (method={cert.method}, k_max={cert.k_max})")
    inp = BoundInputs.from_system(sys_, sol.K, cert)

    gain_gaps, cost_gaps = order_gaps(sys_, sol.P, sol.K, H_max)

    t0 = time.perf_counter()
    errs = spectral_norm(gain_gaps)
    wall_ms = (time.perf_counter() - t0) * 1e3 / H_max

    orders = np.arange(1, H_max + 1)
    return SweepResult(
        err_L1_K=errs,
        bound_thm1=gain_gap_bound(inp, orders),
        cost_gap=cost_gaps,
        bound_perf=cost_gap_bound(inp, orders),
        wall_ms=wall_ms,
        slope=_fit_slope(errs),
        tau=cert.tau,
        rho=cert.rho,
    )


def write_csv(result: SweepResult, stream):
    """Emit the sweep as CSV (LF endings), one row per order, plus the slope/certificate trailer."""
    stream.write(CSV_HEADER + "\n")
    wall = _fmt(result.wall_ms)
    columns = (result.err_L1_K, result.bound_thm1, result.cost_gap, result.bound_perf)
    for H, (err, bound_thm1, gap, bound_perf) in enumerate(zip(*columns), start=1):
        stream.write(f"{H},{_fmt(err)},{_fmt(bound_thm1)},{_fmt(gap)},{_fmt(bound_perf)},{wall}\n")
    stream.write(f"# slope={_fmt(result.slope)} rho={_fmt(result.rho)} tau={_fmt(result.tau)}\n")


# ---------------------------------------------------------------------------
# Command dispatch
# ---------------------------------------------------------------------------

def _ranged(low, high=None):
    """An argparse type: an int >= low and < high, else a usage error."""

    def parse(text: str):
        value = int(text)
        if not (value >= low and (high is None or value < high)):
            wanted = f">= {low}" + ("" if high is None else f" and < {high}")
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid <type> value" message
    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every dispatch."""
    p = argparse.ArgumentParser(
        prog="drclqr",
        description="LQR gains, disturbance-response controllers, and their approximation bounds",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("system", help="path to a JSON system file")
        sp.add_argument("--lax", action="store_true", help="ignore unknown keys in the system file")

    sp = sub.add_parser("validate", help="check the standing positive-definiteness assumption")
    add_common(sp)

    sp = sub.add_parser("dare", help="solve the Riccati equation, print the optimal gain")
    add_common(sp)

    sp = sub.add_parser("drc", help="solve for the optimal H-order controller")
    add_common(sp)
    sp.add_argument("--h", type=_ranged(1), required=True, metavar="H", help="controller order")

    sp = sub.add_parser("cost", help="optimal average cost, optionally vs an H-order controller")
    add_common(sp)
    sp.add_argument("--h", type=_ranged(1), metavar="H", help="also price the optimal H-order controller")

    sp = sub.add_parser("sweep", help="H-sweep of gain/cost gaps against the certified bounds (CSV)")
    add_common(sp)
    sp.add_argument("--h-max", type=_ranged(1), default=30, help="largest controller order (default 30)")
    sp.add_argument("--out", default=None, help="write CSV here instead of stdout")

    sp = sub.add_parser("simulate", help="Monte-Carlo cost of the optimal gain (or DRC with --h)")
    add_common(sp)
    sp.add_argument("--h", type=_ranged(1), metavar="H", help="simulate the optimal H-order controller")
    sp.add_argument("--steps", type=int, default=200000, help="rollout length (default 200000)")
    sp.add_argument("--burn-in", type=_ranged(0), default=1000, help="discarded prefix (default 1000)")
    # the seed keys numpy's Philox generator, whose keys lie below 2**128
    sp.add_argument("--seed", type=_ranged(0, 2**128), default=0, help="noise seed (default 0)")

    sp = sub.add_parser("witness", help="covariance lower bound on the hard plant (no system file)")
    sp.add_argument("--n", type=_ranged(1), required=True, help="state dimension")
    sp.add_argument("--h", type=_ranged(1), required=True, metavar="H", help="controller order (1 <= H <= n)")
    sp.add_argument("--t", type=_ranged(1), required=True, help="time index (t >= H)")
    sp.add_argument("--seed", type=_ranged(0), default=0, help="seed for the random policy")

    return p


def _cmd_validate(args) -> int:
    sys_ = load_system(args.system, lax=args.lax)
    report = validate_system(sys_)
    print(f"accepted= {str(report.accepted).lower()}")
    print(f"lambda_min_joint= {_fmt(report.lambda_min_joint)}")
    print(f"lambda_min_Q= {_fmt(report.lambda_min_Q)}")
    print(f"lambda_min_R= {_fmt(report.lambda_min_R)}")
    print(f"n_x= {sys_.n_x}")
    print(f"n_u= {sys_.n_u}")
    return 0


def _cmd_dare(args) -> int:
    from .riccati import solve_dare

    sys_ = load_system(args.system, lax=args.lax)
    sol = solve_dare(sys_)
    print(f"K= {_fmt_matrix(sol.K)}")
    print(f"trace_P= {_fmt(sol.trace_P)}")
    print(f"residual= {_fmt(sol.residual_norm)}")
    print(f"iterations= {sol.iterations}")
    return 0


def _stable_problem(args):
    """The stable problem a DRC command solves, and the file's K0 (or None).

    A file with a K0 poses its pre-stabilized system, whose optimal gain is
    K - K0; a file without one poses its plant as loaded, which must then be
    stable, or the command raises :class:`Unstable` naming the missing K0.
    """
    sys_, K0 = load_system_file(args.system, lax=args.lax)
    if K0 is not None:
        from .prestabilize import transform

        return transform(sys_, K0).transformed, K0
    if (sr := spectral_radius(sys_.A)) >= 1.0:
        raise Unstable(f"A has spectral radius {sr:.6g} >= 1; a pre-stabilizing K0 is required")
    return sys_, None


def _cmd_drc(args) -> int:
    from .prestabilize import recover_gain
    from .riccati import solve_dare

    sys_, K0 = _stable_problem(args)
    sol = solve_dare(sys_)
    # one reading of the Riccati recursion gives the policy and its cost gap
    gain_gaps, cost_gaps = order_gaps(sys_, sol.P, sol.K, args.h)
    policy = policy_from_gains(sys_, sol.K + gain_gaps)
    # the recursion's policy checked against the paper's equation
    mats = assemble(sys_, gramian(sys_.A, sys_.Q), args.h)
    residual = spectral_norm(mats.M @ policy.stacked() + mats.J)
    print(f"H= {policy.H}")
    print(f"L1= {_fmt_matrix(policy.first if K0 is None else recover_gain(K0, policy.first))}")
    print(f"solve_residual= {_fmt(residual)}")
    print(f"cost= {_fmt(sol.trace_P + cost_gaps[-1])}")
    return 0


def _cmd_cost(args) -> int:
    from .cost import cost_of_gain
    from .riccati import solve_dare

    sys_ = load_system(args.system, lax=args.lax) if args.h is None else _stable_problem(args)[0]
    sol = solve_dare(sys_)
    gain_cost = cost_of_gain(sys_, sol.K).value
    # the optimal order-H cost is trace(P_H): its gap is read off the Riccati recursion
    gap = None if args.h is None else order_gaps(sys_, sol.P, sol.K, args.h)[1][args.h - 1]
    print(f"trace_P= {_fmt(sol.trace_P)}")
    print(f"cost_gain= {_fmt(gain_cost)}")
    if gap is not None:
        print(f"cost_drc= {_fmt(sol.trace_P + gap)}")
        print(f"gap= {_fmt(gap)}")
    return 0


def _cmd_sweep(args) -> int:
    sys_, _ = _stable_problem(args)
    if args.out is None:
        write_csv(run_sweep(sys_, args.h_max), _sys.stdout)
        return 0
    # written over in place and cut to length after: emptying the file and
    # rewriting it in one open makes ext4 allocate blocks and start writeback
    # at close, about 0.4 ms per sweep
    with open(os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8", newline="\n") as fh:
        try:
            write_csv(run_sweep(sys_, args.h_max), fh)
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    _log_info(f"wrote {args.h_max} rows to {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    from .cost import simulate
    from .riccati import solve_dare

    sys_ = load_system(args.system, lax=args.lax) if args.h is None else _stable_problem(args)[0]
    sol = solve_dare(sys_)
    controller = sol.K if args.h is None else optimal_drc(sys_, sol.P, sol.K, args.h)
    label = "gain" if args.h is None else f"drc_H{args.h}"
    report = simulate(sys_, controller, steps=args.steps, burn_in=args.burn_in, seed=args.seed)
    print(f"controller= {label}")
    print(f"value= {_fmt(report.value)}")
    print(f"std_error= {_fmt(report.std_error)}")
    print(f"steps= {args.steps}")
    print(f"burn_in= {args.burn_in}")
    print(f"seed= {args.seed}")
    return 0


def _cmd_witness(args) -> int:
    from .bounds import instability_witness

    rng = np.random.default_rng(args.seed)
    policy = DRCPolicy(blocks=rng.uniform(-1.0, 1.0, (args.h, 1, args.n)))
    lower, holds, cov = instability_witness(args.n, args.h, policy, args.t)
    print(f"n= {args.n}")
    print(f"H= {args.h}")
    print(f"t= {args.t}")
    print(f"lower_bound_trace= {_fmt(np.trace(lower))}")
    print(f"holds= {str(holds).lower()}")
    # diagnostic only: full PSD domination of the covariance is not claimed
    print(f"lambda_min_cov_minus_bound= {_fmt(np.linalg.eigvalsh(cov - lower)[0])}")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "dare": _cmd_dare,
    "drc": _cmd_drc,
    "cost": _cmd_cost,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "witness": _cmd_witness,
}

_LOG_LEVELS = ("debug", "error", "info")


def _log_level() -> str:
    return os.environ.get("DRC_LQR_LOG", "error").strip().lower()


def _log_info(message: str):
    """Print one diagnostic line to stderr when DRC_LQR_LOG is info or debug."""
    if _log_level() in ("info", "debug"):
        print(f"drclqr: INFO: {message}", file=_sys.stderr)


def dispatch(argv) -> int:
    """Run one CLI invocation; returns the process exit code.

    The parser is built on the first call and reused by every later one in
    the process; each parse fills a fresh namespace, so no option carries
    over from one call to the next.
    """
    if (level := _log_level()) not in _LOG_LEVELS:
        print(f"warning: DRC_LQR_LOG={level!r} not in {list(_LOG_LEVELS)}; using 'error'", file=_sys.stderr)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "simulate" and args.steps <= args.burn_in:
            parser.error(f"argument --steps: must exceed --burn-in, got {args.steps} <= {args.burn_in}")
        if args.command == "witness" and args.h > args.n:
            parser.error(f"argument --h: must be <= --n, got {args.h} > {args.n}")
        if args.command == "witness" and args.t < args.h:
            parser.error(f"argument --t: must be >= --h, got {args.t} < {args.h}")
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (DrclqrError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return 1


def main():
    raise SystemExit(dispatch(_sys.argv[1:]))


if __name__ == "__main__":
    main()
