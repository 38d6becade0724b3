"""File ingestion, the H-sweep experiment, and the command-line interface.

System files are strict JSON: keys "A", "B", "Q", "R", "S" (optionally "K0"),
each a row-major array of arrays of finite JSON numbers (a string, a boolean
or an integer beyond the double range is refused).  Unknown keys are
rejected unless --lax is passed, so a typo'd weight name cannot silently turn
into a default.

The sweep (one row per order H) is the package's headline experiment: it
measures how fast the first DRC block converges to the optimal gain and
checks the measurement against the certified bounds, emitting CSV with the
fixed header

    H,err_L1_K,bound_thm1,cost_gap,bound_perf,wall_ms

followed by a trailer line `# slope=... rho=... tau=...` carrying the fitted
log-linear decay rate and the certificate constants.  All numeric output uses
12 significant digits; timing lives only in the wall_ms column.  The sweep
solves every order at once, from one assembly, factorization and forward
substitution at H_max, and then evaluates every order's gain error in one
batched spectral-norm call; wall_ms is each row's 1/H_max share of that one timed
evaluation, so every row carries the same value and the shared solve is in
no row.

Exit codes: 0 success, 1 domain error (bad math, bad file, an --out path that
cannot be written), 2 usage error.  Out-of-range numbers (--h or --h-max below
1, a negative --burn-in or --seed, a simulate --seed of 2**128 or more,
--steps not above --burn-in, a witness --n, --h or --t below 1, a witness --h
above --n or a --t below --h) are usage errors.  sweep opens --out before it
solves anything, so an unwritable path fails at once; a sweep that fails
after that point leaves the file empty.
The argument parser is built once per process: repeated dispatch calls in
one interpreter share it, and each parse fills a fresh namespace.
Set DRC_LQR_LOG to error|info|debug to control diagnostics on stderr; the
result stream stays clean.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys as _sys
import time
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from .cost import cost_of_drc, cost_of_gain, simulate
from .drc import DRCPolicy, assemble, solve_drc, solve_drc_orders
from .exceptions import DimensionMismatch, DrclqrError, ParseError, Unstable
from .lyapunov import gramian
from .model import LQRSystem, joint_certificate, spectral_radius, validate_system
from .prestabilize import transform
from .riccati import solve_dare

__all__ = [
    "SweepRow",
    "SweepResult",
    "load_system",
    "load_system_file",
    "save_system",
    "run_sweep",
    "write_csv",
    "dispatch",
    "main",
]

log = logging.getLogger("drclqr")

CSV_HEADER = "H,err_L1_K,bound_thm1,cost_gap,bound_perf,wall_ms"

_REQUIRED_KEYS = ("A", "B", "Q", "R", "S")
_OPTIONAL_KEYS = ("K0",)


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


def _parse_matrix(key: str, value) -> np.ndarray:
    if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
        raise ParseError(f"field {key!r} must be a non-empty array of arrays")
    for entry in (x for row in value for x in row):
        if isinstance(entry, bool) or not isinstance(entry, (int, float)):
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
            doc = json.load(fh, parse_constant=_reject_constant)
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
class SweepRow:
    """One order's worth of sweep output; fields match the CSV columns."""

    H: int
    err_L1_K: float
    bound_thm1: float
    cost_gap: float
    bound_perf: float
    wall_ms: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    slope: float
    tau: float
    rho: float


def _fit_slope(rows) -> float:
    """Least-squares slope of ln(err) vs H, preferring the settled tail H >= 5."""
    pts = [(r.H, r.err_L1_K) for r in rows if r.err_L1_K > 0.0]
    tail = [(h, e) for h, e in pts if h >= 5]
    if len(tail) >= 2:
        pts = tail
    if len(pts) < 2:
        return float("nan")
    hs = np.array([h for h, _ in pts], dtype=float)
    es = np.log(np.array([e for _, e in pts]))
    return float(np.polyfit(hs, es, 1)[0])


def run_sweep(sys_: LQRSystem, H_max: int, K0=None) -> SweepResult:
    """Measure gain-gap and cost-gap decay for H = 1..H_max against the bounds.

    On an unstable plant a pre-stabilizing K0 is required; all quantities
    (gain, Gramian, certificate, bounds, gaps) are then computed on the
    transformed system, whose optimal gain is K - K0.  One joint certificate
    for (A, A+BK) is computed up front and reused for every H, so every bound
    shares the same constants.

    The order-H_max system is assembled and factored once; every order's
    first block and cost gap, trace(G) - sum_{k<=H} ||y_k||_F^2 - trace(P),
    are prefix sums of one forward substitution (see the drc module).  The
    gain errors ||L_1^{(H)} - K||_2 of all orders come from one stacked norm
    call, and each row's wall_ms is the 1/H_max share of that call's wall
    time.
    """
    if H_max < 1:
        raise ValueError(f"H_max must be >= 1, got {H_max}")
    work = sys_
    if K0 is not None:
        work = transform(sys_, K0).transformed
    elif spectral_radius(sys_.A) >= 1.0:
        raise Unstable("A has spectral radius >= 1; a pre-stabilizing K0 is required")

    sol = solve_dare(work)
    log.info("DARE solved: %d doubling steps, residual %.3e", sol.iterations, sol.residual_norm)
    G = gramian(work.A, work.Q)
    cert = joint_certificate(work.A, work.A + work.B @ sol.K)
    log.info(
        "joint certificate: tau=%.6g rho=%.6g (method=%s, k_max=%d)", cert.tau, cert.rho, cert.method, cert.k_max
    )
    inp = bounds_mod.BoundInputs.from_system(work, sol.K, cert)
    opt_cost = sol.trace_P

    first, saved = solve_drc_orders(assemble(work, G, H_max))
    gaps = float(np.trace(G.G)) - saved - opt_cost

    t0 = time.perf_counter()
    errs = np.linalg.norm(first - sol.K, 2, axis=(1, 2))
    wall_ms = (time.perf_counter() - t0) * 1e3 / H_max

    rows = [
        SweepRow(
            H=H,
            err_L1_K=float(errs[H - 1]),
            bound_thm1=bounds_mod.gain_gap_bound(inp, H),
            cost_gap=float(gaps[H - 1]),
            bound_perf=bounds_mod.cost_gap_bound(inp, H),
            wall_ms=wall_ms,
        )
        for H in range(1, H_max + 1)
    ]
    return SweepResult(rows=tuple(rows), slope=_fit_slope(rows), tau=cert.tau, rho=cert.rho)


def write_csv(result: SweepResult, stream):
    """Emit sweep rows as CSV (LF endings) plus the slope/certificate trailer."""
    stream.write(CSV_HEADER + "\n")
    for r in result.rows:
        stream.write(
            f"{r.H},{_fmt(r.err_L1_K)},{_fmt(r.bound_thm1)},{_fmt(r.cost_gap)},"
            f"{_fmt(r.bound_perf)},{_fmt(r.wall_ms)}\n"
        )
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
    sys_ = load_system(args.system, lax=args.lax)
    sol = solve_dare(sys_)
    print(f"K= {_fmt_matrix(sol.K)}")
    print(f"trace_P= {_fmt(sol.trace_P)}")
    print(f"residual= {_fmt(sol.residual_norm)}")
    print(f"iterations= {sol.iterations}")
    return 0


def _solved_policy(sys_: LQRSystem, H: int):
    G = gramian(sys_.A, sys_.Q)
    mats = assemble(sys_, G, H)
    policy = solve_drc(mats)
    return G, mats, policy


def _cmd_drc(args) -> int:
    sys_ = load_system(args.system, lax=args.lax)
    G, mats, policy = _solved_policy(sys_, args.h)
    residual = float(np.linalg.norm(mats.M @ policy.stacked() + mats.J, 2))
    print(f"H= {policy.H}")
    print(f"L1= {_fmt_matrix(policy.first)}")
    print(f"solve_residual= {_fmt(residual)}")
    print(f"cost= {_fmt(cost_of_drc(sys_, G, policy).value)}")
    return 0


def _cmd_cost(args) -> int:
    sys_ = load_system(args.system, lax=args.lax)
    sol = solve_dare(sys_)
    gain_cost = cost_of_gain(sys_, sol.K).value
    print(f"trace_P= {_fmt(sol.trace_P)}")
    print(f"cost_gain= {_fmt(gain_cost)}")
    if args.h is not None:
        G, _, policy = _solved_policy(sys_, args.h)
        drc_cost = cost_of_drc(sys_, G, policy).value
        print(f"cost_drc= {_fmt(drc_cost)}")
        print(f"gap= {_fmt(drc_cost - sol.trace_P)}")
    return 0


def _cmd_sweep(args) -> int:
    sys_, K0 = load_system_file(args.system, lax=args.lax)
    if args.out is None:
        write_csv(run_sweep(sys_, args.h_max, K0=K0), _sys.stdout)
        return 0
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        write_csv(run_sweep(sys_, args.h_max, K0=K0), fh)
    log.info("wrote %d rows to %s", args.h_max, args.out)
    return 0


def _cmd_simulate(args) -> int:
    sys_ = load_system(args.system, lax=args.lax)
    if args.h is None:
        controller = solve_dare(sys_).K
        label = "gain"
    else:
        _, _, controller = _solved_policy(sys_, args.h)
        label = f"drc_H{args.h}"
    report = simulate(sys_, controller, steps=args.steps, burn_in=args.burn_in, seed=args.seed)
    print(f"controller= {label}")
    print(f"value= {_fmt(report.value)}")
    print(f"std_error= {_fmt(report.std_error)}")
    print(f"steps= {args.steps}")
    print(f"burn_in= {args.burn_in}")
    print(f"seed= {args.seed}")
    return 0


def _cmd_witness(args) -> int:
    rng = np.random.default_rng(args.seed)
    policy = DRCPolicy(blocks=tuple(rng.uniform(-1.0, 1.0, (1, args.n)) for _ in range(args.h)))
    lower, holds, cov = bounds_mod._witness(args.n, args.h, policy, args.t)
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

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _configure_logging():
    wanted = os.environ.get("DRC_LQR_LOG", "error").strip().lower()
    level = _LOG_LEVELS.get(wanted)
    if level is None:
        print(f"warning: DRC_LQR_LOG={wanted!r} not in {sorted(_LOG_LEVELS)}; using 'error'", file=_sys.stderr)
        level = logging.ERROR
    handler = logging.StreamHandler(_sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(levelname)s: %(message)s"))
    log.handlers[:] = [handler]
    log.setLevel(level)


def dispatch(argv) -> int:
    """Run one CLI invocation; returns the process exit code.

    The parser is built on the first call and reused by every later one in
    the process; each parse fills a fresh namespace, so no option carries
    over from one call to the next.
    """
    _configure_logging()
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
