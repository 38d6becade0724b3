"""The three workloads: what one op is, and how its output is checked.

Each workload reads a generated system file.  ``op(i)`` is the timed unit
of work and calls into drclqr only through module attributes, looked up at
call time, so the tracer's wrappers see every call.  ``check(i, out)``
raises on a wrong output and runs outside the timed region, on the
independent route of :mod:`reference`.

* sweep: ``drclqr sweep <file> --h-max 50 --out <csv>`` through
  ``drclqr.cli.dispatch``, the paper's headline experiment.
* certify: the README quick-start pipeline on a near-marginal n_x = 40
  plant, where the solvers (DARE, certificate, Kronecker Stein) dominate.
* montecarlo: two 20 000-step ``simulate`` rollouts (optimal gain and
  optimal order-10 DRC) whose controllers are synthesized before timing.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

import reference as ref

import drclqr as d
from drclqr import cli


class CheckFailed(Exception):
    """An op's output disagrees with the independent reference."""


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _close(value, expected, tol, what):
    _require(abs(value - expected) <= tol, f"{what}: {value!r} vs reference {expected!r} (tol {tol:.3g})")


def _instance(p: dict, K, iterations: int, k_max: int, **extra) -> dict:
    return {
        "rho_A": ref.spectral_radius(p["A"]),
        **extra,
        "rho_A_BK": ref.spectral_radius(p["A"] + p["B"] @ K),
        "dare_iterations": int(iterations),
        "k_max": int(k_max),
    }


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

CSV_HEADER = "H,err_L1_K,bound_thm1,cost_gap,bound_perf,wall_ms"
TRAILER = re.compile(r"# slope=(\S+) rho=(\S+) tau=(\S+)")


class Sweep:
    """One op: the CLI sweep, H = 1..h_max, written to a CSV file."""

    def __init__(self, system_file, workdir, h_max: int = 50):
        self.system_file = str(system_file)
        self.csv = Path(workdir) / "sweep.csv"
        self.h_max = h_max
        plant = ref.read_plant(system_file)
        work = ref.prestabilized(plant)
        P, K = ref.dare(work)
        G = ref.gramian(work)
        M, J = ref.drc_system(work, G, h_max)
        n_u = work["B"].shape[1]
        self.trace_P = float(np.trace(P))
        self.norm_K = float(np.linalg.norm(K, 2))
        self.err, self.gap = [], []
        for H in range(1, h_max + 1):
            L = ref.drc_solve(M, J, H, n_u)
            self.err.append(float(np.linalg.norm(L[:n_u] - K, 2)))
            self.gap.append(ref.drc_cost(work, G, L) - self.trace_P)
        # iteration count and k_max as the program realizes them on this plant
        sys_, K0 = cli.load_system_file(self.system_file)
        shifted = d.transform(sys_, K0).transformed
        sol = d.solve_dare(shifted)
        cert = d.joint_certificate(shifted.A, shifted.A + shifted.B @ sol.K)
        self.instance = _instance(
            plant, K + plant["K0"], sol.iterations, cert.k_max, rho_A_BK0=ref.spectral_radius(work["A"])
        )

    def warmup(self):
        _require(cli.dispatch(["sweep", self.system_file, "--h-max", "5", "--out", str(self.csv)]) == 0, "warm-up sweep failed")

    def op(self, i):
        rc = cli.dispatch(["sweep", self.system_file, "--h-max", str(self.h_max), "--out", str(self.csv)])
        _require(rc == 0, f"drclqr sweep exited {rc}")
        return self.csv

    def check(self, i, out):
        check_sweep_csv(Path(out).read_text(encoding="utf-8"), self.err, self.gap, self.trace_P, self.norm_K)


def check_sweep_csv(text: str, err_ref, gap_ref, trace_P: float, norm_K: float):
    """Check a sweep CSV against per-order reference gaps.

    Rows H = 1..len(err_ref) plus the trailer; err_L1_K <= bound_thm1;
    -1e-9 <= cost_gap <= bound_perf; cost_gap non-increasing (to 1e-9);
    every row, the H_max row included, within 1e-9 (relative to ||K|| and
    tr P) of the independently computed err_L1_K and cost_gap; the trailer's
    slope refitted from the rows.
    """
    h_max = len(err_ref)
    lines = text.split("\n")
    _require(len(lines) == h_max + 3 and lines[-1] == "", f"expected {h_max} rows, header and trailer")
    _require(lines[0] == CSV_HEADER, f"bad header {lines[0]!r}")
    tol_err = 1e-9 * (1.0 + norm_K)
    tol_gap = 1e-9 * max(1.0, trace_P)
    prev_gap = np.inf
    decay = []  # (H, ln err_L1_K) for the trailer's slope
    for H, line in enumerate(lines[1 : h_max + 1], start=1):
        fields = line.split(",")
        _require(len(fields) == 6 and fields[0] == str(H), f"row {H}: {line!r}")
        err, bound_thm1, gap, bound_perf, wall_ms = map(float, fields[1:])
        _require(all(np.isfinite([err, bound_thm1, gap, bound_perf, wall_ms])), f"row {H}: non-finite")
        _require(0.0 <= err <= bound_thm1, f"row {H}: err_L1_K {err} above bound_thm1 {bound_thm1}")
        _require(-1e-9 <= gap <= bound_perf, f"row {H}: cost_gap {gap} outside [-1e-9, {bound_perf}]")
        _require(gap <= prev_gap + 1e-9, f"row {H}: cost_gap {gap} rose from {prev_gap}")
        _close(err, err_ref[H - 1], tol_err, f"row {H} err_L1_K")
        _close(gap, gap_ref[H - 1], tol_gap, f"row {H} cost_gap")
        prev_gap = gap
        if err > 0.0:
            decay.append((H, np.log(err)))
    m = TRAILER.fullmatch(lines[h_max + 1])
    _require(m is not None, f"bad trailer {lines[h_max + 1]!r}")
    slope, rho, tau = map(float, m.groups())
    _require(rho > 0.0 and 1.0 <= tau < np.inf, f"bad certificate in trailer {m.groups()}")
    tail = [pt for pt in decay if pt[0] >= 5]
    hs, logs = zip(*(tail if len(tail) >= 2 else decay))
    fit = float(np.polyfit(hs, logs, 1)[0])
    _close(slope, fit, 1e-6 * max(1.0, abs(fit)), "trailer slope (least squares of ln err_L1_K on H >= 5)")


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

class Certify:
    """One op: DARE, Gramian, certificate, bounds, order-H DRC, costs, residual."""

    H = 30

    def __init__(self, system_file, workdir):
        self.system_file = str(system_file)
        self.plant = ref.read_plant(system_file)
        self.P, self.K = ref.dare(self.plant)
        G = ref.gramian(self.plant)
        self.M, self.J = ref.drc_system(self.plant, G, self.H)
        self.L = ref.drc_solve(self.M, self.J, self.H, self.K.shape[0])
        self.G = G
        self.instance = None  # filled from the warm-up op

    def warmup(self):
        out = self.op(-1)
        self.check(-1, out)
        self.instance = _instance(self.plant, self.K, out["iterations"], out["k_max"])

    def op(self, i):
        sys_, _ = cli.load_system_file(self.system_file)
        sol = d.solve_dare(sys_)
        G = d.gramian(sys_.A, sys_.Q)
        cert = d.joint_certificate(sys_.A, sys_.A + sys_.B @ sol.K)
        inp = d.BoundInputs.from_system(sys_, sol.K, cert)
        bound_gain = d.gain_gap_bound(inp, self.H)
        bound_cost = d.optimal_cost_gap_bound(inp, self.H)
        mats = d.assemble(sys_, G, self.H)
        policy = d.solve_drc(mats)
        return {
            "K": sol.K,
            "trace_P": sol.trace_P,
            "iterations": sol.iterations,
            "k_max": cert.k_max,
            "bound_gain": bound_gain,
            "bound_cost": bound_cost,
            "M": mats.M,
            "J": mats.J,
            "L": policy.stacked(),
            "cost_drc": d.cost_of_drc(sys_, G, policy).value,
            "cost_gain": d.cost_of_gain(sys_, sol.K).value,
            "residual": d.truncation_residual(sys_, G, sol.K, self.H),
        }

    def check(self, i, out):
        K, P = self.K, self.P
        trace_P = float(np.trace(P))
        norm = np.linalg.norm
        _require(norm(out["K"] - K) <= 1e-8 * norm(K), "K differs from scipy's DARE")
        _close(out["trace_P"], trace_P, 1e-8 * trace_P, "trace P")
        _close(out["cost_gain"], trace_P, 1e-8 * trace_P, "cost_of_gain")
        _require(norm(out["M"] - self.M) <= 1e-9 * norm(self.M), "assembled M differs")
        _require(norm(out["J"] - self.J) <= 1e-9 * norm(self.J), "assembled J differs")
        _require(norm(out["L"] - self.L) <= 1e-8 * norm(self.L), "DRC blocks differ")
        cost_drc = ref.drc_cost(self.plant, self.G, out["L"])
        _close(out["cost_drc"], cost_drc, 1e-8 * cost_drc, "cost_of_drc")
        gap = cost_drc - trace_P
        _require(-1e-9 * trace_P <= gap <= out["bound_cost"], f"cost gap {gap} outside [-1e-9 tr P, {out['bound_cost']}]")
        err = norm(out["L"][: K.shape[0]] - K, 2)
        _require(err <= out["bound_gain"], f"gain gap {err} above bound {out['bound_gain']}")
        # M @ stacked(induced) + J = E, with the induced policy K (A+BK)^{k-1}
        A_cl = self.plant["A"] + self.plant["B"] @ K
        blocks, power = [], np.eye(A_cl.shape[0])
        for _ in range(self.H):
            blocks.append(K @ power)
            power = power @ A_cl
        lhs = out["M"] @ np.vstack(blocks) + out["J"]
        E = np.vstack(out["residual"])
        _require(norm(lhs - E) <= 1e-7 * (norm(out["J"]) + norm(lhs)), "truncation residual identity fails")


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------

class MonteCarlo:
    """One op: simulate the optimal gain and the optimal order-10 DRC."""

    H = 10
    STEPS = 20_000
    BURN_IN = 1000
    REPLICAS = 32
    SIGMAS = 5.0

    def __init__(self, system_file, workdir, seed: int):
        self.system_file = str(system_file)
        self.seed = int(seed)
        plant = ref.read_plant(system_file)
        # controllers are synthesized once, before timing
        sys_, _ = cli.load_system_file(self.system_file)
        sol = d.solve_dare(sys_)
        self.gain = sol.K
        self.policy = d.solve_drc(d.assemble(sys_, d.gramian(sys_.A, sys_.Q), self.H))
        cert = d.joint_certificate(sys_.A, sys_.A + sys_.B @ sol.K)
        self.instance = _instance(plant, sol.K, sol.iterations, cert.k_max)

        _, K = ref.dare(plant)
        _require(np.linalg.norm(sol.K - K) <= 1e-8 * np.linalg.norm(K), "K differs from scipy's DARE")
        G = ref.gramian(plant)
        L = self.policy.stacked()
        _require(np.allclose(L, ref.drc_solve(*ref.drc_system(plant, G, self.H), self.H, K.shape[0]), rtol=1e-8, atol=1e-12),
                 "order-10 DRC differs from the Toeplitz reference")
        self.expected = (ref.gain_cost(plant, self.gain), ref.drc_cost(plant, G, L))
        # tolerance from the between-seed spread of independent rollouts
        self.tolerance = []
        for k, (controller, drc) in enumerate(((self.gain, False), (L, True))):
            means = ref.replica_costs(plant, controller, drc, self.STEPS, self.BURN_IN, self.REPLICAS, seed=[self.seed, k])
            spread = float(np.std(means, ddof=1))
            _close(float(np.mean(means)), self.expected[k], self.SIGMAS * spread / np.sqrt(self.REPLICAS), "replica mean")
            self.tolerance.append(self.SIGMAS * spread)
        self.instance["mc_tolerance"] = list(self.tolerance)

    def noise_seed(self, i: int, k: int) -> int:
        return int(np.random.SeedSequence([self.seed, i + 1, k]).generate_state(1)[0])

    def warmup(self):
        d.simulate(d.load_system(self.system_file), self.gain, steps=2 * self.BURN_IN, burn_in=self.BURN_IN)

    def op(self, i):
        sys_, _ = cli.load_system_file(self.system_file)
        return (
            d.simulate(sys_, self.gain, steps=self.STEPS, burn_in=self.BURN_IN, seed=self.noise_seed(i, 0)).value,
            d.simulate(sys_, self.policy, steps=self.STEPS, burn_in=self.BURN_IN, seed=self.noise_seed(i, 1)).value,
        )

    def check(self, i, out):
        for label, value, expected, tol in zip(("gain", "drc"), out, self.expected, self.tolerance):
            _close(value, expected, tol, f"Monte-Carlo {label} cost")


def make(workload: str, system_file, workdir, seed: int):
    if workload == "sweep":
        return Sweep(system_file, workdir)
    if workload == "certify":
        return Certify(system_file, workdir)
    if workload == "montecarlo":
        return MonteCarlo(system_file, workdir, seed)
    raise ValueError(f"unknown workload {workload!r}")
