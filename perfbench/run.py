"""drclqr benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload sweep|certify|montecarlo
                             --seed N --seconds S --trace 0|1

Run from anywhere; it benchmarks the drclqr sources in ``src/`` beside this
directory and exits 2 without a result when they are missing.  Steps:

1. write the workload's plant for ``--seed`` as a system file;
2. set-up time: a cold ``drclqr validate <file>`` in a fresh interpreter,
   driven through ``drclqr.cli.main``, once untimed and then SETUP_RUNS
   times, each scaled to the machine's quiet speed by the wall time of a cold
   interpreter that imports numpy and scipy.linalg (``FLOOR``), started just
   before and after it; ``setup_s`` is the median;
3. the timed loop in a fresh process (``loop.py``), whose ``ru_maxrss`` is
   ``peak_rss_mb``; ``op_s.cal_p50`` is the median of its scaled op times;
4. print the metrics BENCHMARK.json lists, one per line with units, then the
   ungated raw times, ``ops_per_s`` and ``fail_frac``, then one info line
   (JSON: realized instance, BLAS cap, op-time tail, set-up times), then the
   result JSON as the last line.

BLAS threads are capped at the number of CPUs this process may use, in this
process and every child process, and the cap is recorded.  Scratch files go to
``perfbench/_out/<workload>-<seed>-<trace>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_RUNS = 7
# A cold interpreter that imports the libraries drclqr imports and nothing of
# drclqr; it calibrates the set-up runs.  FLOOR_REF_S is its wall time on the
# reference machine in a quiet stretch.
FLOOR = "import numpy, scipy.linalg"
FLOOR_REF_S = 0.40
DEADLINE_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
VALIDATE = "import sys; from drclqr.cli import main; sys.argv[0] = 'drclqr'; main()"


def child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: str(blas_threads) for var in BLAS_VARS})
    env.pop("DRC_LQR_LOG", None)
    return env


def _wall(cmd, env):
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    return time.perf_counter() - t0, proc


def setup_seconds(system_file: Path, env: dict):
    """Wall times of cold `drclqr validate` runs, raw and scaled (the first run is discarded).

    The floor interpreter (FLOOR) starts after every validate run; each timed
    run is scaled by the floor's mean wall time just before and after it.
    """
    import calib

    times, scaled = [], []
    floor_before = None
    for run in range(SETUP_RUNS + 1):
        elapsed, proc = _wall([sys.executable, "-c", VALIDATE, "validate", str(system_file)], env)
        if proc.returncode != 0 or "accepted= true" not in proc.stdout:
            raise RuntimeError(f"drclqr validate failed ({proc.returncode}): {proc.stdout}{proc.stderr}")
        floor_after, proc = _wall([sys.executable, "-c", FLOOR], env)
        if proc.returncode != 0:
            raise RuntimeError(f"the floor interpreter failed ({proc.returncode}): {proc.stderr}")
        if run:
            times.append(elapsed)
            scaled.append(calib.scale(elapsed, floor_before, floor_after, FLOOR_REF_S))
        floor_before = floor_after
    return times, scaled


def tail(samples) -> dict:
    """The highest percentile (at or above p50) with ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return {"n": n, "tail": None}
    return {"n": n, "tail": {"pct": 100.0 * (n - 10) / n, "value_s": sorted(samples)[n - 11]}}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description="drclqr benchmark (one workload per run)")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "drclqr" / "__init__.py").is_file():
        print(f"error: no drclqr sources at {SRC}; run from a drclqr checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    blas_threads = len(os.sched_getaffinity(0))
    os.environ.update({var: str(blas_threads) for var in BLAS_VARS})
    import plants

    workdir = HERE / "_out" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    system_file = workdir / "plant.json"
    plants.write_plant(args.workload, args.seed, system_file)

    env = child_env(blas_threads)
    setup, setup_cal = setup_seconds(system_file, env)

    result_file = workdir / "loop.json"
    cmd = [
        sys.executable, str(HERE / "loop.py"), "--workload", args.workload, "--system", str(system_file),
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--out", str(result_file),
    ]
    budget = DEADLINE_S - (time.perf_counter() - started)
    proc = subprocess.run(cmd, env=env, timeout=budget)
    if proc.returncode != 0:
        print(f"error: timed loop exited {proc.returncode}", file=sys.stderr)
        return 1
    loop = json.loads(result_file.read_text(encoding="utf-8"))

    attempted, failed = loop["attempted"], loop["failed"]
    if args.trace:
        values = loop["layers"]
    else:
        times = loop["op_s"]
        values = {
            "op_s.cal_p50": statistics.median(loop["op_s_cal"]),
            "setup_s": statistics.median(setup_cal),
            "peak_rss_mb": loop["peak_rss_mb"],
            "ok_frac": (attempted - failed) / attempted,
        }
        # printed, not gated: raw wall times follow the machine's speed swings
        diagnostics = {
            "op_s.p50": (statistics.median(times), "s"),
            "op_s.min": (min(times), "s"),
            "setup_s.raw": (statistics.median(setup), "s"),
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "fail_frac": (failed / attempted, "ratio"),
        }
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    if not args.trace:
        for name, m in metrics.items():
            print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
        for name, (value, unit) in diagnostics.items():
            print(f"{args.workload} {name} = {value:.6g} {unit}")
        t = tail(times)
        if t["tail"] is None:
            print(f"{args.workload} op_s tail: no percentile at or above p50 has 10 samples beyond it (n={t['n']})")
        else:
            print(f"{args.workload} op_s.p{t['tail']['pct']:.0f} = {t['tail']['value_s']:.6g} s (n={t['n']})")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "blas_threads": blas_threads,
        "instance": loop["instance"],
        "op_s": tail(loop["op_s"]),
        "setup_s": setup,
        "setup_s_cal": setup_cal,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
