"""The timed loop of one workload, run in a process of its own.

    python perfbench/loop.py --workload W --system FILE --seed N --seconds S
                             --trace 0|1 --workdir DIR --out RESULT.json

One client, one op at a time (a closed loop): the next op starts when the
previous one and its output check have finished.  Ops run until ``--seconds``
have passed, and at least ``MIN_OPS`` times.  With ``--trace 1`` odd ops run
with the tracer installed and even ops without it, so the traced and
untraced op times come from the same stretch of the run.  The calibration
kernel of :mod:`calib` runs before the first op and after every op (outside
its timer, before the output check, for at least CAL_SHARE of the op's time),
and every op time is also recorded scaled to the machine's quiet speed.  The spans of the
first traced op are written in full, one JSON object per line, to
``spans.jsonl`` in the work directory, followed by one line of per-function
self times for every traced op.

The result file holds the op times, raw and scaled, the failure count, the realized
instance, the peak RSS of this process and, with tracing, the per-layer
numbers.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import calib
import tracer

MIN_OPS = 3
CAL_SHARE = 0.15  # calibration time after an op, as a share of the op's time
CAL_MIN_S = 0.05


def layer_metrics(spans, counts, op_seconds) -> dict:
    """Per-op layer numbers from one traced op's spans and boundary counts."""
    selfs = tracer.self_times(spans)
    ms = {name: t * 1e3 for name, (t, _) in selfs.items()}
    calls = {name: n for name, (_, n) in selfs.items()}
    out = {}
    for fn in (
        "cli.dispatch", "cli.load_system_file", "cli.run_sweep", "cli.write_csv",
        "model.validate_system", "model.joint_certificate", "model.estimate_certificate",
        "riccati.solve_dare", "lyapunov.gramian", "lyapunov.solve_dsylvester",
        "drc.assemble", "drc.solve_drc", "drc.truncation_residual",
        "cost.cost_of_drc", "cost.cost_of_gain", "cost.simulate", "cost.disturbance",
        "prestabilize.transform",
    ):
        out[f"{fn}.ms"] = ms.get(fn, 0.0)
    for fn in ("drc.assemble", "drc.solve_drc", "cost.disturbance"):
        out[f"{fn}.calls"] = calls.get(fn, 0)
    for key in ("drc.assemble.blocks", "riccati.solve_dare.iterations", "model.joint_certificate.k_max"):
        out[key] = counts.get(key, 0)
    layer_ms = defaultdict(float)
    for name, t in ms.items():
        layer_ms[name.split(".")[0]] += t
    for layer in tracer.LAYERS:
        out[f"{layer}.ms"] = layer_ms[layer]
    op_ms = op_seconds * 1e3
    out["op.other.ms"] = layer_ms["op"]
    out["split.sweep_layers.pct"] = 100.0 * (ms.get("drc.assemble", 0.0) + ms.get("cost.cost_of_drc", 0.0)) / op_ms
    solver_ms = layer_ms["model"] + layer_ms["riccati"] + layer_ms["lyapunov"] + ms.get("drc.truncation_residual", 0.0)
    out["split.certify_layers.pct"] = 100.0 * solver_ms / op_ms
    out["split.montecarlo_layers.pct"] = 100.0 * (ms.get("cost.simulate", 0.0) + ms.get("cost.disturbance", 0.0)) / op_ms
    return out


def measure(workload, seconds: float, trace: bool, spans_path=None, log=sys.stderr) -> dict:
    """Run the closed loop; returns op times, failures and layer numbers."""
    recorder = tracer.Tracer() if trace else None
    times, traced_times, per_op_layers = [], [], []
    scaled, traced_scaled = [], []
    attempted = failed = 0
    first_spans = None
    summaries = []
    cal_before = calib.block(CAL_MIN_S)
    start = time.perf_counter()
    i = 0
    while i < MIN_OPS or time.perf_counter() - start < seconds:
        traced = recorder is not None and i % 2 == 1
        if traced:
            recorder.install()
        t0 = time.perf_counter()
        try:
            out = workload.op(i)
            error = None
        except Exception:  # an op that raises is a failed op, not a crashed run
            error = traceback.format_exc()
        t1 = time.perf_counter()
        if traced:
            recorder.uninstall()
            spans, counts = recorder.take()
            spans.append((0, -1, "op", t0, t1))
            per_op_layers.append(layer_metrics(spans, counts, t1 - t0))
            summaries.append({"op": i, "self_ms": {k: v for k, v in per_op_layers[-1].items() if k.endswith(".ms")}})
            if first_spans is None:
                first_spans = spans
        cal_after = calib.block(max(CAL_MIN_S, CAL_SHARE * (t1 - t0)))
        if error is None:
            try:
                workload.check(i, out)
            except Exception:
                error = traceback.format_exc()
        attempted += 1
        if error is not None:
            failed += 1
            print(f"op {i} failed:\n{error}", file=log)
        (traced_times if traced else times).append(t1 - t0)
        (traced_scaled if traced else scaled).append(calib.scale(t1 - t0, cal_before, cal_after))
        cal_before = cal_after
        i += 1

    result = {"attempted": attempted, "failed": failed, "op_s": times, "op_s_cal": scaled}
    if recorder is not None:
        result["traced_op_s"] = traced_times
        layers = {key: statistics.median(row[key] for row in per_op_layers) for key in per_op_layers[0]}
        layers["trace.overhead_pct"] = 100.0 * (statistics.median(traced_scaled) / statistics.median(scaled) - 1.0)
        result["layers"] = layers
        if spans_path is not None:
            with open(spans_path, "w", encoding="utf-8") as fh:
                for sid, parent, name, s, e in sorted(first_spans, key=lambda sp: sp[3]):
                    fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": s, "end": e}) + "\n")
                for summary in summaries:
                    fh.write(json.dumps(summary) + "\n")
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--system", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    import workloads

    workload = workloads.make(args.workload, args.system, args.workdir, args.seed)
    workload.warmup()
    result = measure(workload, args.seconds, bool(args.trace), Path(args.workdir) / "spans.jsonl")
    result["instance"] = workload.instance
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.out).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
