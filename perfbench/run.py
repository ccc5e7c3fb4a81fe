"""Run one benchmark workload against the program in ``src/`` and report.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig6_curve --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` spends half of ``--seconds`` untraced and half with every
layer wrapped (see ``layers.py``), and prints the per-layer metrics plus
the tracing overhead between the two halves.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a JSON report with the
host, the failure breakdown, the open-loop bookkeeping and the ledger
counts.  ``METRICS.md`` explains every metric.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

from bench_stats import (account, median, reconcile,  # noqa: E402
                         timing_summary)
from workloads import FLEET_WORKERS, TAIL_PCT, WORKLOADS  # noqa: E402

#: Set-up runs per measured run: this process's own plus probes in fresh
#: interpreters; ``setup_s`` is their median.
SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ttfr_p50_s": "s",
    "ttfr_tail_s": "s",
    "ops_per_s": "1/s",
    "pkts_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer span name -> metric (self seconds per operation).
LAYER_TIMES = {
    "phy.transmit": "phy.transmit_s",
    "phy.front_end": "phy.front_end_s",
    "phy.decode": "phy.decode_s",
    "phy.bcjr.forward": "phy.bcjr.forward_s",
    "phy.bcjr.seed": "phy.bcjr.seed_s",
    "phy.bcjr.backward": "phy.bcjr.backward_s",
    "channel.awgn": "channel.awgn_s",
    "channel.fading": "channel.fading_s",
    "analysis.fused_group": "analysis.fused_group_s",
    "analysis.scheduler": "analysis.scheduler_self_s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
    "broker.submit": "broker.submit_s",
    "broker.pump": "broker.pump_s",
    "fleet.execute": "fleet.execute_s",
    "rateadapt.decode_window": "rateadapt.decode_window_s",
    "rateadapt.replay": "rateadapt.replay_s",
}

PER_LAYER_UNITS = dict(
    {metric: "s/op" for metric in LAYER_TIMES.values()},
    **{
        "http.overhead_s": "s/op",
        "unattributed_s": "s/op",
        "op_wall_s": "s/op",
        "phy.packets": "count/op",
        "phy.decode_us_per_pkt": "us/pkt",
        "analysis.rounds": "count/op",
        "analysis.fused_groups": "count/op",
        "analysis.batches_per_group": "ratio",
        "store.get_calls": "count/op",
        "store.put_calls": "count/op",
        "store.hit_ratio": "ratio",
        "broker.batches_simulated": "count/op",
        "broker.batches_shared": "count/op",
        "broker.batches_cached": "count/op",
        "broker.useful_ratio": "ratio",
        "fleet.queue_wait_s": "s/item",
        "fleet.utilisation": "ratio",
        "trace.overhead_frac": "ratio",
    })

def host_metadata(seed):
    import numpy

    return {"cpu_count": os.cpu_count(),
            "cpus_used": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "seed": seed}


def _ok(outcomes):
    return [o for o in outcomes if o.failure is None]


def _timed_setup(workload):
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0


def setup_probe(args, workdir):
    """Child mode: one timed set-up in a fresh interpreter, then exit."""
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        seconds = _timed_setup(workload)
    finally:
        workload.teardown()
    print(json.dumps({"setup_s": seconds}))
    return 0


def setup_samples(args, workload):
    """``SETUP_SAMPLES - 1`` probes in fresh interpreters, then our own."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        probe = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if probe.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + probe.stderr)
        samples.append(json.loads(probe.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    samples.append(_timed_setup(workload))
    return samples


def end_to_end(outcomes, wall_s, setup):
    ok = _ok(outcomes)
    latency = timing_summary([o.latency_s for o in ok], TAIL_PCT)
    ttfr = timing_summary([o.ttfr_s for o in ok], TAIL_PCT)
    values = {
        "setup_s": median(setup),
        "latency_p50_s": latency["p50"],
        "latency_tail_s": latency["tail"],
        "ttfr_p50_s": ttfr["p50"],
        "ttfr_tail_s": ttfr["tail"],
        "ops_per_s": len(ok) / wall_s,
        "pkts_per_s": sum(o.packets for o in ok) / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    summary = {"latency": latency, "ttfr": ttfr, "setup_samples_s": setup}
    return values, summary


#: Largest share of op wall-clock a closed-loop operation may spend
#: outside every layer (its own glue) before attribution counts as broken.
MAX_UNATTRIBUTED_SHARE = 0.1

#: Tolerance, as a share of op wall-clock, between the operation spans and
#: the workload's own timer around the same calls.
ROOT_TOLERANCE = 0.01


def per_layer(workload, tracer, outcomes, ledger, wall_s, untraced):
    from layers import OP_SPAN, WAIT_SPANS

    ok = _ok(outcomes)
    ops = max(1, len(ok))
    op_wall = sum(o.latency_s for o in ok)
    overhead = sum(o.overhead_s for o in ok)
    spans = [(sid, parent, name, start, end)
             for sid, parent, name, start, end, _, _ in tracer.spans]
    rec = reconcile(spans, op_wall, WAIT_SPANS.__contains__, overhead,
                    root=OP_SPAN)
    by_name = rec["by_name"]
    unknown = set(by_name) - set(LAYER_TIMES)
    if unknown:
        raise RuntimeError("spans without a metric: %s" % sorted(unknown))
    counts = tracer.counts
    values = {metric: by_name.get(name, 0.0) / ops
              for name, metric in LAYER_TIMES.items()}
    decoded = sum(by_name.get(name, 0.0) for name in
                  ("phy.decode", "phy.bcjr.forward", "phy.bcjr.seed",
                   "phy.bcjr.backward"))
    packets = counts.get("phy.packets", 0)
    execute = sum(end - start for _, _, name, start, end, _, _
                  in tracer.spans if name == "fleet.execute")
    groups = counts.get("analysis.fused_groups", 0)
    gets = counts.get("store.get_calls", 0)
    broker = {key: sum(entry.get(key, 0) for entry in ledger) / ops
              for key in ("broker.batches_simulated", "broker.batches_shared",
                          "broker.batches_cached", "broker.batches_delivered")}
    simulated = broker["broker.batches_simulated"]
    delivered = broker["broker.batches_delivered"]
    values.update({
        "http.overhead_s": overhead / ops,
        "unattributed_s": rec["unattributed_s"] / ops,
        "op_wall_s": op_wall / ops,
        "phy.packets": packets / ops,
        "phy.decode_us_per_pkt": decoded / packets * 1e6 if packets else 0.0,
        "analysis.rounds": counts.get("analysis.rounds", 0) / ops,
        "analysis.fused_groups": groups / ops,
        "analysis.batches_per_group": (
            counts.get("analysis.fused_batches", 0) / groups if groups
            else 0.0),
        "store.get_calls": gets / ops,
        "store.put_calls": counts.get("store.put_calls", 0) / ops,
        "store.hit_ratio": counts.get("store.hits", 0) / gets if gets else 0.0,
        "broker.batches_simulated": simulated,
        "broker.batches_shared": broker["broker.batches_shared"],
        "broker.batches_cached": broker["broker.batches_cached"],
        "broker.useful_ratio": simulated / delivered if delivered else 0.0,
        "fleet.queue_wait_s": (median(tracer.queue_waits)
                               if tracer.queue_waits else 0.0),
        "fleet.utilisation": (
            execute / (wall_s * FLEET_WORKERS) if execute else 0.0),
        "trace.overhead_frac": (
            median([o.latency_s for o in ok]) / untraced - 1.0
            if ok and untraced else 0.0),
    })
    bcjr = sum(by_name.get("phy.bcjr." + sweep, 0.0)
               for sweep in ("forward", "seed", "backward"))
    summary = {
        "op_wall_s": op_wall,
        "layer_self_s": sum(by_name.values()),
        "http_overhead_s": overhead,
        "unattributed_s": rec["unattributed_s"],
        "op_span_wall_s": rec["root_wall_s"],
        "op_span_self_s": rec["root_self_s"],
        "orphan_spans": rec["orphans"],
        "negative_self_spans": rec["negative"],
        "wait_s": rec["wait_s"],
        "bcjr_share": bcjr / op_wall if op_wall else 0.0,
        "spans": len(tracer.spans),
    }
    checks = [("no span outlives its parent", rec["negative"] == 0)]
    if workload.op_spans:
        tolerance = ROOT_TOLERANCE * op_wall
        checks += [
            ("every layer span lies inside an operation span",
             rec["orphans"] == 0),
            ("operation spans match the operations' wall-clock",
             abs(rec["root_wall_s"] - op_wall) <= tolerance),
            ("unattributed_s equals the operation spans' self time",
             abs(rec["root_self_s"] - rec["unattributed_s"]) <= tolerance),
            ("unattributed_s is a small, non-negative share of wall-clock",
             0.0 <= rec["unattributed_s"]
             <= MAX_UNATTRIBUTED_SHARE * op_wall),
        ]
    return values, summary, checks


def run(args, workdir):
    workload = WORKLOADS[args.workload](args.seed, workdir)
    report = {"workload": args.workload, "host": host_metadata(args.seed),
              "seconds": args.seconds, "trace": args.trace}
    checks = []
    try:
        if args.trace:
            workload.setup()
            half = args.seconds / 2.0
            report["reference"] = workload.reference(half)
            untraced, ledger_a, _ = workload.measure(half)
            if workload.fresh_state_per_phase:
                workload.teardown()
                workload.setup()
            from layers import LayerTracer

            tracer = LayerTracer()
            with tracer:
                traced, ledger_b, wall_b = workload.measure(half, tracer)
            ok_a = _ok(untraced)
            values, reconciliation, span_checks = per_layer(
                workload, tracer, traced, ledger_b, wall_b,
                median([o.latency_s for o in ok_a]) if ok_a else None)
            report["reconciliation"] = reconciliation
            outcomes = untraced + traced
            tracer_packets = tracer.counts.get("phy.packets", 0)
            ledger_packets = sum(entry["phy.packets"] for entry in ledger_b)
            report["counts"] = {"untraced": ledger_a[:1], "traced": ledger_b[:1],
                                "tracer_phy_packets": tracer_packets}
            checks += workload.count_checks(ledger_a + ledger_b)
            checks.append(("tracer phy.packets equals the program's ledger",
                           tracer_packets == ledger_packets))
            checks += span_checks
            os.makedirs(WORK, exist_ok=True)
            spans_path = os.path.join(WORK, "spans-%s-%d.jsonl"
                                      % (args.workload, args.seed))
            tracer.write(spans_path)
            report["spans_file"] = os.path.relpath(spans_path, ROOT)
            units = PER_LAYER_UNITS
        else:
            setup = setup_samples(args, workload)
            report["reference"] = workload.reference(args.seconds)
            outcomes, ledger, wall = workload.measure(args.seconds)
            values, summary = end_to_end(outcomes, wall, setup)
            report.update(summary)
            report["counts"] = ledger[:1]
            checks += workload.count_checks(ledger)
            units = END_TO_END_UNITS
        if hasattr(workload, "open_loop"):
            report["open_loop"] = workload.open_loop
            checks.append(("open-loop backlog does not grow",
                           not workload.open_loop["backlog_growing"]))
    finally:
        workload.teardown()

    accounting = account(outcomes, workload.slo_ttfr_s)
    report["accounting"] = accounting
    report["failures"] = sorted({o.detail for o in outcomes
                                 if o.failure is not None})[:5]
    report["checks"] = {name: passed for name, passed in checks}
    report["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = accounting["failed"] == 0 and all(p for _, p in checks) \
        and bool(_ok(outcomes)) \
        and all(v is not None for v in values.values())
    for name in sorted(values):
        print("%-30s %14.6g %s" % (name, values[name] or 0.0, units[name]))
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": accounting["attempted"],
        "failed": accounting["failed"],
        "metrics": {name: {"value": values[name] if values[name] is not None
                           else 0.0, "unit": units[name]}
                    for name in sorted(values)},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if WORKLOADS[args.workload].pinned:
        # Before any thread exists, so that every thread inherits it.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: the program source (src/repro) is missing; run "
              "from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(WORK, "run-%s-%d-%d" % (args.workload, args.seed,
                                                   os.getpid()))
    os.makedirs(workdir)
    try:
        if args.setup_probe:
            return setup_probe(args, workdir)
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
