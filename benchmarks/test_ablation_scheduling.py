"""Ablation: decoupled latency-insensitive scheduling versus lock-step emulation.

Section 2 credits the decoupled, latency-insensitive execution (large
pipelined transfers, no per-cycle synchronisation) with roughly an order of
magnitude of throughput, and Section 5 argues that SCE-MI-style lock-step
emulation wastes the time a slow module spends processing because other
modules cannot use it.  This ablation runs the same pipeline under the
decoupled WiLIS scheduler and under the lock-step scheduler and compares
scheduler passes and wall-clock throughput.

The scheduler policy is a one-axis :class:`~repro.analysis.sweep.SweepSpec`
grid run through the :class:`~repro.analysis.scenario.Experiment` front
door, but the executor is pinned to the serial backend and the depth stays
*fixed* rather than adaptive: the wall-time comparison between the two
policies is measured, so the two points must execute identical work
without CPU contention.

Only the deterministic columns (scheduler, passes, firings, packets and
packet bits) go into ``benchmarks/results/ablation_scheduling.txt``; the
wall-clock comparison is printed to stdout, so a rerun leaves the tracked
file unchanged.
"""

import numpy as np

from repro.analysis.reporting import Table
from repro.analysis.scenario import Experiment
from repro.analysis.sweep import SweepExecutor, SweepSpec
from repro.phy.params import rate_by_mbps
from repro.system.pipelines import build_cosimulation

from _bench_utils import emit_with_rows

SCHEDULERS = ("decoupled", "lockstep")

#: The row columns that do not depend on the wall clock.
DETERMINISTIC_COLUMNS = ("num_packets", "packet_bits", "scheduler", "steps",
                         "total_firings")


def _simulate_once(point):
    """One pass of ``point``'s scheduling policy over a fresh model."""
    rng = np.random.default_rng(5)
    payloads = [rng.integers(0, 2, point["packet_bits"], dtype=np.uint8)
                for _ in range(point["num_packets"])]
    model = build_cosimulation(rate_by_mbps(24),
                               packet_bits=point["packet_bits"],
                               decoder="viterbi", snr_db=18.0, seed=13,
                               lockstep=point["scheduler"] == "lockstep")
    outputs, report = model.run_packets(payloads)
    assert len(outputs) == point["num_packets"]
    return report


def _run_point(point):
    """Picklable point-runner: one scheduling policy over the same packets."""
    report = _simulate_once(point)
    return {
        "steps": report.scheduler_stats.steps,
        "total_firings": report.scheduler_stats.total_firings,
        "wall_seconds": report.wall_seconds,
        "speed_bps": report.simulation_speed_bps,
    }


def _run(num_packets, packet_bits, repeats=5):
    """Best-of-``repeats`` rows with the two policies *interleaved*.

    The scheduler-pass counts are deterministic and carry the robust
    quantitative claim (the decoupled scheduler needs strictly fewer
    passes for the same firings); the wall-clock comparison is
    indicative only at this sub-second scale.  Repeating the whole
    two-point sweep and keeping each policy's fastest pass — rather
    than repeating each policy back to back — means a slow host window
    hits adjacent passes of *both* policies, so it cancels out of the
    reported ratio instead of landing on whichever policy ran during
    it.
    """
    experiment = Experiment(
        sweep=SweepSpec(
            {"scheduler": list(SCHEDULERS)},
            constants={"num_packets": num_packets, "packet_bits": packet_bits},
            seed=13,
        ),
        runner=_run_point,
    )
    # Always serial: each point times itself, so points must not contend.
    best = None
    for _ in range(max(1, repeats)):
        rows = experiment.run(SweepExecutor("serial"))
        if best is None:
            best = rows
        else:
            best = [b if b["wall_seconds"] <= r["wall_seconds"] else r
                    for b, r in zip(best, rows)]
    return best


def test_ablation_scheduling_policy(benchmark, scale):
    rows = benchmark.pedantic(_run, args=(6 * scale, 600), rounds=1, iterations=1)

    table = Table(
        ["Scheduler", "Scheduler passes", "Total firings"],
        title="Ablation: decoupled (WiLIS) vs lock-step (SCE-MI style) scheduling",
    )
    for row in rows:
        table.add_row(row["scheduler"], row["steps"], row["total_firings"])
    emit_with_rows("ablation_scheduling", "Scheduling ablation",
                   table.render(),
                   [{key: row[key] for key in DETERMINISTIC_COLUMNS}
                    for row in rows])

    # Indicative only: printed, never written to the tracked results file.
    timing = Table(["Scheduler", "Wall time (s)", "Simulation speed (kb/s)"],
                   title="Scheduling ablation wall clock (this host)")
    for row in rows:
        timing.add_row(row["scheduler"], row["wall_seconds"],
                       row["speed_bps"] / 1e3)
    print("\n" + timing.render())

    by_scheduler = {row["scheduler"]: row for row in rows}
    decoupled = by_scheduler["decoupled"]
    lockstep = by_scheduler["lockstep"]
    # Both execute the same work (same firings), but the decoupled scheduler
    # needs far fewer passes over the module graph -- the scheduling overhead
    # the paper's latency-insensitive design avoids.
    assert decoupled["total_firings"] == lockstep["total_firings"]
    assert decoupled["steps"] < lockstep["steps"]
