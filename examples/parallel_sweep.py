"""Adaptive BER characterisation across a (rate, SNR) grid.

The paper's point is that a software radio testbed is only useful if it can
characterise BER/throughput across many operating points quickly.  This
example runs the repository's characterisation service over a
Figure-6-style grid through the declarative front door: the link is a
:class:`Scenario`, the grid a :class:`SweepSpec`, and the
:class:`Experiment` — "give me this BER curve to ±25% confidence within a
global budget of packets" — drives the adaptive scheduler underneath.  It
dispatches fixed-size batches round by round, stops each point as soon as
its Wilson interval is tight enough (or its zero-error upper bound proves
the BER is below the floor), and reallocates the budget freed by
early-stopped points to the loosest survivors — so the noisy low-SNR
points cost a batch or two while the clean high-SNR tail gets the traffic
it actually needs.

Fixed versus adaptive depth
---------------------------
``stop=None`` is the *fixed-depth* mode: every point simulates exactly
``num_packets`` packets, so every point does the same work.  The
adaptive mode used here runs each point in fixed-size batches
until the ``StopRule`` fires.

Determinism and sharding
------------------------
Batch ``k`` of a point is seeded from child ``k`` of the point's
``SeedSequence`` (itself derived from the spec's master seed and the
point's axis coordinates), so every batch's content is pre-determined:
stopping decisions, worker count and dispatch order choose only *which*
batches run.  Set ``REPRO_SWEEP_WORKERS=N`` — or pass a process executor
to ``Experiment.run``, as this example does — to shard each round across
N worker processes; the rows, including packets spent and stop reasons,
are bit-for-bit identical to the serial run.  (For persisting and
resuming curves across runs, see ``examples/resume_store.py``.)

Run with::

    python examples/parallel_sweep.py [workers]
"""

import sys
import time

from repro.analysis.adaptive import StopRule
from repro.analysis.scenario import Experiment, Scenario
from repro.analysis.sweep import SweepExecutor, SweepSpec, rows_to_json

#: Global traffic budget (packets) and per-batch quantum.
BUDGET_PACKETS = 160
BATCH_PACKETS = 8


def build_experiment():
    return Experiment(
        scenario=Scenario(decoder="bcjr", packet_bits=1704),
        sweep=SweepSpec(
            axes={"rate_mbps": [12, 24], "snr_db": [5.0, 6.0, 7.0, 8.0]},
            seed=23,
        ),
        stop=StopRule(rel_half_width=0.25, min_errors=50, ber_floor=1e-4,
                      max_packets=64),
        batch_packets=BATCH_PACKETS,
        budget=BUDGET_PACKETS,
    )


def main(workers=4):
    experiment = build_experiment()
    spec = experiment.spec()
    print("Characterising %s (%d points) to ±25%% within %d packets\n"
          % (spec, len(spec), BUDGET_PACKETS))

    start = time.perf_counter()
    serial_rows = experiment.run(SweepExecutor("serial"))
    serial_elapsed = time.perf_counter() - start

    executor = SweepExecutor("process", max_workers=workers)
    start = time.perf_counter()
    parallel_rows = experiment.run(executor)
    parallel_elapsed = time.perf_counter() - start

    print("%-10s %-8s %-10s %-22s %-8s %s"
          % ("rate", "SNR", "BER", "95% Wilson interval", "packets", "stop"))
    for row in parallel_rows:
        interval = "[%.3g, %.3g]" % (row["ber_low"], row["ber_high"])
        print("%-10s %-8s %-10.3g %-22s %-8d %s"
              % (row["rate_mbps"], row["snr_db"], row["ber"],
                 interval, row["packets"], row["stop_reason"]))
    total = sum(row["packets"] for row in parallel_rows)
    print("\ntotal traffic: %d packets (budget %d; fixed depth at the "
          "hungriest point's %d would have cost %d)"
          % (total, BUDGET_PACKETS,
             max(row["packets"] for row in parallel_rows),
             len(spec) * max(row["packets"] for row in parallel_rows)))
    print("\nrows (JSON lines, grid order):")
    print(rows_to_json(parallel_rows))
    print()
    print("serial backend:            %.2f s" % serial_elapsed)
    print("process backend (%d wkrs): %.2f s" % (workers, parallel_elapsed))
    print("rows bit-for-bit identical: %s" % (parallel_rows == serial_rows))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
