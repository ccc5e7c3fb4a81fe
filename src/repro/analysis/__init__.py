"""Analysis utilities shared by the experiments and benchmarks.

* :mod:`repro.analysis.link` -- end-to-end link simulation (transmitter,
  channel, receiver) batched over packets; the workhorse behind every BER
  experiment.
* :mod:`repro.analysis.ber_stats` -- bit-error-rate measurements with
  confidence intervals and hint-binned statistics.
* :mod:`repro.analysis.sweep` -- the sweep subsystem: declarative
  :class:`~repro.analysis.sweep.SweepSpec` grids with per-point seed
  derivation, a :class:`~repro.analysis.sweep.SweepExecutor` with serial
  and process backends, and JSON row emission.
* :mod:`repro.analysis.adaptive` -- adaptive measurement on top of the
  sweep subsystem: sequential early stopping per point and a
  budget-reallocating scheduler.
* :mod:`repro.analysis.scenario` -- the declarative top layer: a frozen,
  hashable :class:`Scenario` describing the link configuration and the
  unified :class:`Experiment` front door over fixed/adaptive depth,
  serial/process execution and store-backed resume.
* :mod:`repro.analysis.store` -- content-addressed persistence for
  characterisation batches (:class:`ResultStore`): a warm store serves
  previously simulated batches instantly, and a tighter re-run simulates
  only the missing batch indices.
* :mod:`repro.analysis.reporting` -- plain-text table formatting used by the
  benchmark harness to print the paper's tables and figure series.

The front door
--------------
Describe *what is simulated* as a :class:`Scenario`, the operating-point
grid as a :class:`SweepSpec`, and run both through an
:class:`Experiment`::

    from repro.analysis import Experiment, Scenario, StopRule, SweepSpec

    experiment = Experiment(
        scenario=Scenario(decoder="bcjr", packet_bits=1704),
        sweep=SweepSpec({"rate_mbps": [12, 24],
                         "snr_db": [5.0, 6.0, 7.0, 8.0]}, seed=23),
        stop=StopRule(rel_half_width=0.25, min_errors=50, max_packets=64),
    )
    rows = experiment.run()   # executor_from_env(): REPRO_SWEEP_WORKERS=N shards

    # attach store=ResultStore("bercurves/") and re-running with a tighter
    # StopRule simulates only the batches the first run never needed.

``stop=None`` selects fixed depth (``num_packets`` per point, the mode
the fixed-depth figure benchmarks under ``benchmarks/`` use).

For serve-curves-on-demand deployments, :mod:`repro.service` runs this
stack as a long-lived daemon: a broker dedupes requests against the
store and each other, a persistent worker fleet simulates only the
misses (via the batch-granular :meth:`Experiment.trajectory` hook), and
rows stream back as points settle.

Sweeps and adaptive characterisation
------------------------------------
A BER curve is a grid of operating points, and the repository offers two
depths of automation for measuring one:

**Fixed depth** — declare the grid as a :class:`SweepSpec` and run a
picklable point-runner over it with a :class:`SweepExecutor`.  Every point
simulates the same packet count; rows are bit-for-bit independent of the
backend (serial or process), worker count and dispatch order, because each
point's random stream is derived from the spec's master seed keyed by the
point's axis coordinates.  ``REPRO_SWEEP_WORKERS=N`` shards any
executor-driven sweep across ``N`` processes without changing a bit of the
output.  This is the mode for the fixed-depth figure benchmarks under
``benchmarks/``, where every point must simulate the same packets.

**Adaptive depth** — wrap the measurement in the
:mod:`~repro.analysis.adaptive` subsystem.  Points run in fixed-size,
chunk-invariant batches (batch ``k`` of a point is seeded from child ``k``
of the point's ``SeedSequence``), accumulating a :class:`BerMeasurement`
until a :class:`StopRule` fires: the Wilson interval's relative half-width
meets a target, an error-count target is reached, a zero-error point's
upper bound drops below the resolution floor, or a traffic cap hits.  The
:class:`AdaptiveScheduler` runs a whole grid this way under a global
traffic budget, re-ranking points by interval looseness each round so the
budget freed by early-stopped (low-SNR) points is reallocated to the
starving high-SNR tail.  Because batch contents are pre-determined by
their (point, batch index) key and stopping decisions happen at round
barriers over deterministic counts, serial and multi-worker process runs
produce bit-for-bit identical rows — including packets spent and stop
reasons.
"""

from repro.analysis.adaptive import (
    AdaptivePointState,
    AdaptiveScheduler,
    AdaptiveTrajectory,
    MeasurementBatch,
    StopRule,
    batch_seed_sequence,
    batch_store_key,
    run_link_ber_batch,
)
from repro.analysis.ber_stats import BerMeasurement, bin_errors_by_hint, wilson_interval
from repro.analysis.link import LinkRunResult, LinkSimulator
from repro.analysis.reporting import Table, format_percentage, format_ratio
from repro.analysis.scenario import Experiment, Scenario, run_scenario_point
from repro.analysis.store import ResultStore, StoreError, StoreView
from repro.analysis.sweep import (
    SweepError,
    SweepExecutor,
    SweepPoint,
    SweepSpec,
    executor_from_env,
    link_simulator_for_params,
    rows_to_json,
)

__all__ = [
    "AdaptivePointState",
    "AdaptiveScheduler",
    "AdaptiveTrajectory",
    "BerMeasurement",
    "Experiment",
    "LinkRunResult",
    "LinkSimulator",
    "MeasurementBatch",
    "ResultStore",
    "Scenario",
    "StopRule",
    "StoreError",
    "StoreView",
    "SweepError",
    "SweepExecutor",
    "SweepPoint",
    "SweepSpec",
    "Table",
    "batch_seed_sequence",
    "batch_store_key",
    "bin_errors_by_hint",
    "executor_from_env",
    "format_percentage",
    "format_ratio",
    "link_simulator_for_params",
    "rows_to_json",
    "run_link_ber_batch",
    "run_scenario_point",
    "wilson_interval",
]
