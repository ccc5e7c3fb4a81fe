"""Adaptive BER characterisation: sequential early stopping, budget reallocation.

The sweep subsystem (:mod:`repro.analysis.sweep`) runs a *fixed* packet
count at every operating point.  That wastes traffic at both ends of a BER
curve: a low-SNR point's BER is statistically settled after the first few
packets, while a high-SNR point finishes with zero or two errors and a
meaninglessly wide confidence interval.  This module turns the grid of
fixed runs into a characterisation *service* — "give me this BER curve to
±X% confidence within budget B" — in two layers:

* :class:`AdaptivePointState` is one point's sequential-stopping state:
  fixed-size batches accumulate a
  :class:`~repro.analysis.ber_stats.BerMeasurement` until a
  :class:`StopRule` fires (Wilson interval tight enough, enough errors
  collected, traffic cap hit).
* :class:`AdaptiveScheduler` drives a whole
  :class:`~repro.analysis.sweep.SweepSpec` through a
  :class:`~repro.analysis.sweep.SweepExecutor` (serial or process backend)
  under a **global** traffic budget: each round it dispatches one batch to
  every unconverged point, loosest interval first, so the budget freed by
  early-stopped points flows to the starving high-SNR tail.
* :class:`AdaptiveTrajectory` is the scheduler's round logic factored out
  as a pull-based state machine (``start_round`` / ``consume`` /
  ``rows``), the batch-granular dispatch hook long-lived callers — the
  characterisation service broker in :mod:`repro.service` — use to
  interleave many concurrent runs through one worker fleet.

Determinism
-----------
Results are bit-for-bit independent of stopping decisions, worker count
and scheduling order.  The mechanism is per-batch seed derivation: batch
``k`` of a point draws from ``SeedSequence(entropy, spawn_key=point_key +
(k,))`` (:func:`batch_seed_sequence`) — the same parent/child derivation
the sweep layer uses for points, extended one level down.  Batch ``k``'s
content therefore depends only on *which batch of which point it is*; how
many batches end up running, and on which worker, decides only *whether*
batch ``k``'s (pre-determined) result is included.  Stopping decisions are
made at round barriers from accumulated (deterministic) counts with
index-ordered tie-breaks, so the whole trajectory — packets spent, stop
reasons, every row — replays identically on any backend.

Chunk-runner protocol
---------------------
A chunk-runner is a picklable callable ``runner(batch)`` receiving a
:class:`MeasurementBatch` (the point, the batch index, the batch's packet
count and its derived ``SeedSequence``).  It returns a mapping with the
required count keys

``errors``, ``trials``
    Error and trial counts for the quantity being characterised (bit
    errors and bits for a BER curve).

Every other key is an *extra*, merged across a point's batches in batch
order: values with a ``merge`` method are folded with it, numpy arrays are
concatenated, ints/floats are summed, and anything else keeps the last
batch's value.  :func:`run_link_ber_batch` is the built-in chunk-runner
for the Figure-6-style link workload.
"""

import math
import traceback

import numpy as np

from repro.analysis.ber_stats import BerMeasurement
from repro.analysis.sweep import SweepError

#: Looseness denominator floor when a rule has no ``ber_floor``: keeps the
#: ranking finite while still ordering zero-error points loosest.
_TINY_BER = 1e-300

#: Reserved keys a chunk-runner result must provide (everything else is an
#: extra merged across batches).
COUNT_KEYS = ("errors", "trials")


def is_error_result(result):
    """Whether a batch result is a captured ``{"error": ...}`` row.

    Such a result stops its point with reason ``"error"`` and is never
    persisted; a chunk-runner result carrying an ``error`` extra next to
    its counts is an ordinary result.
    """
    return "error" in result and "errors" not in result


def capture_result(runner, item):
    """Run ``runner(item)``, capturing a failure in the executor's format.

    Returns ``(result, None)`` — a non-dict result wrapped as
    ``{"result": value}`` — or ``(None, detail)``, where ``detail`` is
    the exception's one-line summary followed by its traceback.  The one
    capture shared by the serial sweep loop and every fleet worker
    (thread, child process or remote agent), so a work item's outcome
    cannot depend on where it ran.
    """
    try:
        result = runner(item)
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        return None, "%s: %s\n%s" % (type(exc).__name__, exc,
                                     traceback.format_exc())
    if not isinstance(result, dict):
        return {"result": result}, None
    return dict(result), None


# ---------------------------------------------------------------------- #
# Batch seed derivation
# ---------------------------------------------------------------------- #
def batch_seed_sequence(point_seed_sequence, batch_index):
    """The ``SeedSequence`` of batch ``batch_index`` under a point's sequence.

    Extends the point's ``spawn_key`` with the batch index — the same
    derivation ``SeedSequence.spawn`` performs, but keyed by *which batch
    this is* instead of a stateful counter, so the stream of batch ``k``
    cannot depend on stopping decisions, worker count or dispatch order.
    """
    if batch_index < 0:
        raise ValueError("batch_index must be non-negative")
    return np.random.SeedSequence(
        entropy=point_seed_sequence.entropy,
        spawn_key=tuple(point_seed_sequence.spawn_key) + (int(batch_index),),
    )


def batch_store_key(batch):
    """The result-store point key of one batch: its point's seed spawn key.

    The coordinates a :class:`~repro.analysis.store.StoreView` files the
    batch under are exactly the coordinates its random stream derives
    from, so the key IS the stream's identity.  The one resolution path
    (:mod:`repro.analysis.resolver`) files both the scheduler's and the
    characterisation service's batches under it, so the two agree on the
    key byte for byte.
    """
    return tuple(int(word) for word in batch.point.seed_sequence.spawn_key)


class MeasurementBatch:
    """One fixed-size batch of traffic for one operating point.

    Attributes
    ----------
    point:
        The :class:`~repro.analysis.sweep.SweepPoint` being measured.
    index:
        Batch number within the point (0-based; batch ``k`` always carries
        packets ``[k * num_packets, (k + 1) * num_packets)``).
    num_packets:
        Packets in this batch (constant across a run — the invariance unit).
    seed_sequence:
        Independent :class:`numpy.random.SeedSequence` for this batch, from
        :func:`batch_seed_sequence`.
    """

    __slots__ = ("point", "index", "num_packets", "seed_sequence")

    def __init__(self, point, index, num_packets, seed_sequence=None):
        self.point = point
        self.index = int(index)
        self.num_packets = int(num_packets)
        if seed_sequence is None:
            seed_sequence = batch_seed_sequence(point.seed_sequence, index)
        self.seed_sequence = seed_sequence

    @property
    def params(self):
        """The point's parameters (constants plus axis coordinates)."""
        return self.point.params

    @property
    def first_packet_index(self):
        """Absolute index of this batch's first packet within the point."""
        return self.index * self.num_packets

    @property
    def seed(self):
        """A 64-bit integer seed drawn from :attr:`seed_sequence`."""
        return int(self.seed_sequence.generate_state(1, np.uint64)[0])

    def __getitem__(self, name):
        return self.point.params[name]

    def label(self):
        return "%s, batch=%d" % (self.point.label(), self.index)

    def __repr__(self):
        return "MeasurementBatch(point=%d, batch=%d, packets=%d)" % (
            self.point.index, self.index, self.num_packets,
        )


# ---------------------------------------------------------------------- #
# Stopping rules
# ---------------------------------------------------------------------- #
class StopRule:
    """When is a point's measurement good enough to stop?

    Any combination of the criteria may be active; the first one satisfied
    (checked in the order below) names the stop reason recorded in the
    point's row.

    Parameters
    ----------
    rel_half_width:
        Target relative half-width of the Wilson interval: stop with
        ``"converged"`` once ``(high - low) / 2 <= rel_half_width *
        max(ber, ber_floor)`` and at least ``min_errors`` errors were seen.
        ``None`` disables the criterion.
    min_errors:
        Error count required before the interval is trusted (guards against
        stopping on a fluke of very early batches).
    target_errors:
        Stop with ``"target_errors"`` once this many errors accumulated —
        the classic "run until 100 errors" BER-measurement practice, used
        when the goal is a fit rather than a single proportion.
    ber_floor:
        Measurement resolution floor.  A zero-error point stops with
        ``"ber_floor"`` once its Wilson *upper* bound drops below the
        floor: the BER is provably below what the characterisation asked
        for, so more traffic is wasted.  Also floors the looseness
        denominator used for scheduling.
    max_packets:
        Per-point traffic cap; stop with ``"max_packets"`` once spent
        (enforced in whole batches: a point never *starts* a batch at or
        beyond the cap, so it may overshoot by at most one batch).
    confidence:
        Confidence level of the Wilson interval.
    """

    __slots__ = ("rel_half_width", "min_errors", "target_errors", "ber_floor",
                 "max_packets", "confidence")

    def __init__(self, rel_half_width=0.25, min_errors=20, target_errors=None,
                 ber_floor=None, max_packets=None, confidence=0.95):
        if rel_half_width is not None and rel_half_width <= 0:
            raise ValueError("rel_half_width must be positive")
        if min_errors < 0:
            raise ValueError("min_errors must be non-negative")
        if target_errors is not None and target_errors < 1:
            raise ValueError("target_errors must be positive")
        if ber_floor is not None and not 0 < ber_floor < 1:
            raise ValueError("ber_floor must lie in (0, 1)")
        if max_packets is not None and max_packets < 1:
            raise ValueError("max_packets must be positive")
        if not 0 < confidence < 1:
            raise ValueError("confidence must lie in (0, 1)")
        self.rel_half_width = rel_half_width
        self.min_errors = int(min_errors)
        self.target_errors = None if target_errors is None else int(target_errors)
        self.ber_floor = ber_floor
        self.max_packets = None if max_packets is None else int(max_packets)
        self.confidence = confidence

    def replace(self, **changes):
        """A copy of this rule with the given fields replaced."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(changes)
        return StopRule(**fields)

    def to_dict(self):
        """The rule as a plain JSON-able mapping (see :meth:`from_dict`).

        Used by the characterisation service's request hashing and its
        HTTP front door; all fields are numbers or ``None``, so the form
        round-trips exactly.
        """
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_dict(cls, data):
        """Rebuild a rule from :meth:`to_dict` output."""
        data = dict(data)
        unknown = set(data) - set(cls.__slots__)
        if unknown:
            raise ValueError(
                "unknown StopRule field(s): %s (known fields: %s)"
                % (", ".join(sorted(unknown)), ", ".join(cls.__slots__)))
        return cls(**data)

    def looseness(self, measurement):
        """How unsettled a measurement still is (the scheduling rank key).

        The Wilson half-width relative to ``max(ber, ber_floor)``; infinite
        for a point with no data yet.  Zero-error points rank loosest
        (their point estimate contributes nothing to the denominator),
        which is exactly the starving high-SNR tail the scheduler should
        feed first.
        """
        if measurement is None or measurement.bits <= 0:
            return math.inf
        low, high = measurement.interval
        half_width = 0.5 * (high - low)
        return half_width / max(measurement.ber, self.ber_floor or _TINY_BER)

    def evaluate(self, measurement, packets_spent):
        """The stop reason for the accumulated state, or ``None`` to continue."""
        if measurement is not None and measurement.bits > 0:
            errors = measurement.errors
            if self.target_errors is not None and errors >= self.target_errors:
                return "target_errors"
            if (self.rel_half_width is not None and errors >= self.min_errors
                    and self.looseness(measurement) <= self.rel_half_width):
                return "converged"
            if self.ber_floor is not None and errors == 0:
                if measurement.interval[1] <= self.ber_floor:
                    return "ber_floor"
        if self.max_packets is not None and packets_spent >= self.max_packets:
            return "max_packets"
        return None

    def __eq__(self, other):
        return isinstance(other, StopRule) and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )

    def __repr__(self):
        fields = ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__
            if getattr(self, name) is not None
        )
        return "StopRule(%s)" % fields


# ---------------------------------------------------------------------- #
# Per-point accumulation
# ---------------------------------------------------------------------- #
def _merge_extras(batches):
    """Merge extra result keys across a point's batches, in batch order.

    Per key: values with a ``merge`` method fold via it, numpy arrays
    concatenate along the first axis, ints/floats (numpy or Python, bools
    excluded) sum, anything else keeps the last batch's value.
    """
    merged = {}
    for extras in batches:
        for key, value in extras.items():
            if key not in merged:
                merged[key] = value
            elif hasattr(merged[key], "merge"):
                merged[key] = merged[key].merge(value)
            elif isinstance(merged[key], np.ndarray):
                merged[key] = np.concatenate([merged[key], value])
            elif isinstance(merged[key], (int, float, np.integer, np.floating)) \
                    and not isinstance(merged[key], bool):
                merged[key] = merged[key] + value
            else:
                merged[key] = value
    return merged


class AdaptivePointState:
    """Accumulated adaptive measurement of one operating point."""

    __slots__ = ("point", "measurement", "packets", "batches", "extras",
                 "stop_reason", "error")

    def __init__(self, point):
        self.point = point
        self.measurement = None
        self.packets = 0
        self.batches = 0
        self.extras = []
        self.stop_reason = None
        self.error = None

    def next_batch(self, batch_packets):
        """The next :class:`MeasurementBatch` this point should run."""
        return MeasurementBatch(self.point, self.batches, batch_packets)

    def consume(self, batch, result, confidence=0.95):
        """Fold one batch's chunk-runner result into the state."""
        result = dict(result)
        try:
            errors = int(result.pop("errors"))
            trials = int(result.pop("trials"))
        except KeyError as exc:
            raise ValueError(
                "chunk-runner result for %s is missing the required %r key "
                "(got keys %r)" % (batch.label(), exc.args[0], sorted(result))
            ) from None
        if trials < 1:
            raise ValueError(
                "chunk-runner returned %d trials for %s; every batch must "
                "measure at least one trial" % (trials, batch.label())
            )
        sample = BerMeasurement(errors, trials, confidence=confidence)
        self.measurement = (
            sample if self.measurement is None else self.measurement.merge(sample)
        )
        self.packets += batch.num_packets
        self.batches += 1
        if result:
            self.extras.append(result)

    def row(self, stop=None):
        """The per-point output row: counts, interval, spend, stop reason."""
        row = dict(self.point.params)
        measurement = self.measurement
        if measurement is None:
            errors, trials, ber = 0, 0, float("nan")
            low, high = 0.0, 1.0
        else:
            errors, trials = measurement.errors, measurement.bits
            ber = measurement.ber
            low, high = measurement.interval
        looseness = (stop or StopRule()).looseness(measurement)
        row.update(
            errors=errors,
            trials=trials,
            ber=ber,
            ber_low=low,
            ber_high=high,
            rel_half_width=looseness,
            packets=self.packets,
            batches=self.batches,
            stop_reason=self.stop_reason,
        )
        if self.error is not None:
            row["error"] = self.error
        row.update(_merge_extras(self.extras))
        return row


# ---------------------------------------------------------------------- #
# Executor-facing dispatch shims
# ---------------------------------------------------------------------- #
class _BatchPoint:
    """Present one work item to :class:`SweepExecutor` as a sweep point.

    The executor only needs ``index`` (dispatch order within the round),
    ``params`` (merged into the row — empty here, the scheduler reassembles
    rows itself) and ``label`` (error reporting).  ``payload`` is a
    :class:`MeasurementBatch` or a
    :class:`~repro.analysis.fused.FusedBatchGroup` (which presents the
    same surface) and ``runner`` the item's runner.
    """

    __slots__ = ("index", "payload", "runner")

    def __init__(self, index, payload, runner=None):
        self.index = int(index)
        self.payload = payload
        self.runner = runner

    @property
    def params(self):
        return {}

    def label(self):
        return self.payload.label()

    def __repr__(self):
        return "_BatchPoint(%d: %s)" % (self.index, self.label())


def _run_batch_point(batch_point):
    """Picklable executor runner: one work item's runner on its payload."""
    return dict(batch_point.runner(batch_point.payload))


# ---------------------------------------------------------------------- #
# The trajectory state machine
# ---------------------------------------------------------------------- #
class AdaptiveTrajectory:
    """The executor-free core of an adaptive run, one round at a time.

    :class:`AdaptiveScheduler` owns the *loop* (rank, dispatch, fold,
    repeat); this class is the loop's state machine, pulled out so
    batch-granular callers — above all the characterisation service
    broker (:mod:`repro.service.broker`) — can interleave the batches of
    many concurrent runs through one shared worker fleet instead of
    blocking inside a per-run ``scheduler.run()`` call:

    * :meth:`start_round` selects this round's batches (loosest interval
      first, budget permitting) and debits the budget — exactly the
      decisions ``AdaptiveScheduler`` makes at a round barrier.
    * :meth:`consume` folds one batch's result back in, in any order; the
      next round may start once :attr:`round_in_flight` clears.
    * :meth:`rows` renders the accumulated states in grid order.

    Because batch contents are pure functions of ``(point, batch
    index)``, *who* runs a round's batches and in what order they return
    is invisible in the result: driving a trajectory by hand, through a
    scheduler or through the service fleet produces bit-for-bit the same
    rows, budget accounting and stop reasons.
    """

    def __init__(self, spec, stop=None, batch_packets=32, budget=None):
        if batch_packets < 1:
            raise ValueError("batch_packets must be positive")
        if budget is not None and budget < 1:
            raise ValueError("budget must be positive")
        if budget is None and (stop is None or stop.max_packets is None):
            raise ValueError(
                "unbounded adaptive trajectory: give it a budget or the "
                "StopRule a max_packets cap"
            )
        self.stop = stop
        self.batch_packets = int(batch_packets)
        self.budget_left = None if budget is None else int(budget)
        self.confidence = stop.confidence if stop is not None else 0.95
        self.states = [AdaptivePointState(point) for point in spec]
        self._outstanding = {}

    # ------------------------------------------------------------------ #
    @property
    def round_in_flight(self):
        """Whether a started round still has unconsumed batches."""
        return bool(self._outstanding)

    @property
    def finished(self):
        """Every point stopped and no batch is outstanding."""
        return not self._outstanding and all(
            state.stop_reason is not None for state in self.states)

    def _rank(self, states):
        """Active states, loosest measurement first, grid index tie-break."""
        rule = self.stop or StopRule()
        return sorted(
            states,
            key=lambda state: (-rule.looseness(state.measurement),
                               state.point.index),
        )

    def _affordable(self, ranked):
        """How many of the ranked states this round's budget can fund."""
        if self.budget_left is None:
            return len(ranked)
        return min(len(ranked), self.budget_left // self.batch_packets)

    def start_round(self):
        """Select and return this round's batches, debiting the budget.

        Empty when the trajectory is finished — including the case where
        the remaining budget cannot fund a single batch, in which case
        every still-active point is stopped with reason ``"budget"``
        first.  The budget counts *dispatched* traffic: every returned
        batch is debited here, whether its result later comes from a
        simulation, a cache or an error (a failed batch still simulated,
        or tried to, so it must not be silently refunded).
        """
        if self._outstanding:
            raise RuntimeError(
                "a round is still in flight (%d batch(es) unconsumed); "
                "consume() them before starting the next round"
                % len(self._outstanding))
        active = [s for s in self.states if s.stop_reason is None]
        if not active:
            return []
        ranked = self._rank(active)
        selected = ranked[:self._affordable(ranked)]
        if not selected:
            for state in active:
                state.stop_reason = "budget"
            return []
        batches = [state.next_batch(self.batch_packets) for state in selected]
        if self.budget_left is not None:
            self.budget_left -= sum(batch.num_packets for batch in batches)
        self._outstanding = {
            (batch.point.index, batch.index): state
            for state, batch in zip(selected, batches)
        }
        return batches

    def consume(self, batch, result):
        """Fold one outstanding batch's result in; returns its point state.

        ``result`` is a chunk-runner mapping (or a captured ``{"error":
        ...}`` row, which stops the point with reason ``"error"``).
        Batches of one round may be consumed in any order; consuming a
        batch that was never started raises.
        """
        key = (batch.point.index, batch.index)
        try:
            state = self._outstanding.pop(key)
        except KeyError:
            raise ValueError(
                "batch %s was not started by this trajectory's current "
                "round" % batch.label()) from None
        if is_error_result(result):
            state.stop_reason = "error"
            state.error = result["error"]
            return state
        state.consume(batch, result, confidence=self.confidence)
        if self.stop is not None:
            state.stop_reason = self.stop.evaluate(state.measurement,
                                                   state.packets)
        return state

    def rows(self):
        """The per-point rows accumulated so far, in grid order."""
        return [state.row(self.stop) for state in self.states]

    def __repr__(self):
        done = sum(1 for s in self.states if s.stop_reason is not None)
        return ("AdaptiveTrajectory(points=%d, stopped=%d, in_flight=%d, "
                "budget_left=%r)" % (len(self.states), done,
                                     len(self._outstanding), self.budget_left))


# ---------------------------------------------------------------------- #
# The scheduler
# ---------------------------------------------------------------------- #
class AdaptiveScheduler:
    """Drive a sweep adaptively under a global traffic budget.

    Each round, every unconverged point is ranked by
    :meth:`StopRule.looseness` (ties broken by grid index) and dispatched
    one :class:`MeasurementBatch` through the executor, loosest first; as
    points stop, the batches they no longer consume are — implicitly —
    budget reallocated to the points still running, which is how the
    starving high-SNR tail ends up with most of the traffic.  When the
    remaining budget cannot fund a round for every active point, only the
    loosest affordable subset runs; when it cannot fund a single batch,
    every still-active point stops with reason ``"budget"``.

    Parameters
    ----------
    stop:
        The :class:`StopRule` shared by every point.  ``None`` disables
        convergence checks entirely: points run round-robin until the
        budget is exhausted (pure budget-driven measurement).
    batch_packets:
        Packets per dispatched batch — the chunk-invariance unit.  Results
        for a given ``batch_packets`` never depend on backend or budget;
        changing ``batch_packets`` changes the random draws (it is part of
        the workload, like ``packet_bits``).
    budget:
        Global traffic budget in packets (``None`` for uncapped; the stop
        rule must then carry a ``max_packets`` cap so the run terminates).
    executor:
        The :class:`~repro.analysis.sweep.SweepExecutor` used to run each
        round's batches (default: a fresh serial executor).  The chunk
        runner must be picklable for a process executor, exactly as for a
        plain sweep.
    fused:
        When ``True`` (default) and the chunk-runner is the built-in link
        runner, each round's store-miss batches are grouped by
        :func:`~repro.analysis.fused.fuse_key` and simulated as fused
        tensor passes (see :mod:`repro.analysis.fused`).  Purely a
        throughput knob: under the exact float64 policy the rows are
        bit-for-bit identical with it on or off.
    """

    def __init__(self, stop=None, batch_packets=32, budget=None, executor=None,
                 fused=True):
        if batch_packets < 1:
            raise ValueError("batch_packets must be positive")
        if budget is not None and budget < 1:
            raise ValueError("budget must be positive")
        if budget is None and (stop is None or stop.max_packets is None):
            raise ValueError(
                "unbounded adaptive sweep: give the scheduler a budget or "
                "the StopRule a max_packets cap"
            )
        if executor is None:
            from repro.analysis.sweep import SweepExecutor

            executor = SweepExecutor("serial")
        self.stop = stop
        self.batch_packets = int(batch_packets)
        self.budget = None if budget is None else int(budget)
        self.executor = executor
        self.fused = bool(fused)

    # ------------------------------------------------------------------ #
    def run(self, spec, chunk_runner=None, on_error="raise", store=None):
        """Adaptively measure every point of ``spec``; rows in grid order.

        Each row is the point's ``params`` plus the accumulated counts,
        Wilson interval bounds, looseness, packets/batches spent, the
        ``stop_reason`` (``"converged"``, ``"target_errors"``,
        ``"ber_floor"``, ``"max_packets"``, ``"budget"`` or ``"error"``)
        and the merged extras.  ``on_error`` follows the executor contract:
        ``"raise"`` aborts on the first failing batch, ``"capture"`` stops
        the affected point with reason ``"error"`` and keeps going.

        ``store`` is an optional batch cache — a
        :class:`~repro.analysis.store.StoreView` keyed by ``(point
        spawn_key, batch index)``, normally supplied by
        :meth:`repro.analysis.scenario.Experiment.run`.  Batches found in
        the store are consumed without touching the executor; simulated
        batches are appended after they return.  Because a cached batch
        carries exactly the result its simulation would have produced,
        the trajectory — stopping decisions, budget accounting, rows —
        is bit-for-bit identical to the cold run's.  Cache hits debit the
        budget like any dispatched batch for the same reason: a warm run
        must replay the cold run's decisions, not rediscover them with
        free traffic.  Error rows are never cached.
        """
        if on_error not in ("raise", "capture"):
            raise ValueError("on_error must be 'raise' or 'capture'")
        if chunk_runner is None:
            chunk_runner = run_link_ber_batch
        trajectory = AdaptiveTrajectory(
            spec, stop=self.stop, batch_packets=self.batch_packets,
            budget=self.budget,
        )
        from repro.analysis.resolver import BatchResolver

        resolver = BatchResolver()
        # One worker pool for the whole run: a round often carries only a
        # few small batches, so paying pool startup per round would dwarf
        # the work (the session is a no-op for serial executors).
        with self.executor.session():
            while True:
                batches = trajectory.start_round()
                if not batches:
                    break
                resolutions, items = resolver.resolve(
                    store, chunk_runner, batches, fused=self.fused)
                for resolution in resolutions:
                    if resolution.result is not None:
                        trajectory.consume(resolution.batch,
                                           resolution.result)
                # In "raise" mode the executor itself raises SweepError
                # naming the failing (point, batch) with the full worker
                # traceback; per-member failures inside a fused group are
                # captured by its runner instead and re-raised below with
                # the member's label.
                results = self.executor.run(
                    [_BatchPoint(position, item.payload, item.runner)
                     for position, item in enumerate(items)],
                    _run_batch_point, on_error=on_error)
                for item, result in zip(items, results):
                    for work in resolver.complete(item.key, result):
                        if work.put_error is not None:
                            raise work.put_error
                        for _, batch in work.subscribers:
                            if on_error == "raise" \
                                    and is_error_result(work.result):
                                raise SweepError(
                                    _BatchPoint(batches.index(batch), batch),
                                    work.result["error"])
                            trajectory.consume(batch, work.result)
        return trajectory.rows()

    def __repr__(self):
        return "AdaptiveScheduler(stop=%r, batch_packets=%d, budget=%r, executor=%r)" % (
            self.stop, self.batch_packets, self.budget, self.executor,
        )


# ---------------------------------------------------------------------- #
# Built-in chunk-runner
# ---------------------------------------------------------------------- #
def run_link_ber_batch(batch):
    """Picklable chunk-runner: one batch of link packets at one point.

    The adaptive analogue of
    :func:`repro.analysis.scenario.run_scenario_point`: understands the same
    parameters (``rate_mbps``, ``snr_db``, ``decoder``, ``packet_bits``,
    ``batch_size``, ``fading``, ``llr_format``, ``demapper_scaled``), but
    simulates ``batch.num_packets`` packets seeded from ``batch.seed``.
    Absolute packet indices (for swept-SNR or fading callables) start at
    ``batch.first_packet_index``, so a point's fading trace is one
    continuous process regardless of how many batches end up running.
    """
    from repro.analysis.sweep import link_simulator_for_params

    simulator = link_simulator_for_params(
        batch.point.params, seed=batch.seed, point_seed=batch.point.seed
    )
    result = simulator.run(
        batch.num_packets,
        batch_size=int(batch.point.params.get("batch_size", batch.num_packets)),
        start_index=batch.first_packet_index,
    )
    return {
        "errors": int(result.bit_errors.sum()),
        "trials": int(result.num_bits),
        "packet_errors": int(result.packet_errors.sum()),
    }
