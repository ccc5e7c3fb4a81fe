"""Parameter sweeps: declarative grids and serial/process executors.

The benchmark harness repeats the same experiment across a grid of operating
points (the eight PHY rates, a range of SNRs, a set of block lengths).  This
module turns that pattern into a small subsystem:

* :class:`SweepSpec` declares the grid (named axes, shared constants, a
  master seed) and derives one independent random seed per point.
* :class:`SweepExecutor` runs a picklable point-runner over the grid with a
  ``serial`` or ``process`` backend and aggregates rows in grid order.

The top-level entry point is one layer up: describe the link as
a :class:`~repro.analysis.scenario.Scenario`, the grid as a
:class:`SweepSpec`, and run both through an
:class:`~repro.analysis.scenario.Experiment` — which also unlocks the
content-addressed result store (:mod:`repro.analysis.store`).

Parallel sweeps
---------------
One :class:`~repro.analysis.link.LinkSimulator` per (rate, SNR) point is
embarrassingly parallel and already deterministic per seed, so a sweep can
be sharded across worker processes without changing a single result bit.
The design mirrors the batching contract in :mod:`repro.analysis.link`
(results independent of the ``batch_size`` split): here, results are
independent of the *executor* — backend, worker count and dispatch order
never change a row.

Three mechanisms make that hold:

``seed derivation``
    Each point's :class:`numpy.random.SeedSequence` is derived from the
    spec's master seed with a ``spawn_key`` computed from the point's axis
    coordinates — the same parent/child derivation ``SeedSequence.spawn``
    performs, but keyed by *what the point is* instead of a sequential
    counter.  Reordering axis values or adding workers therefore cannot
    move a point onto a different stream, and two distinct points never
    share one.  (For run-to-run stable seeds, axis values should be
    primitives — numbers, strings, bools, tuples — whose ``repr`` does not
    change between processes.)

``one capture, ordered aggregation``
    Both backends run every point through the same capture
    (:func:`~repro.analysis.adaptive.capture_result`): the serial backend
    in a plain loop, the process backend as one work item per point on a
    :class:`~repro.service.fleet.WorkerFleet` of child processes (the
    point-runner must be picklable, i.e. a module-level callable).  Rows
    are reassembled by point index, so the output order is the grid order
    no matter which worker finished first, and a point whose worker died
    is re-run on a replacement worker with the same seed.

``per-point error capture``
    A runner exception is caught *in the worker* and reported with the
    failing operating point attached (:class:`SweepError`, or an ``error``
    row when ``on_error="capture"``) instead of aborting the whole sweep
    with a bare pickled traceback.

Rows are plain dicts (point parameters + runner results), and
:func:`rows_to_json` renders them as JSON lines that
``benchmarks/_bench_utils.emit`` can persist for trajectory tracking.

Adaptive measurement depth lives one layer up, in
:mod:`repro.analysis.adaptive`: it extends the per-point seed derivation
one level down (per fixed-size batch) and drives this executor round by
round under a global traffic budget.
"""

import contextlib
import hashlib
import itertools
import json
import math
import os

import numpy as np

#: Environment variable read by :func:`executor_from_env`.
WORKERS_ENV = "REPRO_SWEEP_WORKERS"


# ---------------------------------------------------------------------- #
# Seed derivation
# ---------------------------------------------------------------------- #
def _stable_token(value):
    """A deterministic byte token for one axis value.

    Primitives and containers of primitives encode via ``repr`` (stable
    across processes and runs for numbers, strings, bools and ``None``);
    the type name is included so ``1``, ``1.0`` and ``"1"`` stay distinct.
    Mappings encode by sorted key, so two dicts with different insertion
    orders produce the same token.
    """
    if isinstance(value, (tuple, list)):
        inner = b",".join(_stable_token(item) for item in value)
        return b"%s(%s)" % (type(value).__name__.encode(), inner)
    if isinstance(value, dict):
        inner = b",".join(
            b"%s=%s" % (_stable_token(key), _stable_token(item))
            for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))
        )
        return b"dict(%s)" % inner
    return b"%s:%s" % (type(value).__name__.encode(), repr(value).encode())


def point_spawn_key(coordinates):
    """The ``SeedSequence`` spawn key for one point's axis coordinates.

    A 128-bit digest of the sorted ``(axis name, value)`` pairs, returned
    as four ``uint32`` words.  Depends only on the coordinates themselves:
    grid position, dispatch order and worker count cannot change it.
    """
    blob = b";".join(
        b"%s=%s" % (str(name).encode(), _stable_token(value))
        for name, value in sorted((str(k), v) for k, v in coordinates.items())
    )
    digest = hashlib.sha256(blob).digest()
    return tuple(
        int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)
    )


# ---------------------------------------------------------------------- #
# Specs and points
# ---------------------------------------------------------------------- #
class SweepPoint:
    """One operating point of a sweep.

    Attributes
    ----------
    index:
        Position in the grid (row-major over the spec's axes).
    params:
        Mapping of parameter name to value — the spec's constants plus this
        point's axis coordinates.
    seed_sequence:
        Independent :class:`numpy.random.SeedSequence` for this point.
    """

    __slots__ = ("index", "params", "coordinates", "seed_sequence")

    def __init__(self, index, params, coordinates, seed_sequence):
        self.index = int(index)
        self.params = dict(params)
        self.coordinates = dict(coordinates)
        self.seed_sequence = seed_sequence

    @property
    def seed(self):
        """A 64-bit integer seed drawn from :attr:`seed_sequence`.

        Convenient for APIs that take an integer master seed (e.g.
        :class:`~repro.analysis.link.LinkSimulator`).
        """
        return int(self.seed_sequence.generate_state(1, np.uint64)[0])

    def __getitem__(self, name):
        return self.params[name]

    def label(self):
        """Human-readable ``name=value`` description of the coordinates."""
        return ", ".join(
            "%s=%r" % (name, value) for name, value in self.coordinates.items()
        )

    def __eq__(self, other):
        return (
            isinstance(other, SweepPoint)
            and self.index == other.index
            and self.params == other.params
        )

    def __repr__(self):
        return "SweepPoint(%d: %s)" % (self.index, self.label())


class SweepSpec:
    """A declarative sweep grid.

    Parameters
    ----------
    axes:
        Mapping of axis name to iterable of values.  The grid is the
        row-major cross product (first axis outermost).
    constants:
        Optional parameters shared by every point (workload knobs like
        ``packet_bits``).  They appear in every point's ``params`` but do
        not enter the seed derivation, so scaling a workload up keeps each
        point on the same random stream.
    seed:
        Master seed; per-point seeds are derived from it via
        :func:`point_spawn_key` (see the module docstring).
    """

    def __init__(self, axes, constants=None, seed=0):
        self.axes = {str(name): list(values) for name, values in dict(axes).items()}
        if not self.axes:
            raise ValueError("at least one axis is required")
        self.constants = dict(constants or {})
        overlap = set(self.axes) & set(self.constants)
        if overlap:
            raise ValueError(
                "parameters cannot be both axis and constant: %s"
                % ", ".join(sorted(overlap))
            )
        self.seed = seed
        self._root = np.random.SeedSequence(seed)

    @property
    def axis_names(self):
        return tuple(self.axes)

    @property
    def seed_entropy(self):
        """The root ``SeedSequence`` entropy every point seed derives from."""
        return self._root.entropy

    @property
    def num_points(self):
        return math.prod(len(values) for values in self.axes.values())

    def __len__(self):
        return self.num_points

    def seed_sequence_for(self, coordinates):
        """The :class:`~numpy.random.SeedSequence` of the point at ``coordinates``."""
        return np.random.SeedSequence(
            entropy=self._root.entropy, spawn_key=point_spawn_key(coordinates)
        )

    def points(self):
        """All grid points, in row-major order."""
        names = self.axis_names
        points = []
        for index, combo in enumerate(itertools.product(*self.axes.values())):
            coordinates = dict(zip(names, combo))
            params = dict(self.constants)
            params.update(coordinates)
            points.append(
                SweepPoint(index, params, coordinates,
                           self.seed_sequence_for(coordinates))
            )
        return points

    def __iter__(self):
        return iter(self.points())

    def __repr__(self):
        shape = "x".join(str(len(values)) for values in self.axes.values())
        return "SweepSpec(%s [%s], seed=%r)" % (
            ", ".join(self.axis_names), shape, self.seed,
        )


# ---------------------------------------------------------------------- #
# Execution
# ---------------------------------------------------------------------- #
class SweepError(RuntimeError):
    """A point-runner failed; the failing operating point is attached.

    The message names the point (index and coordinates) and carries the
    failure detail: the full traceback when the point ran in this
    process (serial backend), its first line — exception type and
    message, or the worker death — when it ran on a fleet worker
    (process backend).  The fleet logs the full detail once, at WARNING
    and naming the point, on the ``repro.service.fleet`` logger.
    """

    def __init__(self, point, detail):
        self.point = point
        self.detail = detail
        super().__init__(
            "sweep point %d (%s) failed: %s" % (point.index, point.label(), detail)
        )


def _run_on_fleet(fleet, runner, points):
    """One fleet item per point, keyed by point index; results in order."""
    for point in points:
        fleet.submit(point.index, runner, point)
    results = {}
    while len(results) < len(points):
        results.update(fleet.poll(timeout=1.0))
    return [results[point.index] for point in points]


class SweepExecutor:
    """Run a point-runner over a :class:`SweepSpec`.

    Parameters
    ----------
    backend:
        ``"serial"`` (in-process loop) or ``"process"`` (the child-process
        workers of a :class:`~repro.service.fleet.WorkerFleet`, which
        re-run a point whose worker died; the runner and every axis value
        must be picklable).
    max_workers:
        Process count for the ``process`` backend (default
        ``os.cpu_count()``).
    mp_context:
        Optional :mod:`multiprocessing` context or start-method name
        (``"fork"``, ``"spawn"``, ``"forkserver"``).
    """

    def __init__(self, backend="serial", max_workers=None, mp_context=None):
        if backend not in ("serial", "process"):
            raise ValueError("unknown backend %r (use 'serial' or 'process')"
                             % (backend,))
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive")
        self.backend = backend
        self.max_workers = max_workers
        self.mp_context = mp_context
        self._pool = None

    def _resolved_workers(self):
        return self.max_workers or os.cpu_count() or 1

    def _new_fleet(self, workers):
        # Imported here: the serial backend must not pull in the service
        # package, and repro.service imports this module.
        from repro.service.fleet import WorkerFleet

        return WorkerFleet(workers=workers, backend="process",
                           mp_context=self.mp_context)

    @contextlib.contextmanager
    def session(self):
        """Keep one worker fleet alive across several :meth:`run` calls.

        By default the process backend starts (and stops) its fleet
        inside every :meth:`run`, which is the right lifetime for a
        one-shot sweep but wasteful for callers that dispatch many small
        rounds — the adaptive scheduler pays worker startup per *round*
        otherwise.  Inside a ``session()`` the fleet is started once and
        reused; results are unaffected (the fleet is pure transport).
        No-op for the serial backend, and re-entrant (a nested session
        reuses the outer fleet).
        """
        if self.backend != "process" or self._pool is not None:
            yield self
            return
        with self._new_fleet(self._resolved_workers()) as fleet:
            self._pool = fleet
            try:
                yield self
            finally:
                self._pool = None

    def run(self, spec, runner, on_error="raise"):
        """Run ``runner`` on every point and return rows in grid order.

        Each row is the point's ``params`` merged with the runner's result
        mapping (non-dict results are wrapped as ``{"result": value}``).
        A point fails when its runner raises, when its worker died more
        often than the fleet retries, or when its result is an error row
        (:func:`~repro.analysis.adaptive.is_error_result`).  ``on_error``
        is ``"raise"`` (raise :class:`SweepError` for the first failing
        point, in grid order) or ``"capture"`` (emit an ``error`` row for
        failed points and keep going).
        """
        if on_error not in ("raise", "capture"):
            raise ValueError("on_error must be 'raise' or 'capture'")
        points = list(spec)
        if not points:
            return []
        # Imported here: repro.analysis.adaptive imports this module.
        from repro.analysis.adaptive import capture_result, is_error_result

        if self.backend == "serial":
            results = []
            for point in points:
                result, error = capture_result(runner, point)
                results.append({"error": error} if error is not None
                               else result)
        elif self._pool is not None:
            results = _run_on_fleet(self._pool, runner, points)
        else:
            workers = min(self._resolved_workers(), len(points))
            with self._new_fleet(workers) as fleet:
                results = _run_on_fleet(fleet, runner, points)

        rows = []
        for point, result in zip(points, results):
            row = dict(point.params)
            if is_error_result(result):
                if on_error == "raise":
                    raise SweepError(point, result["error"])
                row["error"] = result["error"].splitlines()[0]
            else:
                row.update(result)
            rows.append(row)
        return rows

    def __repr__(self):
        return "SweepExecutor(backend=%r, max_workers=%r)" % (
            self.backend, self.max_workers,
        )


def executor_from_env(default_backend="serial"):
    """Build an executor from the ``REPRO_SWEEP_WORKERS`` environment knob.

    ``REPRO_SWEEP_WORKERS`` unset, empty or ``1`` selects the
    ``default_backend`` (serial unless overridden); any larger integer
    selects the process backend with that many workers.  Benchmarks use
    this so the harness can shard sweeps without code changes.

    Anything else — non-integers, zero, negatives — raises a
    :class:`ValueError` naming the variable immediately, instead of
    silently falling back to serial or crashing deep inside the worker
    pool with an unrelated traceback.
    """
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return SweepExecutor(default_backend)
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(
            "%s must be a positive integer worker count; got %r"
            % (WORKERS_ENV, raw)) from None
    if workers <= 0:
        raise ValueError(
            "%s must be a positive integer worker count; got %r"
            % (WORKERS_ENV, raw))
    if workers > 1:
        return SweepExecutor("process", max_workers=workers)
    return SweepExecutor(default_backend)


# ---------------------------------------------------------------------- #
# Link simulators for point params, and row emission
# ---------------------------------------------------------------------- #
class _PointFading:
    """Picklable per-packet flat-fading gain for one operating point.

    Samples one :class:`~repro.channel.fading.JakesFadingProcess` at
    ``packet_index * packet_interval_s``: the gain is a pure function of
    the absolute packet index, so a point's fading trace is one continuous
    process no matter how the run is split into batches.
    """

    def __init__(self, process, packet_interval_s):
        self.process = process
        self.packet_interval_s = float(packet_interval_s)

    def __call__(self, packet_index):
        return complex(self.process.gain(packet_index * self.packet_interval_s))


def _resolve_fading(fading, point_seed):
    """Turn the declarative ``fading`` parameter into a gain callable.

    ``fading`` may be ``None`` (AWGN only), a number (Doppler frequency in
    Hz) or a mapping with any of ``doppler_hz``, ``packet_interval_s``,
    ``num_oscillators``, ``mean_power`` and ``seed``.  The fading process
    seed defaults to the *point* seed (not a batch seed), keeping the trace
    identical across every batch of an adaptive run.
    """
    if fading is None:
        return None
    if callable(fading):
        return fading
    from repro.channel.fading import JakesFadingProcess

    spec = {"doppler_hz": float(fading)} if np.isscalar(fading) else dict(fading)
    interval_s = spec.pop("packet_interval_s", 1e-3)
    spec.setdefault("seed", point_seed)
    return _PointFading(JakesFadingProcess(**spec), interval_s)


def _resolve_llr_format(llr_format):
    """Turn the declarative ``llr_format`` parameter into a fixed-point format.

    ``None`` keeps the float demapper output; an integer asks for that many
    total soft bits (via :func:`repro.fixedpoint.fixed.llr_quantizer`); a
    mapping passes keyword arguments to the quantizer; a format object
    passes through untouched.  Floats and bools are rejected here rather
    than crashing obscurely deep in the demapper.
    """
    if llr_format is None:
        return None
    if isinstance(llr_format, bool) or isinstance(llr_format, (float, np.floating)):
        raise ValueError(
            "llr_format must be None, an integer soft bit-width, a mapping "
            "of llr_quantizer arguments or a fixed-point format object; "
            "got %r" % (llr_format,)
        )
    from repro.fixedpoint.fixed import llr_quantizer

    if isinstance(llr_format, dict):
        return llr_quantizer(**llr_format)
    if isinstance(llr_format, (int, np.integer)):
        return llr_quantizer(int(llr_format))
    return llr_format


def link_simulator_for_params(params, seed, point_seed=None):
    """Build the :class:`~repro.analysis.link.LinkSimulator` a point describes.

    Shared by the fixed-depth point-runner
    (:func:`repro.analysis.scenario.run_scenario_point`) and the adaptive
    chunk-runner (:func:`repro.analysis.adaptive.run_link_ber_batch`):
    ``seed`` seeds the simulator's payload/noise streams (the point seed
    for a fixed run, the batch seed for an adaptive one), while
    ``point_seed`` anchors per-point processes such as fading that must
    stay identical across batches.
    """
    from repro.analysis.link import LinkSimulator
    from repro.phy.params import rate_by_mbps

    return LinkSimulator(
        rate_by_mbps(params["rate_mbps"]),
        snr_db=params["snr_db"],
        decoder=params.get("decoder", "bcjr"),
        packet_bits=int(params.get("packet_bits", 1704)),
        seed=seed,
        llr_format=_resolve_llr_format(params.get("llr_format")),
        demapper_scaled=bool(params.get("demapper_scaled", False)),
        fading_gain=_resolve_fading(
            params.get("fading"), seed if point_seed is None else point_seed
        ),
        dtype=params.get("dtype"),
    )


def _json_default(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError("%r (type %s) is not JSON-serialisable"
                    % (value, type(value).__name__))


def rows_to_json(rows):
    """Render sweep rows as JSON lines for ``benchmarks/_bench_utils.emit``.

    numpy scalars and arrays are converted to plain Python values (arrays
    to nested lists).  Anything else non-serialisable raises a
    :class:`TypeError` naming the offending row key, so a benchmark that
    leaks an object into its rows fails at emission with a usable message
    instead of silently recording a ``repr`` the trajectory tooling cannot
    parse.
    """
    lines = []
    for index, row in enumerate(rows):
        try:
            lines.append(json.dumps(row, default=_json_default))
        except TypeError:
            for key, value in row.items():
                try:
                    json.dumps({key: value}, default=_json_default)
                except TypeError:
                    raise TypeError(
                        "sweep row %d is not JSON-serialisable at key %r: "
                        "%r (type %s); convert it to JSON/numpy values or "
                        "drop the key before emitting"
                        % (index, key, value, type(value).__name__)
                    ) from None
            raise
    return "\n".join(lines)
