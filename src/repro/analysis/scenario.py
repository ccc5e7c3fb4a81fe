"""Declarative link scenarios and the unified experiment front door.

Every figure and ablation in this repository describes the same thing: a
*link configuration* (code rate/decoder, channel and fading, LLR format
and demapper scaling, packet shape) swept over a grid of operating points
to some target measurement depth.  The point-runners receive that
description as a plain ``point.params`` dict; this module makes it first
class:

* :class:`Scenario` is a validated, frozen dataclass naming the link
  configuration.  It round-trips through :meth:`Scenario.to_dict` /
  :meth:`Scenario.from_dict` and has a canonical
  :meth:`Scenario.content_hash` — the identity the result store
  (:mod:`repro.analysis.store`) files curves under.
* :class:`Experiment` is the one front door for running a scenario over a
  :class:`~repro.analysis.sweep.SweepSpec`: fixed depth (``stop=None``),
  adaptive depth (``stop=StopRule(...)``), serial or process execution
  (the ``executor`` argument of :meth:`Experiment.run`), and optional
  persistence/resume through a :class:`~repro.analysis.store.ResultStore`.
* :func:`run_scenario_point` is the canonical picklable link point-runner
  behind the fixed-depth default.

Scenario versus workload knobs
------------------------------
A :class:`Scenario` holds only what changes *the physics* of a measured
bit: rate, SNR, decoder, packet shape, fading, LLR quantisation, demapper
scaling.  Knobs that change how the measurement is *executed* — packet
counts, simulation ``batch_size``, stopping rules, budgets, executors —
deliberately stay outside, so the scenario hash is stable across
re-characterisations at different depths.  That split is exactly what
makes batch-level resume correct: a re-run with a tighter
:class:`~repro.analysis.adaptive.StopRule` maps onto the same store
namespace and only simulates the batch indices the looser run never
reached.

A scenario field left ``None`` means "supplied per operating point":
``Scenario(snr_db=None)`` with an ``snr_db`` sweep axis is the usual BER
curve, while ``Scenario(snr_db=6.0)`` pins the channel and sweeps
something else (bit-widths, window lengths, ...).

Declarative versus object-valued fields
---------------------------------------
``fading``, ``llr_format``, ``snr_db`` and ``decoder`` also accept the
callables/objects the simulator layer understands (a gain callable, a
fixed-point format instance, a decoder instance).  Such a scenario still
runs, but it has no canonical serialised form, so :meth:`to_dict` and
:meth:`content_hash` refuse it with an error naming the field — use the
declarative spelling (numbers and mappings) when you want persistence.
"""

import dataclasses
import hashlib
import json
from dataclasses import dataclass, fields

import numpy as np

from repro.analysis.sweep import SweepSpec, _stable_token

#: Keyword arguments a declarative ``fading`` mapping may carry (the
#: signature of :class:`repro.channel.fading.JakesFadingProcess` plus the
#: per-packet sampling interval).
FADING_KEYS = ("doppler_hz", "packet_interval_s", "num_oscillators",
               "mean_power", "seed")

_NUMBER_TYPES = (int, float, np.integer, np.floating)


def _is_number(value):
    return isinstance(value, _NUMBER_TYPES) and not isinstance(value, bool)


@dataclass(frozen=True)
class Scenario:
    """A validated, frozen description of one link configuration.

    Parameters
    ----------
    rate_mbps:
        802.11a/g data rate in Mb/s (the code rate/modulation pair), or
        ``None`` when the rate is a sweep axis.
    snr_db:
        Es/N0 of the AWGN component in dB, or ``None`` when the SNR is a
        sweep axis.  (A callable ``packet_index -> snr_db`` is accepted
        for swept-SNR experiments but is not declarative.)
    decoder:
        Decoder name (``"bcjr"``, ``"sova"``, ``"viterbi"``), or ``None``
        when the decoder is a sweep axis.  Decoder classes/instances are
        accepted but not declarative.
    packet_bits:
        Payload bits per packet (the paper's Figure 6 uses 1704), or
        ``None`` when swept.
    fading:
        ``None`` for AWGN only, a Doppler frequency in Hz, or a mapping
        with keys from :data:`FADING_KEYS`.  A gain callable is accepted
        but not declarative.
    llr_format:
        ``None`` for float demapper output, an integer total soft
        bit-width, or a mapping of
        :func:`repro.fixedpoint.fixed.llr_quantizer` arguments.  A format
        object is accepted but not declarative.  Floats and bools are
        rejected outright (a fractional bit-width is always a bug).
    demapper_scaled:
        ``True`` for the ideal (SNR-scaled) demapper instead of the
        hardware one.  Normalised to a plain bool.
    dtype:
        Working-precision policy name: ``"float64"`` (default — the exact
        reference chain) or ``"float32"`` (the opt-in approximate fast
        path; see :mod:`repro.phy.dtype`).  ``None`` normalises to
        ``"float64"``.  The default is *omitted* from :meth:`to_dict` and
        therefore from :meth:`content_hash`, so every pre-existing
        scenario hash — and every result-store namespace filed under it —
        is unchanged; a float32 scenario hashes (and is stored)
        differently, because its measured bits genuinely differ.
    """

    rate_mbps: object = None
    snr_db: object = None
    decoder: object = "bcjr"
    packet_bits: object = 1704
    fading: object = None
    llr_format: object = None
    demapper_scaled: object = False
    dtype: object = "float64"

    def __post_init__(self):
        if self.rate_mbps is not None and not (
                _is_number(self.rate_mbps) and self.rate_mbps > 0):
            raise ValueError(
                "rate_mbps must be a positive number or None; got %r"
                % (self.rate_mbps,))
        if self.snr_db is not None and not _is_number(self.snr_db) \
                and not callable(self.snr_db):
            raise ValueError(
                "snr_db must be a number, a packet_index -> snr_db callable "
                "or None; got %r" % (self.snr_db,))
        if self.decoder is not None and isinstance(self.decoder, str) \
                and not self.decoder:
            raise ValueError("decoder name must be non-empty")
        if self.packet_bits is not None:
            if not _is_number(self.packet_bits) or int(self.packet_bits) < 1 \
                    or self.packet_bits != int(self.packet_bits):
                raise ValueError(
                    "packet_bits must be a positive integer or None; got %r"
                    % (self.packet_bits,))
            object.__setattr__(self, "packet_bits", int(self.packet_bits))
        if self.fading is not None and not callable(self.fading):
            if _is_number(self.fading):
                if self.fading <= 0:
                    raise ValueError(
                        "a numeric fading value is a Doppler frequency in Hz "
                        "and must be positive; got %r" % (self.fading,))
            else:
                try:
                    spec = dict(self.fading)
                except (TypeError, ValueError):
                    raise ValueError(
                        "fading must be None, a Doppler frequency in Hz, a "
                        "mapping with keys %s or a gain callable; got %r"
                        % (", ".join(FADING_KEYS), self.fading)) from None
                unknown = set(spec) - set(FADING_KEYS)
                if unknown:
                    raise ValueError(
                        "unknown fading key(s) %s; allowed keys are %s"
                        % (", ".join(sorted(map(str, unknown))),
                           ", ".join(FADING_KEYS)))
                object.__setattr__(self, "fading", spec)
        if self.llr_format is not None:
            if isinstance(self.llr_format, bool) \
                    or isinstance(self.llr_format, (float, np.floating)):
                raise ValueError(
                    "llr_format must be None, an integer soft bit-width, a "
                    "mapping of llr_quantizer arguments or a fixed-point "
                    "format object; got %r" % (self.llr_format,))
            if isinstance(self.llr_format, (int, np.integer)):
                if self.llr_format < 1:
                    raise ValueError(
                        "llr_format bit-width must be positive; got %r"
                        % (self.llr_format,))
                object.__setattr__(self, "llr_format", int(self.llr_format))
            elif isinstance(self.llr_format, dict):
                object.__setattr__(self, "llr_format", dict(self.llr_format))
        object.__setattr__(self, "demapper_scaled", bool(self.demapper_scaled))
        dtype = "float64" if self.dtype is None else self.dtype
        if dtype not in ("float64", "float32"):
            raise ValueError(
                "dtype must be 'float64', 'float32' or None; got %r"
                % (self.dtype,))
        object.__setattr__(self, "dtype", dtype)

    # ------------------------------------------------------------------ #
    # Declarative form
    # ------------------------------------------------------------------ #
    def _non_declarative_field(self):
        """The name of the first object-valued field, or ``None``."""
        if callable(self.snr_db):
            return "snr_db"
        if self.decoder is not None and not isinstance(self.decoder, str):
            return "decoder"
        if self.fading is not None and callable(self.fading):
            return "fading"
        if self.llr_format is not None \
                and not isinstance(self.llr_format, (int, dict)):
            return "llr_format"
        return None

    @property
    def is_declarative(self):
        """Whether every field has a canonical serialised form."""
        return self._non_declarative_field() is None

    def to_dict(self):
        """The canonical plain-data form, suitable for JSON round-trips.

        Raises :class:`ValueError` naming the offending field when the
        scenario carries an object-valued (non-declarative) value.
        """
        bad = self._non_declarative_field()
        if bad is not None:
            raise ValueError(
                "Scenario field %r holds an object value (%r) and has no "
                "canonical serialised form; use the declarative spelling "
                "(numbers/mappings) for to_dict()/content_hash()"
                % (bad, getattr(self, bad)))
        out = {}
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name == "dtype" and value == "float64":
                # The default policy is omitted so pre-existing scenario
                # hashes (and their store namespaces) stay stable; float32
                # versions the hash because its results genuinely differ.
                continue
            if isinstance(value, np.integer):
                value = int(value)
            elif isinstance(value, np.floating):
                value = float(value)
            elif isinstance(value, dict):
                value = dict(value)
            out[field.name] = value
        return out

    @classmethod
    def from_dict(cls, data):
        """Rebuild a scenario from :meth:`to_dict` output."""
        data = dict(data)
        known = {field.name for field in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                "unknown Scenario field(s): %s (known fields: %s)"
                % (", ".join(sorted(unknown)), ", ".join(sorted(known))))
        return cls(**data)

    @classmethod
    def from_params(cls, params):
        """Build a scenario from a sweep point's ``params`` dict.

        Picks out the link-configuration keys and ignores workload knobs
        (``num_packets``, ``batch_size``, ``batch_packets``, custom runner
        parameters).  :func:`run_scenario_point` validates every point
        through it, so its checks are the Scenario's, not an ad-hoc copy.
        """
        known = {field.name for field in fields(cls)}
        picked = {name: params[name] for name in known if name in params}
        return cls(**picked)

    def content_hash(self):
        """A canonical SHA-256 hex digest of the declarative form.

        Two scenarios hash equal iff their :meth:`to_dict` forms are
        equal; value *types* are part of the identity (``24`` and ``24.0``
        differ), matching the sweep layer's seed-derivation tokens.
        """
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def params(self):
        """The sweep-constants dict this scenario contributes.

        ``None`` fields are omitted (they arrive per point, from sweep
        axes); ``demapper_scaled`` is omitted when ``False`` so a default
        scenario adds nothing a legacy constants dict did not carry.
        """
        out = {}
        for name in ("rate_mbps", "snr_db", "decoder", "packet_bits",
                     "fading", "llr_format"):
            value = getattr(self, name)
            if value is not None:
                out[name] = dict(value) if isinstance(value, dict) else value
        if self.demapper_scaled:
            out["demapper_scaled"] = True
        if self.dtype != "float64":
            out["dtype"] = self.dtype
        return out

    def replace(self, **changes):
        """A copy of this scenario with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def __hash__(self):
        # The generated frozen-dataclass hash chokes on the documented
        # mapping spellings of fading/llr_format; hash those by sorted
        # items instead so equal scenarios hash equal.
        def canonical(value):
            if isinstance(value, dict):
                return tuple(sorted(value.items()))
            return value

        return hash(tuple(canonical(getattr(self, field.name))
                          for field in fields(self)))


def is_scenario_like(obj):
    """Whether ``obj`` implements the scenario protocol.

    The :class:`Experiment` front door (and the service request layer)
    accept any scenario class that provides the four members the
    declarative stack actually uses — ``to_dict()``, ``content_hash()``,
    ``params()`` and ``is_declarative`` — not just :class:`Scenario`
    itself.  :class:`repro.mac.rateadapt.scenario.RateAdaptScenario` is
    the first such sibling; new workload families add theirs the same
    way instead of widening this module.
    """
    return all(callable(getattr(obj, name, None))
               for name in ("to_dict", "content_hash", "params")) \
        and hasattr(obj, "is_declarative")


# ---------------------------------------------------------------------- #
# Canonical link point-runner
# ---------------------------------------------------------------------- #
def run_scenario_point(point):
    """Picklable point-runner: one link BER measurement per operating point.

    The canonical implementation behind fixed-depth link experiments.  The
    link configuration is validated as a :class:`Scenario` built from the
    point's params (axes plus constants); every point simulates exactly
    ``num_packets`` packets from one seed stream (the fixed-depth figure
    benchmarks under ``benchmarks/`` rely on every point simulating the
    same packets).

    Adaptive depth is not a point param: a ``stop`` param is refused with
    a :class:`ValueError` rather than silently run at fixed depth — pass
    the rule as ``Experiment(stop=...)``.
    """
    params = point.params
    if params.get("stop") is not None:
        raise ValueError(
            "run_scenario_point runs at fixed depth and does not read a "
            "'stop' param; pass the StopRule as Experiment(stop=...) for "
            "adaptive depth")
    Scenario.from_params(params)  # validate the link description early

    from repro.analysis.sweep import link_simulator_for_params

    simulator = link_simulator_for_params(params, seed=point.seed)
    result = simulator.run(
        int(params.get("num_packets", 32)),
        batch_size=int(params.get("batch_size", 32)),
    )
    return {
        "seed": point.seed,
        "num_bits": int(result.num_bits),
        "bit_errors": int(result.bit_errors.sum()),
        "ber": result.bit_error_rate,
        "packet_error_rate": result.packet_error_rate,
    }


# ---------------------------------------------------------------------- #
# The front door
# ---------------------------------------------------------------------- #
class Experiment:
    """One link scenario, swept over a grid, to a chosen measurement depth.

    The unified front door over the sweep and adaptive subsystems:
    fixed-depth and adaptive measurement, serial and process execution,
    and store-backed resume are all selected by arguments rather than by
    choosing between ``SweepExecutor.run`` and ``AdaptiveScheduler`` call
    styles.

    Parameters
    ----------
    scenario:
        The :class:`Scenario` under test.  Its non-``None`` fields become
        sweep constants; fields left ``None`` must arrive from the sweep
        axes.  May be ``None`` for experiments whose custom runner does
        not describe a link (a store then cannot be attached).
    sweep:
        The :class:`~repro.analysis.sweep.SweepSpec` naming the operating
        point axes, any extra workload constants (``num_packets``,
        ``batch_size``, runner-specific knobs) and the master seed.
        ``stop`` must *not* appear among the constants — it is an
        experiment-level argument here, which is what keeps the store
        namespace independent of the stopping rule.
    stop:
        ``None`` for fixed depth (every point runs ``num_packets``
        packets through the point-runner), or a
        :class:`~repro.analysis.adaptive.StopRule` for adaptive depth
        (fixed-size batches until the rule fires, scheduled by an
        :class:`~repro.analysis.adaptive.AdaptiveScheduler`).
    store:
        Optional :class:`~repro.analysis.store.ResultStore`.  Requires a
        declarative ``scenario`` and a ``stop`` rule (only the
        batch-invariant adaptive path has content-addressed units of
        work).  Batches already in the store are served without
        simulation; missing ones are simulated and appended.
    runner:
        Optional custom runner: a point-runner for fixed depth (default
        :func:`run_scenario_point`) or a chunk-runner for adaptive depth
        (default :func:`repro.analysis.adaptive.run_link_ber_batch`).
        Must be a picklable module-level callable for process executors —
        and for store use, where its qualified name is part of the store
        namespace.
    batch_packets:
        Adaptive batch quantum (the chunk-invariance unit).  Defaults to
        the sweep constants' ``batch_packets``, then ``batch_size``, then
        32.
    budget:
        Optional global packet budget for the adaptive scheduler.  Cache
        hits debit the budget exactly like simulated batches, so a warm
        run replays the cold run's trajectory bit for bit.
    """

    def __init__(self, scenario=None, sweep=None, stop=None, store=None,
                 runner=None, batch_packets=None, budget=None):
        if sweep is None:
            raise ValueError("an Experiment needs a SweepSpec (sweep=...)")
        if scenario is not None and not is_scenario_like(scenario):
            raise TypeError(
                "scenario must implement the Scenario protocol (to_dict, "
                "content_hash, params, is_declarative) or be None; got %r"
                % (scenario,))
        if "stop" in sweep.constants:
            raise ValueError(
                "'stop' found in the sweep constants; the stopping rule is "
                "an Experiment-level argument (stop=...) so that the result "
                "store namespace stays independent of it")
        if stop is None:
            if budget is not None:
                raise ValueError(
                    "budget is an adaptive knob; give the Experiment a "
                    "StopRule (stop=...) to run at adaptive depth")
            if batch_packets is not None:
                raise ValueError(
                    "batch_packets is an adaptive knob; give the Experiment "
                    "a StopRule (stop=...) to run at adaptive depth")
        if store is not None:
            if stop is None:
                raise ValueError(
                    "a ResultStore needs the adaptive path (stop=StopRule(...)): "
                    "only fixed-size batches are content-addressed units of work")
            if scenario is None:
                raise ValueError(
                    "a ResultStore needs a Scenario: its content hash names "
                    "the store namespace")
            if not scenario.is_declarative:
                # Surface the offending field now, not at digest time.
                scenario.to_dict()
        if batch_packets is not None and int(batch_packets) < 1:
            raise ValueError("batch_packets must be positive")
        self.scenario = scenario
        self.sweep = sweep
        self.stop = stop
        self.store = store
        self.runner = runner
        self.batch_packets = None if batch_packets is None else int(batch_packets)
        self.budget = budget
        #: ``{"hits": int, "misses": int}`` after a store-backed
        #: :meth:`run`; ``None`` otherwise.  ``misses`` is the number of
        #: batches actually simulated — zero on a fully warm re-run.
        self.last_store_stats = None
        self._spec = None

    # ------------------------------------------------------------------ #
    def spec(self):
        """The effective :class:`SweepSpec`: sweep axes + merged constants.

        Built once and cached.  The merged spec is seeded with the
        *resolved entropy* of the caller's sweep, not its raw ``seed``
        argument: for ``seed=None`` (fresh OS entropy) a re-derivation
        would otherwise land on new random streams every call, and the
        store digest would name a spec that was never executed.
        """
        if self._spec is not None:
            return self._spec
        scenario_params = self.scenario.params() if self.scenario else {}
        overlap = set(scenario_params) & set(self.sweep.constants)
        if overlap:
            raise ValueError(
                "parameter(s) defined by both the Scenario and the sweep "
                "constants: %s" % ", ".join(sorted(overlap)))
        axis_overlap = set(scenario_params) & set(self.sweep.axes)
        if axis_overlap:
            raise ValueError(
                "parameter(s) defined by both the Scenario and a sweep axis: "
                "%s; set the Scenario field to None to sweep it"
                % ", ".join(sorted(axis_overlap)))
        constants = dict(scenario_params)
        constants.update(self.sweep.constants)
        self._spec = SweepSpec(self.sweep.axes, constants=constants,
                               seed=self.sweep.seed_entropy)
        return self._spec

    def resolved_batch_packets(self):
        """The adaptive batch quantum this experiment will run with."""
        if self.batch_packets is not None:
            return self.batch_packets
        constants = self.sweep.constants
        return int(constants.get("batch_packets",
                                 constants.get("batch_size", 32)))

    def resolved_runner(self):
        """The runner :meth:`run` will dispatch (default per depth mode)."""
        if self.runner is not None:
            return self.runner
        if self.stop is None:
            return run_scenario_point
        from repro.analysis.adaptive import run_link_ber_batch

        return run_link_ber_batch

    def _runner_name(self):
        """The qualified runner name — part of the store namespace."""
        runner = self.resolved_runner()
        return "%s.%s" % (
            getattr(runner, "__module__", type(runner).__module__),
            getattr(runner, "__qualname__", type(runner).__name__),
        )

    def store_digest(self):
        """The store namespace this experiment's batches are filed under.

        The scenario content hash extended with everything else a batch's
        content is a pure function of: the effective sweep constants, the
        master seed entropy, the batch quantum and the runner's qualified
        name.  Deliberately excluded: the stop rule, the budget, the
        executor and ``on_error`` — those choose *which* pre-determined
        batches run, never what a batch contains, which is exactly what
        makes tighter re-runs resume instead of recompute.
        """
        if self.scenario is None:
            raise ValueError("store_digest() needs a Scenario")
        spec = self.spec()
        digest = hashlib.sha256()
        digest.update(self.scenario.content_hash().encode())
        for name, value in sorted(spec.constants.items()):
            digest.update(b"%s=%s;" % (str(name).encode(), _stable_token(value)))
        digest.update(b"entropy:%r;" % spec.seed_entropy)
        digest.update(b"batch_packets:%d;" % self.resolved_batch_packets())
        digest.update(("runner:%s" % self._runner_name()).encode())
        return digest.hexdigest()

    def _store_metadata(self):
        return {
            "scenario": self.scenario.to_dict(),
            "constants": {str(k): repr(v)
                          for k, v in sorted(self.spec().constants.items())},
            "seed_entropy": repr(self.spec().seed_entropy),
            "batch_packets": self.resolved_batch_packets(),
            "runner": self._runner_name(),
        }

    # ------------------------------------------------------------------ #
    # Batch-granular dispatch hooks (the characterisation service's API)
    # ------------------------------------------------------------------ #
    def store_view(self):
        """The :class:`~repro.analysis.store.StoreView` this experiment's
        batches are filed under, or ``None`` without a store attached."""
        if self.store is None:
            return None
        return self.store.view(self.store_digest(),
                               metadata=self._store_metadata())

    def trajectory(self):
        """A fresh :class:`~repro.analysis.adaptive.AdaptiveTrajectory`
        over this experiment's grid.

        The batch-granular face of :meth:`run`: ``start_round()`` /
        ``consume()`` expose exactly the round decisions the scheduler
        would make, so a long-lived caller (the characterisation service
        broker) can interleave this experiment's batches with other
        work — serving each from the store or a worker fleet — and still
        land on bit-for-bit the rows :meth:`run` produces.  Adaptive
        experiments only: fixed depth has no batch-invariant unit of
        work.
        """
        if self.stop is None:
            raise ValueError(
                "trajectory() needs the adaptive path (stop=StopRule(...)): "
                "only fixed-size batches are dispatchable units of work")
        from repro.analysis.adaptive import AdaptiveTrajectory

        return AdaptiveTrajectory(
            self.spec(), stop=self.stop,
            batch_packets=self.resolved_batch_packets(), budget=self.budget,
        )

    # ------------------------------------------------------------------ #
    def run(self, executor=None, on_error="raise"):
        """Run the experiment and return rows in grid order.

        ``executor`` defaults to
        :func:`~repro.analysis.sweep.executor_from_env`, so
        ``REPRO_SWEEP_WORKERS=N`` shards any experiment without code
        changes; pass ``SweepExecutor("serial")`` explicitly for
        wall-clock-pinned measurements.  Fixed-depth rows follow the
        point-runner's vocabulary; adaptive rows follow
        :meth:`repro.analysis.adaptive.AdaptivePointState.row`.
        """
        if executor is None:
            from repro.analysis.sweep import executor_from_env

            executor = executor_from_env()
        spec = self.spec()
        runner = self.resolved_runner()
        self.last_store_stats = None
        if self.stop is None:
            return executor.run(spec, runner, on_error=on_error)

        from repro.analysis.adaptive import AdaptiveScheduler

        scheduler = AdaptiveScheduler(
            stop=self.stop,
            batch_packets=self.resolved_batch_packets(),
            budget=self.budget,
            executor=executor,
        )
        view = self.store_view()
        rows = scheduler.run(spec, runner, on_error=on_error, store=view)
        if view is not None:
            self.last_store_stats = {"hits": view.hits, "misses": view.misses}
            view.flush_stats()
        return rows

    def __repr__(self):
        return ("Experiment(scenario=%r, sweep=%r, stop=%r, store=%r, "
                "batch_packets=%r, budget=%r)"
                % (self.scenario, self.sweep, self.stop, self.store,
                   self.batch_packets, self.budget))
