"""The four workloads: set-up, reference, and the timed operation loop.

Each workload drives ``repro`` through its public API only.  Its inputs
come from the ``--seed`` argument; the program sees only the generated
requests.  A workload object holds the program state its set-up built
(``state``), computes its reference rows outside every timed region, and
returns one :class:`~bench_stats.Outcome` per attempted operation plus
the ledger counts the program itself reports: one entry per operation
on a closed loop, one per measured phase on the service workloads.

Constants here are part of the benchmark definition: changing one
changes what every metric means, so it is a benchmark change of its own.
"""

import os
import random
import shutil
import threading
import time

from bench_stats import Outcome, rows_digest

#: The Figure-6 operating point: 24 Mb/s QAM16 rate 1/2, BCJR, 1704-bit
#: packets, eleven SNRs from 4 to 9 dB.
FIG6_RATE_MBPS = 24
FIG6_SNRS_DB = [4.0 + 0.5 * i for i in range(11)]
PACKET_BITS = 1704
BATCH_PACKETS = 8

#: Global packet budget of one cold Figure-6 curve: one full round of
#: eight-packet batches over the eleven points, then a partial round for
#: the loosest points.
FIG6_BUDGET = 128

#: Rate adaptation: 10 dB, two Doppler rates, packets per trajectory.
RATE_SNR_DB = 10.0
RATE_DOPPLERS_HZ = [10.0, 40.0]
RATE_PACKETS = 8

#: Service overlap: arrivals per second (evenly spaced), SNR points per
#: request window, and the period at which a request reuses the seed of
#: the request before it (and so shares its batches, mostly as store hits).
#: Three in four requests are cold, so the median and the p75 both fall
#: among requests that simulate instead of on the gap between simulated
#: first rows (~0.1 s) and store-hit first rows (~1 ms).  The rate keeps
#: the fleet's runners busy about 40% of one CPU on a quiet host: near
#: saturation, queueing multiplies every slowdown of the shared host into
#: latency.
OVERLAP_RATE_PER_S = 2.0
OVERLAP_WINDOW = 6
OVERLAP_REUSE_EVERY = 4
OVERLAP_MAX_PACKETS = 16

#: HTTP warm replay: distinct requests filled into the store at set-up,
#: one per window position, three to a seed.
WARM_REQUESTS = 6

#: Fleet width (the host has two CPUs).  The warm HTTP replay uses one
#: client thread: with two, client and handler threads convoy on the GIL
#: and the run-to-run spread of every timing exceeded its bound.
FLEET_WORKERS = 2

#: An operation still unfinished this long after it was due fails.
OP_TIMEOUT_S = 60.0

#: Fixed tail percentile of every workload.  The cold workloads complete
#: 35-50 operations a run, so p75 is about their highest percentile with
#: ten samples beyond it; ``http_warm`` completes thousands, but its p90
#: and p99 track the shared host's bursts (run-to-run spread 0.35, 0.7).
TAIL_PCT = 75.0


def _scenario():
    from repro.analysis import Scenario

    return Scenario(decoder="bcjr", packet_bits=PACKET_BITS)


def _warm_kernels(workdir):
    """Run the fused and per-batch link paths once on a tiny grid."""
    from repro.analysis import (Experiment, ResultStore, StopRule,
                                SweepExecutor, SweepSpec)

    path = os.path.join(workdir, "warmup-store")
    try:
        Experiment(
            scenario=_scenario(),
            sweep=SweepSpec({"rate_mbps": [FIG6_RATE_MBPS],
                             "snr_db": [5.0, 7.0]},
                            constants={"batch_size": BATCH_PACKETS}, seed=1),
            stop=StopRule(max_packets=BATCH_PACKETS * 2),
            batch_packets=BATCH_PACKETS, budget=BATCH_PACKETS * 3,
            store=ResultStore(path),
        ).run(SweepExecutor("serial"))
    finally:
        shutil.rmtree(path, ignore_errors=True)


def failed(exc):
    """The :class:`Outcome` of an operation that raised ``exc``.

    A refusal (the in-process ``ServiceSaturated``, or an HTTP 429 or
    503 answer) is ``"rejected"``, an expired wait ``"timeout"``, and
    anything else ``"exception"``; each counts as one failure.
    """
    from repro.service import ServiceHTTPError, ServiceSaturated

    if isinstance(exc, ServiceSaturated) or (
            isinstance(exc, ServiceHTTPError) and exc.status in (429, 503)):
        kind = "rejected"
    elif isinstance(exc, TimeoutError):
        kind = "timeout"
    else:
        kind = "exception"
    return Outcome(failure=kind, detail=repr(exc))


def _packets(rows):
    return sum(int(row.get("packets", 0)) for row in rows)


def _timed(tracer, op, func, *args):
    """Run one closed-loop operation, inside an operation span if traced."""
    if tracer is None:
        return func(*args)
    return tracer.operation(op, func, *args)


class _Workload:
    """Shared shape; subclasses fill in set-up, reference and one op."""

    name = None
    #: Time-to-first-row limit of the workload.
    slo_ttfr_s = None
    #: Whether each measured phase needs its own set-up (a cold service).
    fresh_state_per_phase = False
    #: Ledger counts that must repeat exactly per operation (closed loops)
    #: or per phase (the service workloads), traced or not.
    stable_counts = ("phy.packets",)
    #: Whether every layer runs on the thread of its operation, inside the
    #: operation span :func:`_timed` opens.
    op_spans = True
    #: Whether the whole benchmark process runs on one CPU.
    pinned = False

    def __init__(self, seed, workdir):
        self.seed = int(seed)
        self.workdir = workdir
        self.state = None
        self._dirs = 0

    def fresh_dir(self, prefix):
        self._dirs += 1
        return os.path.join(self.workdir, "%s-%d" % (prefix, self._dirs))

    def setup(self):
        """The program's own set-up; timed as ``setup_s``."""
        raise NotImplementedError

    def reference(self, seconds):
        """Reference rows for ``seconds`` of operations, outside timing."""
        raise NotImplementedError

    def measure(self, seconds, tracer=None):
        """Run operations for ``seconds``; ``(outcomes, ledger, wall_s)``."""
        raise NotImplementedError

    def teardown(self):
        pass

    def count_checks(self, entries):
        """``(name, passed)`` checks of the program's own ledger counts."""
        stable = [{key: entry[key] for key in self.stable_counts}
                  for entry in entries]
        if len(stable) < 2:
            return []
        return [("ledger counts repeat across operations and phases",
                 all(entry == stable[0] for entry in stable))]


class Fig6Curve(_Workload):
    """Closed loop, one client: a cold adaptive Figure-6 curve per op."""

    name = "fig6_curve"
    slo_ttfr_s = 1.0
    stable_counts = ("phy.packets", "store.put_calls", "store.hits")

    def experiment(self, store=None):
        from repro.analysis import Experiment, StopRule, SweepSpec

        return Experiment(
            scenario=_scenario(),
            sweep=SweepSpec({"rate_mbps": [FIG6_RATE_MBPS],
                             "snr_db": FIG6_SNRS_DB},
                            constants={"batch_size": BATCH_PACKETS},
                            seed=self.seed),
            stop=StopRule(rel_half_width=0.25, min_errors=30,
                          ber_floor=1e-4, max_packets=FIG6_BUDGET),
            batch_packets=BATCH_PACKETS, budget=FIG6_BUDGET, store=store)

    def setup(self):
        _warm_kernels(self.workdir)

    def reference(self, seconds):
        from repro.analysis import AdaptiveScheduler

        experiment = self.experiment()
        rows = AdaptiveScheduler(stop=experiment.stop,
                                 batch_packets=BATCH_PACKETS,
                                 budget=FIG6_BUDGET,
                                 fused=False).run(experiment.spec())
        self.expected = rows_digest(rows)
        return {"rows": len(rows), "digest": self.expected}

    def measure(self, seconds, tracer=None):
        from repro.analysis import ResultStore, SweepExecutor

        outcomes, ledger = [], []
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            path = self.fresh_dir("fig6-store")
            experiment = self.experiment(ResultStore(path))
            t0 = time.perf_counter()
            try:
                rows = _timed(tracer, len(outcomes), experiment.run,
                              SweepExecutor("serial"))
            except Exception as exc:  # noqa: BLE001 - counted, reported
                outcomes.append(failed(exc))
                continue
            finally:
                elapsed = time.perf_counter() - t0
                shutil.rmtree(path, ignore_errors=True)
            outcome = Outcome(elapsed, elapsed, packets=_packets(rows))
            if rows_digest(rows) != self.expected:
                outcome.failure = "mismatch"
            outcomes.append(outcome)
            stats = experiment.last_store_stats
            ledger.append({"phy.packets": outcome.packets,
                           "store.put_calls": stats["misses"],
                           "store.hits": stats["hits"]})
        return outcomes, ledger, time.perf_counter() - start


class RateAdapt(_Workload):
    """Closed loop, one client: a cold closed-loop rate-adaptation run."""

    name = "rate_adapt"
    slo_ttfr_s = 1.0

    def experiment(self, batch_packets, dopplers=RATE_DOPPLERS_HZ,
                   num_packets=RATE_PACKETS):
        from repro.mac.rateadapt import RateAdaptExperiment, RateAdaptScenario

        return RateAdaptExperiment(
            RateAdaptScenario(decoder="bcjr", packet_bits=PACKET_BITS,
                              snr_db=RATE_SNR_DB, doppler_hz=None),
            axes={"doppler_hz": dopplers}, num_packets=num_packets,
            batch_packets=batch_packets, seed=self.seed)

    def setup(self):
        from repro.analysis import SweepExecutor

        _warm_kernels(self.workdir)
        # One packet at every rate warms each rate's receiver tables.
        self.experiment(1, RATE_DOPPLERS_HZ[:1], 1).run(
            SweepExecutor("serial"))

    def reference(self, seconds):
        from repro.analysis import SweepExecutor

        # Rows are invariant to the decode quantum, so the reference
        # decodes in half-size batches: the same rows by another path.
        rows = self.experiment(RATE_PACKETS // 2).run(SweepExecutor("serial"))
        self.expected = rows_digest(rows)
        return {"rows": len(rows), "digest": self.expected}

    def measure(self, seconds, tracer=None):
        from repro.analysis import SweepExecutor

        outcomes, ledger = [], []
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            experiment = self.experiment(RATE_PACKETS)
            t0 = time.perf_counter()
            try:
                rows = _timed(tracer, len(outcomes), experiment.run,
                              SweepExecutor("serial"))
            except Exception as exc:  # noqa: BLE001 - counted, reported
                outcomes.append(failed(exc))
                continue
            elapsed = time.perf_counter() - t0
            packets = _decoded_packets(rows)
            outcome = Outcome(elapsed, elapsed, packets=packets)
            if rows_digest(rows) != self.expected:
                outcome.failure = "mismatch"
            outcomes.append(outcome)
            ledger.append({"phy.packets": packets})
        return outcomes, ledger, time.perf_counter() - start


def _decoded_packets(rows):
    """Packets a rate-adaptation run decoded: its trajectory length per
    point (the oracle row's ``packets``) at every PHY rate."""
    from repro.phy.params import RATE_TABLE

    return len(RATE_TABLE) * sum(int(row["packets"]) for row in rows
                                 if row["controller"] == "oracle")


def _window_request(snrs, seed):
    from repro.analysis import StopRule
    from repro.service import CharacterisationRequest

    return CharacterisationRequest(
        scenario=_scenario(),
        axes={"rate_mbps": [FIG6_RATE_MBPS], "snr_db": list(snrs)},
        stop=StopRule(rel_half_width=0.3, min_errors=20, ber_floor=1e-4,
                      max_packets=OVERLAP_MAX_PACKETS),
        constants={"batch_size": BATCH_PACKETS},
        seed=seed, batch_packets=BATCH_PACKETS)


def _shuffled_windows(rng, count):
    """``count`` SNR windows; each run of six covers every position once.

    Every seed so draws the same mix of cheap (low-SNR) and expensive
    (high-SNR) windows; only their order, the overlap pattern and the
    random streams change with the seed.
    """
    positions = len(FIG6_SNRS_DB) - OVERLAP_WINDOW + 1
    firsts = []
    while len(firsts) < count:
        firsts.extend(rng.sample(range(positions), positions))
    return [tuple(FIG6_SNRS_DB[first:first + OVERLAP_WINDOW])
            for first in firsts[:count]]


def _ledger_batches(service):
    batches = service.metrics()["batches"]
    return {name: batches[name]
            for name in ("simulated", "shared", "cached", "delivered")}


def _phase_ledger(delta):
    """One phase's broker counts, and the packets its batches decoded."""
    ledger = {"broker.batches_" + name: count for name, count in delta.items()}
    ledger["phy.packets"] = delta["simulated"] * BATCH_PACKETS
    return ledger


class ServiceOverlap(_Workload):
    """Open loop: overlapping cold windows into an in-process Service."""

    name = "service_overlap"
    slo_ttfr_s = 1.5
    fresh_state_per_phase = True
    op_spans = False
    stable_counts = ("phy.packets", "broker.batches_simulated",
                     "broker.batches_delivered")

    def schedule(self, seconds):
        """``(due_offset_s, window, seed)`` per request, from the seed."""
        count = max(1, int(seconds * OVERLAP_RATE_PER_S))
        windows = _shuffled_windows(random.Random(self.seed), count)
        return [(i / OVERLAP_RATE_PER_S, window,
                 self.seed * 1000 + i - (i % OVERLAP_REUSE_EVERY
                                         == OVERLAP_REUSE_EVERY - 1))
                for i, window in enumerate(windows)]

    def setup(self):
        from repro.analysis import ResultStore
        from repro.service import Service

        _warm_kernels(self.workdir)
        self.state = Service(ResultStore(self.fresh_dir("overlap-store")),
                             workers=FLEET_WORKERS, backend="thread").start()

    def teardown(self):
        if self.state is not None:
            self.state.stop()
            shutil.rmtree(self.state.store.root, ignore_errors=True)
            self.state = None

    def reference(self, seconds):
        from repro.analysis import ResultStore, SweepExecutor

        path = self.fresh_dir("overlap-reference")
        self.expected = {}
        try:
            # One reference store for every distinct request keeps the
            # reference as cheap as the service's own work; it is separate
            # from the service's store, and warm rows equal cold rows.
            # Its misses are the distinct batches of the whole schedule,
            # which a service with a fresh store must simulate exactly once.
            store = ResultStore(path)
            self.reference_batches = 0
            for _, window, seed in self.schedule(seconds):
                if (window, seed) not in self.expected:
                    experiment = _window_request(window, seed).experiment(
                        store=store)
                    rows = experiment.run(SweepExecutor("serial"))
                    self.expected[(window, seed)] = rows_digest(rows)
                    self.reference_batches += \
                        experiment.last_store_stats["misses"]
        finally:
            shutil.rmtree(path, ignore_errors=True)
        return {"distinct_requests": len(self.expected),
                "distinct_batches": self.reference_batches,
                "digest": rows_digest(sorted(self.expected.values()))}

    def count_checks(self, entries):
        return super().count_checks(entries) + [
            ("each phase simulated the reference's distinct batches once",
             all(entry["broker.batches_simulated"] == self.reference_batches
                 for entry in entries))]

    def measure(self, seconds, tracer=None):
        service = self.state
        plan = self.schedule(seconds)
        before = _ledger_batches(service)
        sent = []       # (due_wall, send_wall, window, seed, ticket|Outcome)
        lags, inflight = [], []
        t0 = time.perf_counter()
        wall0 = time.time()
        for offset, window, seed in plan:
            delay = t0 + offset - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lags.append(time.perf_counter() - (t0 + offset))
            send_wall = time.time()
            try:
                ticket = service.submit(_window_request(window, seed))
            except Exception as exc:  # noqa: BLE001 - counted, reported
                ticket = failed(exc)
            sent.append((wall0 + offset, send_wall, window, seed, ticket))
            inflight.append(service.status()["in_flight_requests"])
        outcomes = []
        end_wall = wall0
        for due_wall, send_wall, window, seed, ticket in sent:
            if isinstance(ticket, Outcome):
                outcomes.append(ticket)
                continue
            remaining = due_wall + OP_TIMEOUT_S - time.time()
            try:
                rows = ticket.result(timeout=max(remaining, 0.001))
            except Exception as exc:  # noqa: BLE001 - counted, reported
                outcomes.append(failed(exc))
                continue
            finished = max(ticket.finished_at, send_wall)
            end_wall = max(end_wall, finished)
            outcome = Outcome(finished - due_wall,
                              max(ticket.first_row_at, send_wall) - due_wall,
                              packets=_packets(rows))
            if rows_digest(rows) != self.expected[(window, seed)]:
                outcome.failure = "mismatch"
            outcomes.append(outcome)
        after = _ledger_batches(service)
        delta = {name: after[name] - before[name] for name in after}
        quarter = max(1, len(inflight) // 4)
        self.open_loop = {
            "requests_sent": len(sent),
            "generator_lag_s": max(lags) if lags else 0.0,
            "generator_lag_p50_s": sorted(lags)[len(lags) // 2],
            "inflight_start": max(inflight[:quarter]),
            "inflight_end": max(inflight[-quarter:]),
            "arrival_rate_per_s": OVERLAP_RATE_PER_S,
        }
        self.open_loop["backlog_growing"] = (
            self.open_loop["inflight_end"]
            > 2 * self.open_loop["inflight_start"] + 1)
        return outcomes, [_phase_ledger(delta)], max(end_wall - wall0, 1e-9)


class HttpWarm(_Workload):
    """Closed loop, one HTTP client, every batch a store hit."""

    name = "http_warm"
    slo_ttfr_s = 0.05
    stable_counts = ("phy.packets", "broker.batches_simulated")
    op_spans = False
    #: Every thread on this path (client, HTTP handler, broker) holds the
    #: GIL for its work and nothing is simulated, so one CPU is all the
    #: path can use.  Spread over two CPUs, each request's dozen thread
    #: hand-offs wake an idle virtual CPU, and latency tracked the
    #: hypervisor: the same code read 630 to 1730 requests in 6 s.
    pinned = True

    def setup(self):
        from repro.analysis import ResultStore
        from repro.service import Service, serve

        _warm_kernels(self.workdir)
        service = Service(ResultStore(self.fresh_dir("warm-store")),
                          workers=FLEET_WORKERS, backend="thread").start()
        server = serve(service, port=0, heartbeat_s=5.0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        self.state = (service, server, thread)
        windows = _shuffled_windows(random.Random(self.seed), WARM_REQUESTS)
        self.requests = [_window_request(window, self.seed * 1000 + i // 3)
                         for i, window in enumerate(windows)]
        # Store pre-fill: the rows of the fill are the reference.
        self.fill_rows = [service.characterise(request, timeout=OP_TIMEOUT_S)
                          for request in self.requests]

    def teardown(self):
        if self.state is not None:
            service, server, thread = self.state
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            service.stop()
            shutil.rmtree(service.store.root, ignore_errors=True)
            self.state = None

    def reference(self, seconds):
        self.expected = [rows_digest(_by_snr(rows)) for rows in self.fill_rows]
        return {"distinct_requests": len(self.expected),
                "digest": rows_digest(self.expected)}

    def count_checks(self, entries):
        return super().count_checks(entries) + [
            ("the warm replay simulated nothing",
             all(entry["broker.batches_simulated"] == 0
                 for entry in entries))]

    def measure(self, seconds, tracer=None):
        from repro.service import stream_request

        service, server, _ = self.state
        host, port = server.server_address[:2]
        base_url = "http://%s:%d" % (host, port)
        before = _ledger_batches(service)
        outcomes = []
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            which = len(outcomes) % len(self.requests)
            rows, first, done = [], None, None
            t0 = time.perf_counter()
            try:
                for event in stream_request(base_url, self.requests[which],
                                            timeout=OP_TIMEOUT_S):
                    if event["event"] == "row":
                        if first is None:
                            first = time.perf_counter() - t0
                        rows.append(event["row"])
                    elif event["event"] == "done":
                        done = event["progress"]["elapsed_s"]
            except Exception as exc:  # noqa: BLE001 - counted, reported
                outcomes.append(failed(exc))
                continue
            elapsed = time.perf_counter() - t0
            outcome = Outcome(elapsed, first, packets=_packets(rows))
            outcome.overhead_s = 0.0 if done is None else elapsed - done
            if done is None or first is None:
                outcome.failure = "exception"
            elif rows_digest(_by_snr(rows)) != self.expected[which]:
                outcome.failure = "mismatch"
            outcomes.append(outcome)
        wall = time.perf_counter() - start
        after = _ledger_batches(service)
        delta = {name: after[name] - before[name] for name in after}
        return outcomes, [_phase_ledger(delta)], wall


def _by_snr(rows):
    return sorted(rows, key=lambda row: row["snr_db"])


WORKLOADS = {cls.name: cls
             for cls in (Fig6Curve, ServiceOverlap, HttpWarm, RateAdapt)}
