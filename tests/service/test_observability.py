"""End-to-end telemetry tests: propagation, read-only tracing, metrics.

The tentpole contracts under test:

* one request produces **one connected span tree**, even when its
  batches run on process-fleet workers and remote HTTP agents;
* tracing is strictly read-only — rows are bit-for-bit identical
  traced vs untraced;
* ``broker.metrics()`` snapshots balance under concurrent load, and
  ``GET /v1/metrics?format=prometheus`` parses under the strict
  text-format validator while the JSON document keeps its shape;
* every counter has one ledger: the JSON document and the exposition
  read the same registry children, so they agree number for number.
"""

import io
import json
import threading
import time
import urllib.request

import pytest

from repro.analysis.adaptive import (StopRule, capture_result,
                                     run_link_ber_batch)
from repro.analysis.scenario import Scenario
from repro.analysis.store import ResultStore
from repro.analysis.sweep import SweepExecutor
from repro.obs import parse_exposition
from repro.obs import trace as obs_trace
from repro.service.api import Service, serve, stream_request
from repro.service.broker import CharacterisationBroker
from repro.service.fleet import WorkerFleet
from repro.service.requests import CharacterisationRequest
from repro.service.worker import WorkerAgent

SCENARIO = Scenario(decoder="bcjr", packet_bits=600)
STOP = StopRule(rel_half_width=0.35, min_errors=15, max_packets=16)


def request(snrs=(4.0, 6.0), **overrides):
    kwargs = dict(
        scenario=SCENARIO,
        axes={"rate_mbps": [24], "snr_db": list(snrs)},
        stop=STOP,
        constants={"batch_size": 4},
        seed=23,
        batch_packets=4,
    )
    kwargs.update(overrides)
    return CharacterisationRequest(**kwargs)


@pytest.fixture()
def traced(tmp_path):
    """Tracing into a scratch sink for the duration of one test."""
    sink = tmp_path / "traces"
    obs_trace.configure(sink, proc="svc")
    yield str(sink)
    obs_trace.disable()


def _serve_in_thread(service):
    server = serve(service, port=0, worker_ping_s=0.2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    return server, thread, "http://%s:%d" % (host, port)


def _wait_until(predicate, timeout=60.0, message="condition never held"):
    deadline = time.time() + timeout
    while not predicate():
        assert time.time() < deadline, message
        time.sleep(0.02)


def _samples(parsed, family, label):
    """``{label value: sample value}`` of a one-label family."""
    return {labels[label]: value
            for _, labels, value in parsed[family]["samples"]}


def _request_traces(sink):
    """``(roots, nodes)`` of every trace rooted in a ``request`` span."""
    built = obs_trace.build_traces(obs_trace.load_spans(sink))
    return [(roots, nodes) for roots, nodes in built.values()
            if any(root.name == "request" for root in roots)]


def _assert_connected(roots, nodes):
    """Every span's parent was written; only the request span is a root."""
    assert len(roots) == 1 and roots[0].name == "request"
    span_ids = set(nodes)
    for node in nodes.values():
        parent = node.record.get("parent")
        if node is roots[0]:
            continue
        assert parent in span_ids, \
            "orphan span %r (parent %r never written)" % (node.name, parent)


class TestTracePropagation:
    def test_process_fleet_run_yields_one_connected_tree(self, tmp_path,
                                                         traced):
        # Tracing must be configured before the service starts: process
        # workers inherit the sink directory as a spawn argument.
        with Service(ResultStore(tmp_path / "store"), workers=2,
                     backend="process") as service:
            rows = service.characterise(request(), timeout=120)
        obs_trace.disable()
        assert rows == request().experiment().run(SweepExecutor("serial"))

        (tree,) = _request_traces(traced)
        roots, nodes = tree
        _assert_connected(roots, nodes)
        names = {node.name for node in nodes.values()}
        assert "batch" in names and "simulate" in names and "store" in names
        # The simulate spans were written by the worker *processes*.
        sim_procs = {node.record["proc"] for node in nodes.values()
                     if node.name == "simulate"}
        assert sim_procs and all(p.startswith("fleet-proc-")
                                 for p in sim_procs)
        # Kernel phase hooks nested stage spans under each simulate span.
        phase_names = names & {"transmit", "channel", "front-end", "decode"}
        assert phase_names, "no kernel phase spans in %r" % sorted(names)
        # Every batch span carries its source attribution.
        sources = {node.attrs.get("source") for node in nodes.values()
                   if node.name == "batch"}
        assert sources <= {"cached", "shared", "simulated", "coalesced",
                           "lease-parked"}
        assert "simulated" in sources
        assert roots[0].attrs.get("outcome") == "done"

    def test_remote_agent_spans_join_over_real_http(self, tmp_path, traced):
        gate = threading.Event()

        def parked(batch):
            gate.wait(30.0)
            return dict(run_link_ber_batch(batch))

        class _Scratch:
            label = staticmethod(lambda: "hold")
            num_packets = 0

        service = Service(ResultStore(tmp_path / "store"), workers=1,
                          poll_s=0.02).start()
        server, thread, base_url = _serve_in_thread(service)
        agent = WorkerAgent(base_url, name="hands", heartbeat_s=0.2)
        agent_thread = threading.Thread(
            target=agent.run, kwargs={"retries": 3, "backoff_s": 0.1},
            daemon=True)
        try:
            # Park the only local worker so every batch must travel
            # through the remote agent's ndjson channel.
            service.fleet.submit("hold", parked, _Scratch())
            deadline = time.time() + 30.0
            while len(service.fleet._inflight) != 1:
                assert time.time() < deadline
                time.sleep(0.02)
            agent_thread.start()
            while service.fleet.remote_handle("hands") is None:
                assert time.time() < deadline, "the agent never attached"
                time.sleep(0.02)
            rows = service.characterise(request(), timeout=120)
        finally:
            gate.set()
            service.stop()
            agent_thread.join(timeout=10)
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        obs_trace.disable()
        assert rows == request().experiment().run(SweepExecutor("serial"))
        assert agent.completed >= 1

        (tree,) = _request_traces(traced)
        roots, nodes = tree
        _assert_connected(roots, nodes)
        remote_sims = [node for node in nodes.values()
                       if node.name == "simulate"
                       and node.attrs.get("worker") == "hands"]
        assert remote_sims, "no simulate span from the remote agent"
        assert all(node.attrs.get("remote") for node in remote_sims)

    def test_client_header_threads_the_trace_id(self, tmp_path, traced):
        with Service(ResultStore(tmp_path / "store"), workers=2) as service:
            server, thread, base_url = _serve_in_thread(service)
            try:
                events = list(stream_request(base_url, request(),
                                             trace="cafe42:feed01"))
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=10)
        obs_trace.disable()
        assert events[0]["event"] == "accepted"
        # The accepted event echoes the trace id so the client can find
        # its waterfall.
        assert events[0]["trace"] == "cafe42"
        spans = obs_trace.load_spans(traced)
        roots = [s for s in spans if s["name"] == "request"]
        assert roots and all(s["trace"] == "cafe42" for s in roots)
        assert all(s["parent"] == "feed01" for s in roots)

    def test_tracing_is_read_only_rows_bit_for_bit(self, tmp_path, traced):
        with Service(ResultStore(tmp_path / "traced-store"),
                     workers=2) as service:
            traced_rows = service.characterise(request(), timeout=120)
        obs_trace.disable()
        with Service(ResultStore(tmp_path / "plain-store"),
                     workers=2) as service:
            plain_rows = service.characterise(request(), timeout=120)
        assert traced_rows == plain_rows
        assert traced_rows \
            == request().experiment().run(SweepExecutor("serial"))

    def test_untraced_service_writes_no_spans(self, tmp_path):
        assert obs_trace.sink_dir() is None
        with Service(ResultStore(tmp_path / "store"), workers=2) as service:
            ticket = service.submit(request())
            assert not ticket.span.enabled
            ticket.result(timeout=120)


class TestSummarizeCLI:
    def test_summarize_reconstructs_lifecycle_and_critical_path(
            self, tmp_path, traced):
        with Service(ResultStore(tmp_path / "store"), workers=2) as service:
            service.characterise(request(), timeout=120)
            # A second identical request exercises the cached source.
            service.characterise(request(), timeout=120)
        obs_trace.disable()

        out = io.StringIO()
        assert obs_trace.main(["summarize", traced], out=out) == 0
        text = out.getvalue()
        assert "by stage:" in text
        assert "batches by source:" in text
        assert "simulated" in text and "cached" in text
        assert "critical path:" in text

        out = io.StringIO()
        assert obs_trace.main(["ls", traced], out=out) == 0
        assert "request" in out.getvalue()


class TestMetricsConsistency:
    def test_snapshots_balance_under_concurrent_load(self, tmp_path):
        stop = threading.Event()
        failures = []

        def scrape(broker):
            while not stop.is_set():
                snapshot = broker.metrics()
                requests = snapshot["requests"]
                batches = snapshot["batches"]
                if requests["admitted"] != (requests["in_flight"]
                                            + requests["completed"]
                                            + requests["failed"]
                                            + requests["cancelled"]):
                    failures.append(("requests", requests))
                if batches["delivered"] > (batches["cached"]
                                           + batches["shared"]
                                           + batches["simulated"]
                                           + batches["leased"]):
                    failures.append(("batches", batches))

        with WorkerFleet(workers=2, backend="thread") as fleet:
            broker = CharacterisationBroker(
                ResultStore(tmp_path / "store"), fleet)
            scraper = threading.Thread(target=scrape, args=(broker,),
                                       daemon=True)
            scraper.start()
            try:
                tickets = [broker.submit(request((4.0 + i, 6.0 + i)))
                           for i in range(4)]
                deadline = time.time() + 60.0
                while not all(t.done.is_set() for t in tickets):
                    assert time.time() < deadline
                    broker.pump(timeout=0.05)
                for ticket in tickets:
                    ticket.result()
            finally:
                stop.set()
                scraper.join(timeout=10)
            final = broker.metrics()
        assert not failures, failures[:3]
        assert final["requests"]["admitted"] == 4
        assert final["requests"]["completed"] == 4

    def test_metrics_carries_store_root_and_heartbeats(self, tmp_path):
        with Service(ResultStore(tmp_path / "store"), workers=2) as service:
            service.characterise(request(), timeout=120)
            doc = service.metrics()
        # The service-level keys keep their historical top-level place.
        assert doc["store_root"] == service.store.root
        assert isinstance(doc["heartbeats"], dict)
        assert doc["requests"]["admitted"] == 1


class TestPrometheusEndpoint:
    def test_exposition_parses_and_json_keeps_its_shape(self, tmp_path):
        with Service(ResultStore(tmp_path / "store"), workers=2) as service:
            server, thread, base_url = _serve_in_thread(service)
            try:
                list(stream_request(base_url, request()))
                with urllib.request.urlopen(
                        base_url + "/v1/metrics", timeout=30) as response:
                    doc = json.loads(response.read())
                with urllib.request.urlopen(
                        base_url + "/v1/metrics?format=prometheus",
                        timeout=30) as response:
                    content_type = response.headers.get("Content-Type")
                    text = response.read().decode("utf-8")
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=10)

        # JSON default: same document as before, keys append-only.
        for key in ("admission", "requests", "batches", "fleet", "stores",
                    "cluster", "store_root", "heartbeats"):
            assert key in doc

        assert content_type.startswith("text/plain")
        parsed = parse_exposition(text)
        for family in ("repro_requests_total", "repro_batches_total",
                       "repro_batches_in_flight", "repro_stage_seconds",
                       "repro_lease_events_total",
                       "repro_worker_heartbeat_age_seconds",
                       "repro_store_seconds", "repro_fleet_items_total",
                       "repro_fleet_workers_restarted_total",
                       "repro_fleet_remote_events_total",
                       "repro_fleet_worker_items_total"):
            assert family in parsed, "missing family %s" % family
        # A lease-less replica still renders the lease family, at zero.
        leases = _samples(parsed, "repro_lease_events_total", "event")
        assert set(leases) == {"acquired", "contended", "reclaimed_stale",
                               "released", "lost", "answered", "reclaimed"}
        assert not any(leases.values())
        states = {labels.get("state")
                  for _, labels, _ in parsed["repro_requests_total"]["samples"]}
        assert "completed" in states
        sources = {labels.get("source")
                   for _, labels, _ in parsed["repro_batches_total"]["samples"]}
        assert "simulated" in sources
        stages = {labels.get("stage")
                  for name, labels, _ in
                  parsed["repro_stage_seconds"]["samples"]
                  if name == "repro_stage_seconds_bucket"}
        assert {"simulate", "store_put", "deliver"} <= stages
        ages = _samples(parsed, "repro_worker_heartbeat_age_seconds",
                        "worker")
        assert set(ages) == set(doc["heartbeats"])  # one per fleet worker
        for worker, age in ages.items():
            # An age, not a timestamp: near the JSON document's reading
            # of the same worker, taken a moment earlier.
            assert age >= 0.0
            assert abs(age - doc["heartbeats"][worker]) \
                <= 3 * service.fleet.heartbeat_s


class TestSingleLedger:
    def test_json_and_prometheus_agree_on_every_counter(self, tmp_path):
        gate = threading.Event()

        def parked(batch):
            gate.wait(30.0)
            return {"errors": 0, "trials": 1}

        class _Scratch:
            label = staticmethod(lambda: "hold")
            num_packets = 0

        with Service(ResultStore(tmp_path / "store"), workers=1,
                     poll_s=0.02, lease_ttl_s=10.0,
                     replica_id="r1") as service:
            fleet = service.fleet
            # Park the only local worker so the request's batches wait
            # for the remote handles below.
            fleet.submit("hold", parked, _Scratch())
            _wait_until(lambda: len(fleet._inflight) == 1)
            ticket = service.submit(request())
            doomed = service.submit(request((12.0, 14.0)))
            # A remote worker lost mid-item: the item is requeued.
            lost = fleet.register_remote("lost")
            item = lost.next_task(timeout=5.0)
            assert item is not None
            assert lost.detach(requeue=True)
            # Another remote worker completes an item.
            hands = fleet.register_remote("hands")
            item = hands.next_task(timeout=5.0)
            assert item is not None
            assert hands.complete(item.seq,
                                  *capture_result(item.runner, item.batch))
            assert service.cancel(doomed.key)
            gate.set()
            ticket.result(timeout=120)
            _wait_until(lambda: fleet.stats()["pending"] == 0
                        and service.status()["inflight_batches"] == 0,
                        message="the service never went idle")
            doc = service.metrics()
            parsed = parse_exposition(service.prometheus_text())

        # The scenario moved the counters this test exists for.
        assert doc["fleet"]["retried"] >= 1
        assert doc["fleet"]["remote_requeued"] >= 1
        assert doc["fleet"]["remote_completed"] >= 1
        assert doc["requests"]["cancelled"] == 1
        assert doc["cluster"]["leases"]["acquired"] >= 1

        requests = _samples(parsed, "repro_requests_total", "state")
        for state in ("admitted", "completed", "failed", "cancelled"):
            assert doc["requests"][state] == requests[state], state
        batches = _samples(parsed, "repro_batches_total", "source")
        for key, source in (("simulated", "simulated"), ("cached", "cached"),
                            ("shared", "shared"), ("released", "released"),
                            ("leased", "lease-parked"),
                            ("delivered", "delivered")):
            assert doc["batches"][key] == batches[source], key
        rejected = _samples(parsed, "repro_rejected_total", "reason")
        for reason in ("saturated", "quota"):
            assert doc["admission"]["rejected_" + reason] == rejected[reason]

        items = _samples(parsed, "repro_fleet_items_total", "event")
        for event in ("submitted", "completed", "cancelled", "retried"):
            assert doc["fleet"][event] == items[event], event
        ((_, _, restarted),) = \
            parsed["repro_fleet_workers_restarted_total"]["samples"]
        assert doc["fleet"]["workers_restarted"] == restarted
        remote = _samples(parsed, "repro_fleet_remote_events_total", "event")
        assert doc["fleet"]["remote_completed"] == remote["completed"]
        assert doc["fleet"]["remote_requeued"] == remote["requeued"]
        ledger = doc["cluster"]["remote_workers"]
        for key, event in (("attached_total", "attached"),
                           ("detached_total", "detached"),
                           ("completed", "completed"),
                           ("requeued", "requeued")):
            assert ledger[key] == remote[event], key
        per_worker = _samples(parsed, "repro_fleet_worker_items_total",
                              "worker")
        assert set(ledger["attached"]) == {"hands"}
        assert ledger["attached"]["hands"]["completed"] \
            == per_worker["hands"] == 1

        leases = _samples(parsed, "repro_lease_events_total", "event")
        for event in ("acquired", "contended", "reclaimed_stale", "released",
                      "lost", "answered", "reclaimed"):
            assert doc["cluster"]["leases"][event] == leases[event], event
        assert doc["cluster"]["leases"]["waited"] == batches["lease-parked"]
