"""Tests for the service front door: in-process object and HTTP endpoint."""

import http.client
import json
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.analysis.adaptive import StopRule, run_link_ber_batch
from repro.analysis.scenario import Scenario
from repro.analysis.store import ResultStore
from repro.analysis.sweep import SweepExecutor
from repro.service.api import (RetryPolicy, Service, ServiceHTTPError,
                               cancel_request, fetch_json, serve,
                               stream_request)
from repro.service.broker import ServiceError
from repro.service.requests import CharacterisationRequest

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
def service(tmp_path):
    with Service(ResultStore(tmp_path / "store"), workers=2) as running:
        yield running


class TestInProcessService:
    def test_rows_stream_then_result_matches_serial(self, service):
        ticket = service.submit(request())
        streamed = list(ticket.rows())
        rows = ticket.result(timeout=60)
        serial = request().experiment().run(SweepExecutor("serial"))
        assert rows == serial
        # Streamed rows arrive in completion order; same content, any order.
        assert sorted(streamed, key=lambda r: r["snr_db"]) \
            == sorted(rows, key=lambda r: r["snr_db"])

    def test_characterise_is_submit_plus_result(self, service):
        rows = service.characterise(request(), timeout=60)
        assert rows == request().experiment().run(SweepExecutor("serial"))

    def test_late_subscriber_replays_the_full_event_log(self, service):
        ticket = service.submit(request())
        ticket.result(timeout=60)
        events = list(ticket.stream())  # subscribed after completion
        kinds = [event["event"] for event in events]
        assert kinds == ["row"] * (len(kinds) - 1) + ["done"]
        assert events[-1]["progress"]["points_done"] == 2

    def test_submit_requires_a_started_service(self, tmp_path):
        stopped = Service(ResultStore(tmp_path))
        with pytest.raises(ServiceError, match="start"):
            stopped.submit(request())

    def test_submit_accepts_plain_dict_requests(self, service):
        rows = service.characterise(request().to_dict(), timeout=60)
        assert rows == request().experiment().run(SweepExecutor("serial"))

    def test_status_reports_fleet_and_broker(self, service):
        service.characterise(request(), timeout=60)
        status = service.status()
        assert status["completed_requests"] == 1
        assert status["fleet"]["workers"] == 2
        assert len(status["heartbeats"]) == 2

    def test_malformed_runner_result_fails_only_its_ticket(self, tmp_path):
        # A runner violating the chunk-runner protocol (no "trials") blows
        # up while its result is folded in.  That must fail the affected
        # request with a ServiceError — not kill the pump thread and hang
        # the service: the next, well-formed request still completes.
        def broken_then_fine(batch):
            if batch.point.params.get("broken"):
                return {"errors": 1}
            return {"errors": 1, "trials": batch.num_packets * 600}

        with Service(ResultStore(tmp_path / "store"), workers=1,
                     runner=broken_then_fine) as running:
            doomed = running.submit(request(constants={"batch_size": 4,
                                                       "broken": True}))
            with pytest.raises(ServiceError, match="internal error"):
                doomed.result(timeout=60)
            healthy = running.submit(request())
            assert len(healthy.result(timeout=60)) == 2
            assert running.status()["failed_requests"] == 1


class TestHTTPFrontDoor:
    @pytest.fixture()
    def base_url(self, service):
        server = serve(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield "http://%s:%d" % (host, port)
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)

    def test_characterise_streams_json_lines(self, service, base_url):
        events = list(stream_request(base_url, request()))
        assert events[0]["event"] == "accepted"
        assert events[0]["points"] == 2
        assert events[-1]["event"] == "done"
        rows = [event["row"] for event in events if event["event"] == "row"]
        serial = request().experiment().run(SweepExecutor("serial"))
        assert sorted(rows, key=lambda r: r["snr_db"]) \
            == sorted(serial, key=lambda r: r["snr_db"])
        # Progress rides along with every row event.
        row_events = [e for e in events if e["event"] == "row"]
        assert all("packets_spent" in e["progress"] for e in row_events)
        assert events[-1]["progress"]["batches_simulated"] > 0

    def test_second_identical_request_is_served_from_cache(self, service,
                                                           base_url):
        list(stream_request(base_url, request()))
        events = list(stream_request(base_url, request()))
        done = events[-1]
        assert done["event"] == "done"
        assert done["progress"]["batches_simulated"] == 0
        assert done["progress"]["batches_cached"] \
            == done["progress"]["batches"]

    def test_status_and_requests_endpoints(self, service, base_url):
        list(stream_request(base_url, request()))
        status = fetch_json(base_url + "/v1/status")
        assert status["completed_requests"] == 1
        assert fetch_json(base_url + "/v1/requests")["requests"] == []

    def test_malformed_request_is_a_400(self, base_url):
        http_request = urllib.request.Request(
            base_url + "/v1/characterise", data=b'{"seed": 1}',
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(http_request, timeout=30)
        assert excinfo.value.code == 400

    def test_unknown_path_is_a_404(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(base_url + "/v1/nope", timeout=30)
        assert excinfo.value.code == 404

    def test_shutdown_endpoint_stops_the_server(self, service):
        server = serve(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        reply = fetch_json("http://%s:%d/v1/shutdown" % (host, port), data={})
        assert reply == {"status": "stopping"}
        thread.join(timeout=10)
        assert not thread.is_alive()
        server.server_close()


def _gated_runner(gate):
    """A runner parked at ``gate`` — same bytes as the link runner."""
    def runner(batch):
        gate.wait(30.0)
        return dict(run_link_ber_batch(batch))
    return runner


def _serve_in_thread(service, heartbeat_s=10.0):
    server = serve(service, port=0, heartbeat_s=heartbeat_s)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    return server, thread, "http://%s:%d" % (host, port)


def _wait_until(predicate, timeout=15.0, message="condition not reached"):
    deadline = time.time() + timeout
    while not predicate():
        assert time.time() < deadline, message
        time.sleep(0.05)


class TestServiceLifecycleHardening:
    def test_stop_drain_finishes_inflight_requests(self, tmp_path):
        gate = threading.Event()
        service = Service(ResultStore(tmp_path / "store"), workers=1,
                          runner=_gated_runner(gate)).start()
        ticket = service.submit(request())
        threading.Timer(0.2, gate.set).start()
        service.stop(drain=True, timeout=60.0)
        # Nothing in flight was failed: the drain waited it out.
        assert ticket.done.is_set() and not ticket.cancelled
        assert ticket.result() == request().experiment(
            runner=_gated_runner(gate)).run(SweepExecutor("serial"))

    def test_wedged_pump_raises_and_blocks_restart(self, tmp_path):
        service = Service(ResultStore(tmp_path / "store"), workers=1,
                          stop_timeout_s=0.2)
        service.start()
        release = threading.Event()
        entered = threading.Event()

        def stuck_pump(timeout=0.0):
            entered.set()
            release.wait(30.0)
            return 0

        service.broker.pump = stuck_pump
        assert entered.wait(5.0), "pump thread never entered the stuck pump"
        with pytest.raises(ServiceError, match="failed to stop"):
            service.stop()
        # A wedged service refuses to restart rather than doubling pumps.
        with pytest.raises(ServiceError, match="restarted"):
            service.start()
        release.set()

    def test_metrics_snapshot_includes_fleet_and_store(self, service):
        service.characterise(request(), timeout=60)
        metrics = service.metrics()
        assert metrics["requests"]["completed"] == 1
        assert metrics["batches"]["simulated"] > 0
        assert metrics["fleet"]["workers"] == 2
        assert len(metrics["heartbeats"]) == 2
        assert metrics["store_root"] == service.store.root

    def test_service_cancel_passthrough(self, tmp_path):
        gate = threading.Event()
        with Service(ResultStore(tmp_path / "store"), workers=1,
                     runner=_gated_runner(gate)) as running:
            ticket = running.submit(request())
            assert running.cancel(ticket.key) is True
            assert running.cancel(ticket.key) is False
            assert ticket.cancelled
            gate.set()


class TestHTTPHardening:
    def test_saturated_submit_is_a_429_with_retry_after(self, tmp_path):
        gate = threading.Event()
        with Service(ResultStore(tmp_path / "store"), workers=1,
                     runner=_gated_runner(gate),
                     max_inflight_batches=1) as running:
            server, thread, base_url = _serve_in_thread(running)
            try:
                held = running.submit(request([4.0]))
                with pytest.raises(ServiceHTTPError) as excinfo:
                    list(stream_request(base_url, request([6.0])))
                error = excinfo.value
                assert error.status == 429 and error.saturated
                assert error.retry_after_s >= 1.0
                assert "saturated" in error.body["error"]
                # Retrying after the in-flight work drains succeeds, with
                # rows bit-for-bit equal to an unloaded run.
                gate.set()
                held.result(timeout=60)
                events = list(stream_request(base_url, request([6.0])))
                rows = [e["row"] for e in events if e["event"] == "row"]
                serial = request([6.0]).experiment(
                    runner=_gated_runner(gate)).run(SweepExecutor("serial"))
                assert sorted(rows, key=lambda r: r["snr_db"]) == serial
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=10)

    def test_metrics_endpoint(self, service):
        server, thread, base_url = _serve_in_thread(service)
        try:
            list(stream_request(base_url, request()))
            metrics = fetch_json(base_url + "/v1/metrics")
            assert metrics["requests"]["completed"] == 1
            assert metrics["admission"]["open"] is True
            assert metrics["batches"]["simulated"] > 0
            assert metrics["fleet"]["workers"] == 2
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_cancel_endpoint_round_trip(self, tmp_path):
        gate = threading.Event()
        with Service(ResultStore(tmp_path / "store"), workers=1,
                     runner=_gated_runner(gate)) as running:
            server, thread, base_url = _serve_in_thread(running)
            try:
                ticket = running.submit(request())
                reply = cancel_request(base_url, ticket.key)
                assert reply == {"request": ticket.key, "cancelled": True}
                assert ticket.cancelled
                # A second cancel (or a bogus key) is an honest 404.
                with pytest.raises(ServiceHTTPError) as excinfo:
                    cancel_request(base_url, ticket.key)
                assert excinfo.value.status == 404
                gate.set()
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=10)

    def test_disconnect_mid_stream_cancels_the_request(self, tmp_path):
        gate = threading.Event()
        with Service(ResultStore(tmp_path / "store"), workers=1,
                     runner=_gated_runner(gate)) as running:
            server, thread, base_url = _serve_in_thread(running,
                                                        heartbeat_s=0.1)
            try:
                host, port = server.server_address[:2]
                conn = http.client.HTTPConnection(host, port, timeout=30)
                conn.request("POST", "/v1/characterise",
                             body=json.dumps(request().to_dict()),
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                accepted = json.loads(response.fp.readline())
                assert accepted["event"] == "accepted"
                # Hang up mid-stream: the keep-alive heartbeat detects it
                # and routes the disconnect into the cancel path.  (The
                # response holds the socket via its makefile — both must
                # close for the peer to see the hang-up.)
                response.close()
                conn.close()
                _wait_until(
                    lambda: running.broker.status()["cancelled_requests"] == 1,
                    message="disconnect was never routed into cancel")
                assert running.status()["in_flight_requests"] == 0
                gate.set()
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=10)

    def test_detached_client_disconnect_keeps_the_request(self, tmp_path):
        gate = threading.Event()
        with Service(ResultStore(tmp_path / "store"), workers=1,
                     runner=_gated_runner(gate)) as running:
            server, thread, base_url = _serve_in_thread(running,
                                                        heartbeat_s=0.1)
            try:
                host, port = server.server_address[:2]
                conn = http.client.HTTPConnection(host, port, timeout=30)
                conn.request("POST", "/v1/characterise?detach=1",
                             body=json.dumps(request().to_dict()),
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                accepted = json.loads(response.fp.readline())
                assert accepted["detach"] is True
                response.close()
                conn.close()
                time.sleep(0.5)  # several heartbeats: disconnect detected
                # The fire-and-forget escape hatch: still running.
                assert running.status()["in_flight_requests"] == 1
                gate.set()
                _wait_until(
                    lambda: running.broker.status()["completed_requests"] == 1,
                    message="detached request did not run to completion")
                assert running.broker.status()["cancelled_requests"] == 0
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=10)

    def test_mid_stream_fault_emits_a_terminal_error_event(self, tmp_path):
        # A runner leaking an unserialisable extra poisons the row event
        # at the JSON layer — exactly the mid-stream server fault the
        # contract covers: the client must see a terminal "error" line,
        # never a silent truncation.
        def leaky_runner(batch):
            result = dict(run_link_ber_batch(batch))
            result["opaque"] = object()
            return result

        with Service(ResultStore(tmp_path / "store"), workers=1,
                     runner=leaky_runner) as running:
            server, thread, base_url = _serve_in_thread(running)
            try:
                events = list(stream_request(base_url, request([4.0])))
                assert events[0]["event"] == "accepted"
                assert events[-1]["event"] == "error"
                assert "TypeError" in events[-1]["error"]
                # The fault was at the JSON layer only: the broker side
                # of the request had already completed normally, and the
                # handler's post-fault cancel was a clean no-op.
                assert running.broker.status()["completed_requests"] == 1
                assert running.broker.status()["cancelled_requests"] == 0
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=10)

    def test_shutdown_drain_finishes_inflight_first(self, tmp_path):
        gate = threading.Event()
        with Service(ResultStore(tmp_path / "store"), workers=1,
                     runner=_gated_runner(gate)) as running:
            server, thread, base_url = _serve_in_thread(running)
            ticket = running.submit(request([4.0]))
            reply = fetch_json(base_url + "/v1/shutdown?drain=1", data={})
            assert reply == {"status": "draining"}
            # Admission is closed the moment the drain starts.
            with pytest.raises(ServiceHTTPError) as excinfo:
                list(stream_request(base_url, request([6.0])))
            assert excinfo.value.status == 503
            assert "draining" in excinfo.value.body["error"]
            gate.set()
            thread.join(timeout=30)
            assert not thread.is_alive()
            server.server_close()
            # The in-flight request finished before the server stopped.
            assert ticket.done.is_set()
            assert ticket.result() == request([4.0]).experiment(
                runner=_gated_runner(gate)).run(SweepExecutor("serial"))


class _CaptureHandler(BaseHTTPRequestHandler):
    """Scripted peer for the client helpers: records requests, replies
    with a canned 429 on ``/err``, a 429-then-200 script on ``/flaky``
    and 200 elsewhere."""

    captured = []
    flaky_failures = 0

    def log_message(self, fmt, *args):
        pass

    def do_POST(self):
        length = int(self.headers.get("Content-Length") or 0)
        type(self).captured.append(
            (self.path, self.headers.get("Content-Type"),
             self.rfile.read(length)))
        saturated = self.path.startswith("/err")
        if self.path.startswith("/flaky"):
            if type(self).flaky_failures > 0:
                type(self).flaky_failures -= 1
                saturated = True
        if saturated:
            body = json.dumps({"error": "service saturated: go away",
                               "retry_after_s": 7.0}).encode()
            self.send_response(429)
            self.send_header("Retry-After", "7")
        else:
            body = b'{"ok": true}'
            self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture()
def capture_url():
    _CaptureHandler.captured = []
    _CaptureHandler.flaky_failures = 0
    server = ThreadingHTTPServer(("127.0.0.1", 0), _CaptureHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield "http://%s:%d" % (host, port)
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


class TestClientHelpers:
    def test_fetch_json_posts_with_content_type(self, capture_url):
        assert fetch_json(capture_url + "/ok", data={"x": 1}) == {"ok": True}
        path, content_type, body = _CaptureHandler.captured[-1]
        assert content_type == "application/json"
        assert json.loads(body) == {"x": 1}

    def test_fetch_json_surfaces_the_error_body(self, capture_url):
        with pytest.raises(ServiceHTTPError) as excinfo:
            fetch_json(capture_url + "/err", data={})
        error = excinfo.value
        assert error.status == 429 and error.saturated
        assert error.body["error"] == "service saturated: go away"
        assert error.retry_after_s == 7.0
        assert "429" in str(error) and "go away" in str(error)

    def test_stream_request_surfaces_the_error_body(self, capture_url):
        with pytest.raises(ServiceHTTPError) as excinfo:
            list(stream_request(capture_url + "/err", request()))
        assert excinfo.value.status == 429

class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="attempts"):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)

    def test_delay_doubles_caps_and_honours_retry_after(self):
        policy = RetryPolicy(base_s=1.0, max_s=4.0, jitter=0.0)
        assert policy.delay_s(0) == 1.0
        assert policy.delay_s(1) == 2.0
        assert policy.delay_s(5) == 4.0  # capped
        # The server's Retry-After floors the wait — never less.
        assert policy.delay_s(0, retry_after_s=7.0) == 7.0
        assert policy.delay_s(5, retry_after_s=2.0) == 4.0

    def test_delay_jitter_stays_within_the_window(self):
        policy = RetryPolicy(base_s=8.0, jitter=0.5,
                             rng=__import__("random").Random(7))
        delays = [policy.delay_s(0) for _ in range(50)]
        assert all(4.0 <= delay <= 8.0 for delay in delays)
        assert len(set(delays)) > 1  # actually jittered

    def test_fetch_json_retries_saturation_then_surfaces(self, capture_url):
        sleeps = []
        policy = RetryPolicy(attempts=3, base_s=0.01, jitter=0.0,
                             sleep=sleeps.append)
        with pytest.raises(ServiceHTTPError) as excinfo:
            fetch_json(capture_url + "/err", data={}, retry=policy)
        assert excinfo.value.status == 429
        # Three tries hit the wire; the two waits honoured Retry-After.
        assert len(_CaptureHandler.captured) == 3
        assert sleeps == [7.0, 7.0]
        assert policy.retries == 2

    def test_fetch_json_succeeds_once_the_server_recovers(self, capture_url):
        _CaptureHandler.flaky_failures = 2
        policy = RetryPolicy(attempts=5, base_s=0.01, jitter=0.0,
                             sleep=lambda _s: None)
        assert fetch_json(capture_url + "/flaky", data={},
                          retry=policy) == {"ok": True}
        assert len(_CaptureHandler.captured) == 3
        assert policy.retries == 2

    def test_non_retryable_status_surfaces_immediately(self, capture_url):
        sleeps = []
        policy = RetryPolicy(attempts=5, statuses=(503,),
                             sleep=sleeps.append)
        with pytest.raises(ServiceHTTPError):
            fetch_json(capture_url + "/err", data={}, retry=policy)
        assert len(_CaptureHandler.captured) == 1
        assert sleeps == []

    def test_connection_failures_retry_only_when_opted_in(self):
        nowhere = "http://127.0.0.1:1/v1/status"
        sleeps = []
        policy = RetryPolicy(attempts=3, base_s=0.01, jitter=0.0,
                             connect=True, sleep=sleeps.append)
        with pytest.raises(urllib.error.URLError):
            fetch_json(nowhere, retry=policy)
        assert len(sleeps) == 2
        # Without connect=True the first failure surfaces untouched.
        strict = RetryPolicy(attempts=3, sleep=sleeps.append)
        with pytest.raises(urllib.error.URLError):
            fetch_json(nowhere, retry=strict)
        assert len(sleeps) == 2

    def test_stream_request_retries_the_submit(self, capture_url):
        sleeps = []
        policy = RetryPolicy(attempts=2, base_s=0.01, jitter=0.0,
                             sleep=sleeps.append)
        with pytest.raises(ServiceHTTPError):
            list(stream_request(capture_url + "/err", request(),
                                retry=policy))
        assert len(_CaptureHandler.captured) == 2
        assert sleeps == [7.0]

    def test_stream_request_retry_delivers_rows(self, service):
        # Against the real service: a policy on a healthy endpoint is
        # invisible — the stream completes with bit-for-bit rows.
        server, thread, base_url = _serve_in_thread(service)
        try:
            policy = RetryPolicy(attempts=3, base_s=0.01)
            events = list(stream_request(base_url, request(),
                                         retry=policy))
            rows = [e["row"] for e in events if e["event"] == "row"]
            serial = request().experiment().run(SweepExecutor("serial"))
            assert sorted(rows, key=lambda r: r["snr_db"]) == serial
            assert policy.retries == 0
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
