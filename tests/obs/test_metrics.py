"""Tests for the metrics registry and the Prometheus text format."""

import math

import pytest

from repro.obs.metrics import (DEFAULT_BUCKETS, GLOBAL, MetricsRegistry,
                               parse_exposition, render_prometheus)


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestInstruments:
    def test_counter_only_goes_up(self, registry):
        requests = registry.counter("t_requests_total", "Requests seen.")
        requests.inc()
        requests.inc(4)
        assert requests.unlabelled.value == 5
        with pytest.raises(ValueError, match="only go up"):
            requests.inc(-1)

    def test_gauge_goes_both_ways(self, registry):
        depth = registry.gauge("t_queue_depth", "Queue depth.")
        depth.set(7)
        depth.inc(-3)
        assert depth.unlabelled.value == 4

    def test_histogram_buckets_are_cumulative(self, registry):
        latency = registry.histogram("t_seconds", "Latency.",
                                     buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            latency.observe(value)
        child = latency.unlabelled
        samples = dict(((name, labels), value)
                       for name, labels, value in
                       child.samples("t_seconds", ()))
        assert samples[("t_seconds_bucket", (("le", "0.1"),))] == 1
        assert samples[("t_seconds_bucket", (("le", "1"),))] == 3
        assert samples[("t_seconds_bucket", (("le", "+Inf"),))] == 4
        assert samples[("t_seconds_count", ())] == 4
        assert samples[("t_seconds_sum", ())] == pytest.approx(6.05)

    def test_unsorted_buckets_are_rejected(self, registry):
        with pytest.raises(ValueError, match="sorted"):
            registry.histogram("t_bad", "x", buckets=(1.0, 0.1)).observe(1)

    def test_default_buckets_span_store_hits_to_fused_rounds(self):
        assert DEFAULT_BUCKETS[0] <= 0.001 and DEFAULT_BUCKETS[-1] >= 30


class TestFamilies:
    def test_labels_must_match_the_declared_names(self, registry):
        family = registry.counter("t_total", "x", labelnames=("stage",))
        family.labels(stage="decode").inc()
        with pytest.raises(ValueError, match="expected labels"):
            family.labels(phase="decode")
        with pytest.raises(ValueError, match="expected labels"):
            family.labels()

    def test_unlabelled_requires_a_label_less_family(self, registry):
        family = registry.counter("t_total", "x", labelnames=("stage",))
        with pytest.raises(ValueError, match="has labels"):
            family.unlabelled

    def test_children_are_cached_per_label_values(self, registry):
        family = registry.gauge("t_gauge", "x", labelnames=("worker",))
        assert family.labels(worker="w0") is family.labels(worker="w0")
        assert family.labels(worker="w0") is not family.labels(worker="w1")

    def test_reregistration_is_idempotent_but_shape_checked(self, registry):
        first = registry.counter("t_total", "x", labelnames=("stage",))
        assert registry.counter("t_total", "x",
                                labelnames=("stage",)) is first
        with pytest.raises(ValueError, match="different shape"):
            registry.gauge("t_total", "x", labelnames=("stage",))
        with pytest.raises(ValueError, match="different shape"):
            registry.counter("t_total", "x", labelnames=("other",))

    def test_bad_metric_and_label_names_are_rejected(self, registry):
        with pytest.raises(ValueError, match="bad metric name"):
            registry.counter("0bad", "x")
        with pytest.raises(ValueError, match="bad label name"):
            registry.counter("t_total", "x", labelnames=("le gume",))

    def test_callbacks_replace_but_never_shadow_direct(self, registry):
        registry.callback("t_cb", "x", lambda: [({}, 1)])
        registry.callback("t_cb", "x", lambda: [({}, 2)])
        parsed = parse_exposition(registry.render())
        assert parsed["t_cb"]["samples"] == [("t_cb", {}, 2.0)]
        # A callback is always a gauge: counts live in one child each.
        assert parsed["t_cb"]["type"] == "gauge"
        registry.counter("t_direct", "x")
        with pytest.raises(ValueError, match="direct family"):
            registry.callback("t_direct", "x", lambda: [])

    def test_children_are_created_up_front_and_render_at_zero(
            self, registry):
        events = registry.counter("t_events_total", "x",
                                  labelnames=("event",)).children("a", "b")
        events["b"].inc()
        parsed = parse_exposition(registry.render())
        assert parsed["t_events_total"]["samples"] == [
            ("t_events_total", {"event": "a"}, 0.0),
            ("t_events_total", {"event": "b"}, 1.0)]
        assert registry.counter("t_events_total", "x", labelnames=(
            "event",)).children("a")["a"] is events["a"]

    def test_removed_children_stop_rendering_and_restart_at_zero(
            self, registry):
        family = registry.counter("t_items_total", "x",
                                  labelnames=("worker",))
        family.labels(worker="w0").inc(3)
        family.labels(worker="w1").inc()
        family.remove(worker="w0")
        family.remove(worker="never-seen")  # a quiet no-op
        parsed = parse_exposition(registry.render())
        assert parsed["t_items_total"]["samples"] == [
            ("t_items_total", {"worker": "w1"}, 1.0)]
        assert family.labels(worker="w0").value == 0


class TestRendering:
    def test_render_round_trips_through_the_validator(self, registry):
        requests = registry.counter("t_requests_total", "Requests.",
                                    labelnames=("state",))
        requests.labels(state="completed").inc(3)
        requests.labels(state="failed").inc()
        registry.histogram("t_stage_seconds", "Stage latency.",
                           labelnames=("stage",),
                           buckets=(0.1, 1.0)).labels(
                               stage="decode").observe(0.5)
        registry.callback("t_heartbeat_age_seconds", "Heartbeat age.",
                          lambda: [({"worker": "w0"}, 1.5)])
        text = registry.render()
        parsed = parse_exposition(text)
        assert parsed["t_requests_total"]["type"] == "counter"
        assert (("t_requests_total", {"state": "completed"}, 3.0)
                in parsed["t_requests_total"]["samples"])
        assert parsed["t_stage_seconds"]["type"] == "histogram"
        assert parsed["t_heartbeat_age_seconds"]["samples"] == [
            ("t_heartbeat_age_seconds", {"worker": "w0"}, 1.5)]

    def test_label_values_are_escaped(self, registry):
        gauge = registry.gauge("t_gauge", "x", labelnames=("name",))
        gauge.labels(name='we"ird\\path\nx').set(1)
        parsed = parse_exposition(registry.render())
        ((_, labels, _),) = parsed["t_gauge"]["samples"]
        assert labels == {"name": 'we\\"ird\\\\path\\nx'}

    def test_render_prometheus_concatenates_registries(self, registry):
        other = MetricsRegistry()
        registry.counter("t_a_total", "x").inc()
        other.counter("t_b_total", "x").inc()
        parsed = parse_exposition(render_prometheus(registry, other))
        assert set(parsed) == {"t_a_total", "t_b_total"}

    def test_empty_registry_renders_empty(self, registry):
        assert registry.render() == ""
        assert parse_exposition("") == {}


class TestValidator:
    def test_sample_without_type_is_rejected(self):
        with pytest.raises(ValueError, match="without # TYPE"):
            parse_exposition("loose_metric 1\n")

    def test_malformed_type_line_is_rejected(self):
        with pytest.raises(ValueError, match="malformed TYPE"):
            parse_exposition("# TYPE lonely\n")
        with pytest.raises(ValueError, match="unknown type"):
            parse_exposition("# TYPE m widget\n")

    def test_malformed_labels_are_rejected(self):
        with pytest.raises(ValueError, match="malformed labels"):
            parse_exposition('# TYPE m gauge\nm{x=unquoted} 1\n')

    def test_duplicate_labels_are_rejected(self):
        with pytest.raises(ValueError, match="duplicate label"):
            parse_exposition('# TYPE m gauge\nm{a="1",a="2"} 1\n')

    def test_non_contiguous_families_are_rejected(self):
        text = ("# TYPE a gauge\na 1\n"
                "# TYPE b gauge\nb 1\n"
                "a 2\n")
        with pytest.raises(ValueError, match="not contiguous"):
            parse_exposition(text)

    def test_histogram_without_inf_bucket_is_rejected(self):
        text = ('# TYPE h histogram\n'
                'h_bucket{le="1"} 1\nh_sum 0.5\nh_count 1\n')
        with pytest.raises(ValueError, match=r"missing \+Inf"):
            parse_exposition(text)

    def test_histogram_with_non_cumulative_buckets_is_rejected(self):
        text = ('# TYPE h histogram\n'
                'h_bucket{le="1"} 5\nh_bucket{le="+Inf"} 3\n'
                'h_sum 0.5\nh_count 3\n')
        with pytest.raises(ValueError, match="not cumulative"):
            parse_exposition(text)

    def test_histogram_count_must_equal_inf_bucket(self):
        text = ('# TYPE h histogram\n'
                'h_bucket{le="1"} 1\nh_bucket{le="+Inf"} 2\n'
                'h_sum 0.5\nh_count 9\n')
        with pytest.raises(ValueError, match="_count"):
            parse_exposition(text)

    def test_special_values_parse(self):
        parsed = parse_exposition(
            "# TYPE m gauge\nm 1\nm{k=\"inf\"} +Inf\n")
        values = [value for _, _, value in parsed["m"]["samples"]]
        assert values[0] == 1.0 and math.isinf(values[1])


class TestGlobalRegistry:
    def test_service_wide_families_are_preregistered(self):
        # Importing the store and cluster modules registers their
        # latency families in the process-global registry.
        import repro.analysis.store   # noqa: F401
        import repro.service.cluster  # noqa: F401

        parsed = parse_exposition(GLOBAL.render())
        assert "repro_store_seconds" in parsed
        assert "repro_lease_seconds" in parsed
        assert parsed["repro_store_seconds"]["type"] == "histogram"

    def test_empty_histogram_family_renders_validly(self):
        registry = MetricsRegistry()
        registry.histogram("t_unused_seconds", "Never observed.")
        parsed = parse_exposition(registry.render())
        assert parsed["t_unused_seconds"]["samples"] == []
