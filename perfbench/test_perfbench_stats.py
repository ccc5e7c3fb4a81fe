"""Self-tests of the benchmark's statistics and accounting helpers.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import random
import unittest

from bench_stats import (Outcome, account, percentile, reconcile,
                         rows_digest, samples_beyond, self_times,
                         tail_percentile, timing_summary)


class PercentileRuleTest(unittest.TestCase):

    def test_percentile_matches_linear_interpolation(self):
        self.assertEqual(percentile([1.0, 2.0, 3.0, 4.0], 50.0), 2.5)
        self.assertEqual(percentile([5.0], 99.0), 5.0)
        self.assertAlmostEqual(percentile(range(101), 99.0), 99.0)

    def test_samples_beyond_counts_strictly_larger_samples(self):
        rng = random.Random(7)
        for n in (1, 2, 19, 20, 21, 40, 99, 100, 901, 902, 1500):
            data = [rng.random() for _ in range(n)]
            for pct in (50.0, 75.0, 90.0, 99.0, 99.9):
                value = percentile(data, pct)
                larger = sum(1 for x in data if x > value)
                self.assertEqual(samples_beyond(n, pct), larger, (n, pct))

    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(tail_percentile(19))
        self.assertEqual(tail_percentile(20), 50.0)
        self.assertEqual(tail_percentile(37), 50.0)
        self.assertEqual(tail_percentile(38), 75.0)
        self.assertEqual(tail_percentile(91), 75.0)
        self.assertEqual(tail_percentile(92), 90.0)
        self.assertEqual(tail_percentile(901), 95.0)
        self.assertEqual(tail_percentile(902), 99.0)
        self.assertEqual(tail_percentile(100000), 99.9)

    def test_summary_flags_a_fixed_tail_without_ten_samples_beyond(self):
        summary = timing_summary([float(i) for i in range(30)], 75.0)
        self.assertEqual(summary["n"], 30)
        self.assertEqual(summary["p50"], 14.5)
        self.assertFalse(summary["tail_ok"])
        self.assertEqual(summary["rule_pct"], 50.0)
        self.assertTrue(timing_summary([0.0] * 41, 75.0)["tail_ok"])


class FailureAccountingTest(unittest.TestCase):

    def test_each_failure_counts_once_and_misses_the_limit(self):
        outcomes = [
            Outcome(failure="exception", detail="ValueError()"),
            Outcome(failure="rejected", detail="HTTP 429"),
            Outcome(0.2, 0.1, failure="mismatch"),
            Outcome(0.2, 0.1),      # meets the 0.5 s limit
            Outcome(0.9, 0.8),      # succeeds but misses it
        ]
        result = account(outcomes, slo_ttfr_s=0.5)
        self.assertEqual(result["attempted"], 5)
        self.assertEqual(result["failed"], 3)
        self.assertEqual(result["failed_by_kind"], {
            "exception": 1, "rejected": 1, "timeout": 0, "mismatch": 1})
        self.assertAlmostEqual(result["failed_frac"], 0.6)
        # The mismatch was fast, yet it is a miss: only op 4 meets it.
        self.assertAlmostEqual(result["slo_met_frac"], 0.2)

    def test_unknown_failure_kind_is_refused(self):
        with self.assertRaises(ValueError):
            account([Outcome(failure="flaky")], 1.0)

    def test_service_refusals_classify_as_rejected(self):
        try:
            from repro.service import ServiceHTTPError, ServiceSaturated
        except ImportError:
            self.skipTest("the program source is not importable")
        from workloads import failed

        self.assertEqual(failed(ServiceHTTPError(429, {})).failure,
                         "rejected")
        self.assertEqual(failed(ServiceHTTPError(503, {})).failure,
                         "rejected")
        self.assertEqual(failed(ServiceSaturated("full")).failure,
                         "rejected")
        self.assertEqual(failed(ServiceHTTPError(400, {})).failure,
                         "exception")
        self.assertEqual(failed(TimeoutError("slow")).failure, "timeout")
        self.assertEqual(failed(RuntimeError("boom")).failure, "exception")


class ReconciliationTest(unittest.TestCase):
    # One operation of 10 s on one thread: a decode (1..7) holding a
    # forward sweep (2..5), and a store put (8..9).  On a second thread a
    # pump (0..4) waits in a poll (0..3).
    SPANS = [
        (1, None, "phy.decode", 1.0, 7.0),
        (2, 1, "phy.bcjr.forward", 2.0, 5.0),
        (3, None, "store.put", 8.0, 9.0),
        (4, None, "broker.pump", 0.0, 4.0),
        (5, 4, "fleet.poll", 0.0, 3.0),
    ]

    def test_self_time_excludes_children(self):
        own = self_times(self.SPANS)
        self.assertEqual(own, {1: 3.0, 2: 3.0, 3: 1.0, 4: 1.0, 5: 3.0})

    def test_layers_plus_unattributed_add_up_to_wall_clock(self):
        result = reconcile(self.SPANS, 10.0, lambda n: n == "fleet.poll",
                           extra_s=0.5)
        self.assertEqual(result["by_name"], {
            "phy.decode": 3.0, "phy.bcjr.forward": 3.0, "store.put": 1.0,
            "broker.pump": 1.0})
        self.assertEqual(result["wait_s"], 3.0)
        self.assertAlmostEqual(result["unattributed_s"], 1.5)
        self.assertAlmostEqual(
            sum(result["by_name"].values()) + 0.5
            + result["unattributed_s"], 10.0)
        self.assertEqual(result["negative"], 0)

    def test_child_outliving_its_parent_is_reported(self):
        spans = [(1, None, "phy.decode", 0.0, 1.0),
                 (2, 1, "phy.bcjr.forward", 0.0, 1.5)]
        self.assertEqual(reconcile(spans, 1.0, lambda n: False)["negative"],
                         1)

    # One 10 s operation span holding a decode (1..7, with a forward
    # sweep 2..5) and a store put (8..9): 1 s of the operation is glue.
    ROOTED = [
        (1, None, "op", 0.0, 10.0),
        (2, 1, "phy.decode", 1.0, 7.0),
        (3, 2, "phy.bcjr.forward", 2.0, 5.0),
        (4, 1, "store.put", 8.0, 9.0),
    ]

    def test_operation_span_self_time_is_the_unattributed_glue(self):
        result = reconcile(self.ROOTED, 10.0, lambda n: False, root="op")
        self.assertNotIn("op", result["by_name"])
        self.assertEqual(result["orphans"], 0)
        self.assertEqual(result["root_wall_s"], 10.0)
        self.assertEqual(result["root_self_s"], 3.0)
        self.assertAlmostEqual(result["unattributed_s"],
                               result["root_self_s"])

    def test_layer_span_outside_every_operation_breaks_the_match(self):
        # A put recorded on another thread (no parent) is counted as a
        # layer but lies outside the operation: an orphan, and the
        # wall-clock remainder no longer equals the operation's glue.
        spans = self.ROOTED + [(5, None, "store.put", 3.0, 5.0)]
        result = reconcile(spans, 10.0, lambda n: False, root="op")
        self.assertEqual(result["orphans"], 1)
        self.assertAlmostEqual(result["unattributed_s"], 1.0)
        self.assertEqual(result["root_self_s"], 3.0)


class DigestTest(unittest.TestCase):

    def test_digest_survives_a_json_round_trip(self):
        rows = [{"snr_db": 4.0, "ber": 0.1 + 0.2, "packets": 8,
                 "stop_reason": "converged", "extra": (1, 2)}]
        again = [{"extra": [1, 2], "stop_reason": "converged",
                  "packets": 8, "ber": 0.30000000000000004, "snr_db": 4.0}]
        self.assertEqual(rows_digest(rows), rows_digest(again))
        changed = [dict(again[0], ber=0.3)]
        self.assertNotEqual(rows_digest(rows), rows_digest(changed))


if __name__ == "__main__":
    unittest.main()
