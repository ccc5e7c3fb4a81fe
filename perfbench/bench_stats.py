"""Statistics helpers of the benchmark: percentiles, failures, self times.

Pure functions over plain numbers and tuples, so the self-tests in
``test_perfbench_stats.py`` can pin every rule without running a
workload.
"""

import hashlib
import json
import math

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile is only reported when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10


def percentile(samples, pct):
    """Linear-interpolated percentile of ``samples`` (numpy's default)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(n, pct):
    """How many of ``n`` samples lie strictly above the ``pct`` rank."""
    return n - 1 - math.floor((n - 1) * pct / 100.0)


def tail_percentile(n):
    """The highest ladder percentile with :data:`MIN_BEYOND` samples beyond.

    ``None`` when even the median has fewer, which under the rank
    convention of :func:`percentile` means ``n < 2 * MIN_BEYOND``.
    """
    best = None
    for pct in TAIL_LADDER:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            best = pct
    return best


def timing_summary(samples, tail_pct):
    """Median and the workload's fixed tail percentile of ``samples``.

    The tail percentile is fixed per workload so that commits with
    different throughput report the same statistic; ``tail_ok`` says
    whether this run had at least :data:`MIN_BEYOND` samples beyond it.
    """
    n = len(samples)
    if n == 0:
        return {"n": 0, "p50": None, "tail": None, "tail_pct": tail_pct,
                "tail_ok": False, "rule_pct": None}
    return {
        "n": n,
        "p50": percentile(samples, 50.0),
        "tail": percentile(samples, tail_pct),
        "tail_pct": tail_pct,
        "tail_ok": samples_beyond(n, tail_pct) >= MIN_BEYOND,
        "rule_pct": tail_percentile(n),
    }


class Outcome:
    """One attempted operation: its timings, or why it failed.

    ``failure`` is ``None`` on success, else one of ``"exception"``,
    ``"rejected"`` (a 429 or 503 answer), ``"timeout"`` or
    ``"mismatch"`` (rows differ from the reference).
    """

    __slots__ = ("latency_s", "ttfr_s", "failure", "detail", "packets",
                 "overhead_s")

    def __init__(self, latency_s=None, ttfr_s=None, failure=None,
                 detail=None, packets=0, overhead_s=0.0):
        self.latency_s = latency_s
        self.ttfr_s = ttfr_s
        self.failure = failure
        self.detail = detail
        self.packets = packets
        #: Client-observed time the program's own accounting does not see
        #: (HTTP framing and transport), when the workload measures it.
        self.overhead_s = overhead_s


FAILURE_KINDS = ("exception", "rejected", "timeout", "mismatch")


def account(outcomes, slo_ttfr_s):
    """Failure and SLO accounting over a list of :class:`Outcome`.

    Every failed operation counts once, whatever went wrong, and misses
    the latency limit; only successful operations contribute timings.
    """
    attempted = len(outcomes)
    by_kind = {kind: 0 for kind in FAILURE_KINDS}
    met = 0
    for outcome in outcomes:
        if outcome.failure is not None:
            if outcome.failure not in by_kind:
                raise ValueError("unknown failure kind %r" % outcome.failure)
            by_kind[outcome.failure] += 1
        elif outcome.ttfr_s is not None and outcome.ttfr_s <= slo_ttfr_s:
            met += 1
    failed = sum(by_kind.values())
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_by_kind": by_kind,
        "failed_frac": failed / attempted if attempted else 0.0,
        "slo_met_frac": met / attempted if attempted else 0.0,
        "slo_ttfr_s": slo_ttfr_s,
    }


def self_times(spans):
    """Self time of every span: its duration minus its children's.

    ``spans`` is an iterable of ``(span_id, parent_id, name, start, end)``;
    a child is a span whose ``parent_id`` names another span.  Returns
    ``{span_id: self_seconds}``.
    """
    spans = list(spans)
    child_time = {}
    for _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    return {sid: (end - start) - child_time.get(sid, 0.0)
            for sid, _, _, start, end in spans}


def reconcile(spans, op_wall_s, is_wait, extra_s=0.0, root=None):
    """Split operation wall-clock into layer self times and the rest.

    ``spans`` are layer spans from every thread (see :func:`self_times`);
    ``op_wall_s`` is the summed wall-clock of the operations they served.
    Wait spans (``is_wait(name)`` true: a thread blocked, not working)
    are set aside.  ``extra_s`` is time attributed to a layer without
    spans (the HTTP overhead measured client-side).  The remainder is
    ``unattributed_s``: ``op_wall_s - sum(by_name) - extra_s``.

    Spans named ``root`` are operation spans a workload opens around each
    operation on the thread that runs it; they are no layer.  Their
    summed durations (``root_wall_s``) and self times (``root_self_s``)
    come from the span tree alone, so on a workload whose layers all run
    inside its operation spans ``root_wall_s`` must match ``op_wall_s``,
    ``root_self_s`` must match ``unattributed_s``, and ``orphans`` (layer
    spans with no operation span above them) must be 0.  ``negative``
    counts spans whose self time is below zero (a child outliving its
    parent).  Any of these failing means broken attribution.
    """
    spans = list(spans)
    own = self_times(spans)
    parent_of = {sid: parent for sid, parent, _, _, _ in spans}
    name_of = {sid: name for sid, _, name, _, _ in spans}
    by_name = {}
    waited = root_self = root_wall = 0.0
    negative = orphans = 0
    for sid, _, name, start, end in spans:
        seconds = own[sid]
        if seconds < -1e-9:
            negative += 1
        if name == root:
            root_self += seconds
            root_wall += end - start
            continue
        if is_wait(name):
            waited += seconds
        else:
            by_name[name] = by_name.get(name, 0.0) + seconds
        top = sid
        while parent_of.get(top) is not None:
            top = parent_of[top]
        orphans += name_of[top] != root
    unattributed = op_wall_s - sum(by_name.values()) - extra_s
    return {"by_name": by_name, "unattributed_s": unattributed,
            "wait_s": waited, "negative": negative, "orphans": orphans,
            "root_self_s": root_self, "root_wall_s": root_wall}


def _canonical(value):
    """JSON-able form of a row value (numpy scalars and arrays included)."""
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError("unserialisable row value %r" % (value,))


def rows_digest(rows):
    """Order-sensitive digest of rows, stable across JSON round trips."""
    text = json.dumps(json.loads(json.dumps(rows, default=_canonical)),
                      sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def median(values):
    return percentile(values, 50.0)
