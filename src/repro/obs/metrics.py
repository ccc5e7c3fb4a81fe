"""Typed metrics: counters, gauges, fixed-bucket histograms, Prometheus text.

Every service counter lives here, once: the broker, its worker fleet
and its lease manager each own a registry, and the ``GET /v1/metrics``
JSON document (keys append-only across PRs), ``status()`` and the
Prometheus exposition all read the same counter children, so each event
is counted once.  Histograms add what a JSON blob cannot carry —
distributions, and stage latency *is* a distribution.  The pieces:

* :class:`Counter` / :class:`Gauge` / :class:`Histogram` instruments,
  grouped into named **families** with optional labels, owned by a
  :class:`MetricsRegistry`.
* **Callback gauges** whose samples are computed at render time from
  a closure — for live state another object owns (fleet heartbeat
  ages, the in-flight batch count), read under the broker lock during
  render.
* :func:`render_prometheus`: the text exposition format
  (``# HELP``/``# TYPE``, cumulative ``_bucket{le=...}`` + ``_sum`` +
  ``_count``), and :func:`parse_exposition`, a strict validator used by
  the test suite so the endpoint's output is checked against the
  format's grammar, not just eyeballed.

Everything is stdlib-only and thread-safe: direct instruments take a
per-registry lock on update, a leaf lock nothing else is taken under;
callback gauges synchronise however their owner does (the broker
renders under its own lock).
"""

import math
import re
import threading

__all__ = [
    "Counter", "Gauge", "Histogram", "Family", "MetricsRegistry",
    "GLOBAL", "DEFAULT_BUCKETS", "render_prometheus", "parse_exposition",
]

#: Latency buckets (seconds) sized for this service: sub-ms store hits
#: up to multi-second fused simulation rounds.
DEFAULT_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("_lock", "value")

    kind = "counter"

    def __init__(self, lock):
        self._lock = lock
        self.value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount

    def samples(self, name, labels):
        yield name, labels, self.value


class Gauge:
    """A value that can go either way (queue depth, heartbeat age)."""

    __slots__ = ("_lock", "value")

    kind = "gauge"

    def __init__(self, lock):
        self._lock = lock
        self.value = 0.0

    def set(self, value):
        with self._lock:
            self.value = value

    def inc(self, amount=1):
        with self._lock:
            self.value += amount

    def samples(self, name, labels):
        yield name, labels, self.value


class Histogram:
    """Fixed-bucket histogram (cumulative buckets rendered on export)."""

    __slots__ = ("_lock", "buckets", "counts", "total", "count")

    kind = "histogram"

    def __init__(self, lock, buckets=DEFAULT_BUCKETS):
        self._lock = lock
        self.buckets = tuple(float(b) for b in buckets)
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError("histogram buckets must be sorted")
        self.counts = [0] * (len(self.buckets) + 1)   # +1 for +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value):
        value = float(value)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            self.counts[index] += 1
            self.total += value
            self.count += 1

    def samples(self, name, labels):
        cumulative = 0
        for bound, count in zip(self.buckets, self.counts):
            cumulative += count
            yield (name + "_bucket", labels + (("le", _format(bound)),),
                   cumulative)
        yield name + "_bucket", labels + (("le", "+Inf"),), self.count
        yield name + "_sum", labels, self.total
        yield name + "_count", labels, self.count


class Family:
    """All instruments sharing one metric name, keyed by label values."""

    def __init__(self, registry, name, help_text, factory, labelnames):
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._registry = registry
        self._factory = factory
        self._children = {}
        self.kind = factory(threading.Lock()).kind

    def labels(self, **labelvalues):
        """The child instrument for these label values (created on
        first use)."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError("expected labels %r, got %r"
                             % (self.labelnames, tuple(labelvalues)))
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        with self._registry._lock:
            child = self._children.get(key)
            if child is None:
                child = self._factory(self._registry._lock)
                self._children[key] = child
        return child

    def children(self, *values):
        """Every child of a one-label family, by label value, created
        up front so each renders (at zero) from the first scrape on."""
        (label,) = self.labelnames
        return {value: self.labels(**{label: value}) for value in values}

    def remove(self, **labelvalues):
        """Drop the child for these label values (a worker that left);
        its series stops rendering."""
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        with self._registry._lock:
            self._children.pop(key, None)

    @property
    def unlabelled(self):
        """The single child of a label-less family."""
        if self.labelnames:
            raise ValueError("family %s has labels %r"
                             % (self.name, self.labelnames))
        return self.labels()

    def samples(self):
        # One snapshot under the registry lock: children come and go,
        # and a histogram's buckets must agree with its count.
        with self._registry._lock:
            return [sample
                    for key, child in sorted(self._children.items())
                    for sample in child.samples(
                        self.name, tuple(zip(self.labelnames, key)))]

    # Label-less convenience passthroughs.
    def inc(self, amount=1):
        self.unlabelled.inc(amount)

    def set(self, value):
        self.unlabelled.set(value)

    def observe(self, value):
        self.unlabelled.observe(value)


class _CallbackFamily:
    """A gauge computed at render time from the owner's live state."""

    kind = "gauge"

    def __init__(self, name, help_text, collect):
        self.name = name
        self.help = help_text
        self._collect = collect

    def samples(self):
        for labels, value in self._collect():
            pairs = tuple(sorted(labels.items())) if labels else ()
            yield self.name, pairs, value


class MetricsRegistry:
    """Owns metric families; renders them in the Prometheus text format."""

    def __init__(self):
        self._lock = threading.Lock()
        self._families = {}

    def _family(self, name, help_text, factory, labelnames):
        if not _NAME_RE.match(name):
            raise ValueError("bad metric name %r" % name)
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError("bad label name %r" % label)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = Family(self, name, help_text, factory, labelnames)
                self._families[name] = family
                return family
        # Idempotent re-registration (module reloads, repeated Service
        # construction against the GLOBAL registry) must agree on shape.
        if not isinstance(family, Family) or family.kind != \
                factory(threading.Lock()).kind \
                or family.labelnames != tuple(labelnames):
            raise ValueError("metric %s already registered with a "
                             "different shape" % name)
        return family

    def counter(self, name, help_text, labelnames=()):
        return self._family(name, help_text, Counter, labelnames)

    def gauge(self, name, help_text, labelnames=()):
        return self._family(name, help_text, Gauge, labelnames)

    def histogram(self, name, help_text, labelnames=(),
                  buckets=DEFAULT_BUCKETS):
        return self._family(name, help_text,
                            lambda lock: Histogram(lock, buckets),
                            labelnames)

    def callback(self, name, help_text, collect):
        """Register a render-time gauge; ``collect()`` yields
        ``(labels_dict, value)`` pairs.  Re-registering ``name``
        replaces the callback (a restarted broker keeps the name).
        Counters are never callbacks: a count lives in one child."""
        if not _NAME_RE.match(name):
            raise ValueError("bad metric name %r" % name)
        family = _CallbackFamily(name, help_text, collect)
        with self._lock:
            existing = self._families.get(name)
            if existing is not None and isinstance(existing, Family):
                raise ValueError("metric %s already registered as a "
                                 "direct family" % name)
            self._families[name] = family
        return family

    def render(self):
        """Prometheus text exposition for every family in this registry."""
        with self._lock:
            families = sorted(self._families.items())
        lines = []
        for name, family in families:
            lines.append("# HELP %s %s" % (name, _escape_help(family.help)))
            lines.append("# TYPE %s %s" % (name, family.kind))
            for sample_name, labels, value in family.samples():
                lines.append("%s%s %s" % (sample_name,
                                          _render_labels(labels),
                                          _format(value)))
        return "\n".join(lines) + "\n" if lines else ""


#: Process-wide registry for components without a natural owner object
#: (store latency, lease acquisition) — rendered alongside the broker's.
GLOBAL = MetricsRegistry()


def render_prometheus(*registries):
    """Concatenate the exposition of several registries."""
    return "".join(registry.render() for registry in registries)


def _format(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return "%d" % value
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return "%d" % int(value)
    return repr(value)


def _escape_help(text):
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text):
    return (str(text).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _render_labels(labels):
    if not labels:
        return ""
    inner = ",".join('%s="%s"' % (name, _escape_label_value(value))
                     for name, value in labels)
    return "{%s}" % inner


# --------------------------------------------------------------------------
# Validator: a strict reader of the text format, for tests.

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$")
_LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _parse_value(text):
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)


def parse_exposition(text):
    """Parse (and thereby validate) Prometheus text exposition.

    Returns ``{family_name: {"type", "help", "samples"}}`` where
    ``samples`` is a list of ``(sample_name, labels_dict, value)``.
    Raises :class:`ValueError` on any grammar violation, on samples
    without a preceding ``# TYPE``, and on histograms whose cumulative
    ``le`` buckets are non-monotonic or missing ``+Inf``.
    """
    families = {}
    current = None
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3:
                raise ValueError("line %d: malformed HELP" % lineno)
            families.setdefault(parts[2], {"type": None, "help": None,
                                           "samples": []})
            families[parts[2]]["help"] = parts[3] if len(parts) > 3 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise ValueError("line %d: malformed TYPE" % lineno)
            _, _, name, kind = parts
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "untyped"):
                raise ValueError("line %d: unknown type %r" % (lineno, kind))
            entry = families.setdefault(name, {"type": None, "help": None,
                                               "samples": []})
            if entry["type"] is not None:
                raise ValueError("line %d: duplicate TYPE for %s"
                                 % (lineno, name))
            entry["type"] = kind
            current = name
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError("line %d: malformed sample %r" % (lineno, line))
        sample_name = match.group("name")
        labels = {}
        label_text = match.group("labels")
        if label_text:
            pairs = list(_LABEL_PAIR_RE.finditer(label_text))
            rebuilt = ",".join(m.group(0) for m in pairs)
            if rebuilt != label_text.rstrip(","):
                raise ValueError("line %d: malformed labels %r"
                                 % (lineno, label_text))
            for pair in pairs:
                if pair.group(1) in labels:
                    raise ValueError("line %d: duplicate label %s"
                                     % (lineno, pair.group(1)))
                labels[pair.group(1)] = pair.group(2)
        value = _parse_value(match.group("value"))
        base = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            if sample_name.endswith(suffix) and \
                    sample_name[:-len(suffix)] in families:
                base = sample_name[:-len(suffix)]
                break
        if base not in families or families[base]["type"] is None:
            raise ValueError("line %d: sample %s without # TYPE"
                             % (lineno, sample_name))
        if current is not None and base != current and base in families \
                and families[base]["samples"]:
            raise ValueError("line %d: samples for %s are not contiguous"
                             % (lineno, base))
        current = base
        families[base]["samples"].append((sample_name, labels, value))

    for name, entry in families.items():
        # A family with no samples yet is legal (HELP/TYPE only): a
        # just-started service exposes its histogram families before
        # their first observation.
        if entry["type"] == "histogram" and entry["samples"]:
            _check_histogram(name, entry["samples"])
    return families


def _check_histogram(name, samples):
    series = {}
    sums = set()
    counts = {}
    for sample_name, labels, value in samples:
        key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
        if sample_name == name + "_bucket":
            if "le" not in labels:
                raise ValueError("%s_bucket without le label" % name)
            series.setdefault(key, []).append(
                (_parse_value(labels["le"]), value))
        elif sample_name == name + "_sum":
            sums.add(key)
        elif sample_name == name + "_count":
            counts[key] = value
        else:
            raise ValueError("unexpected histogram sample %s" % sample_name)
    if not series:
        raise ValueError("histogram %s has no buckets" % name)
    for key, buckets in series.items():
        bounds = [b for b, _ in buckets]
        if bounds != sorted(bounds):
            raise ValueError("histogram %s buckets out of order" % name)
        if not math.isinf(bounds[-1]):
            raise ValueError("histogram %s missing +Inf bucket" % name)
        values = [v for _, v in buckets]
        if values != sorted(values):
            raise ValueError("histogram %s buckets not cumulative" % name)
        if key not in counts or key not in sums:
            raise ValueError("histogram %s missing _sum/_count" % name)
        if counts[key] != values[-1]:
            raise ValueError("histogram %s _count != +Inf bucket" % name)
