"""Cross-replica coordination: per-batch store leases.

One service process already dedups aggressively — coalescing, store
hits, in-flight merging.  Two *replicas* sharing one
:class:`~repro.analysis.store.ResultStore` have none of that: each
broker only sees its own in-flight work, so overlapping requests landing
on different replicas would simulate the same ``(namespace, point,
batch)`` twice.  This module closes that gap with advisory **lease
files**, reusing the ``flock`` discipline the store's own append path is
built on (proven multi-process-safe by
``tests/analysis/test_store_contention.py``):

* Before dispatching a store-miss batch to its fleet, a lease-enabled
  broker tries to :meth:`~LeaseManager.acquire` the batch's lease.  The
  winner simulates as usual and releases on delivery (the result is in
  the store by then).
* A replica that loses the race parks the batch and **polls the store**
  for the winner's result instead of dispatching — the store append is
  the hand-off channel, so no replica-to-replica connection exists.
* A lease from a crashed replica goes **stale** once its TTL passes
  without a refresh (live holders re-stamp their leases from the broker
  pump); any waiting replica then reclaims it and simulates the batch
  itself.

Correctness never depends on the leases: batch contents are pure
functions of ``(namespace, point, batch index)`` and the store append is
idempotent under its own lock, so a lost, expired or double-granted
lease can only cost duplicate work — never change a row.  That is what
keeps the protocol small: leases are an *efficiency* contract
(simulate-once across replicas), the store remains the only source of
truth.

On-disk protocol
----------------
``<root>/<namespace digest>/<point spawn key>.b<batch>.lease`` holds one
JSON record ``{"owner", "acquired_at", "ttl_s"}``.  Creation uses
``O_CREAT | O_EXCL`` (atomic on POSIX, NFS v3+ included for local use);
every subsequent read-modify step — ownership checks, refresh stamps,
stale reclaim, release — runs under ``flock`` on the lease file itself,
with an ``st_nlink`` re-check after acquiring the lock so a file
unlinked by a concurrent release is never resurrected.  A lease file
that cannot be parsed (a crash mid-write) is treated as stale and
reclaimed.
"""

import errno
import json
import logging
import os
import socket
import threading
import time

from repro.analysis.store import _lock, _unlock
from repro.obs import metrics as obs_metrics

__all__ = ["LeaseManager", "default_replica_id", "lease_events"]

_logger = logging.getLogger(__name__)

#: Lease-acquisition latency by outcome, in the process-global registry:
#: lease files live on a shared (often networked) filesystem, so this is
#: where cross-replica contention shows up as wall-clock.
_LEASE_SECONDS = obs_metrics.GLOBAL.histogram(
    "repro_lease_seconds",
    "Cross-replica lease acquisition latency by outcome.",
    labelnames=("result",))

#: Directory name used for the lease tree inside a store root.
LEASE_DIRNAME = "_leases"

#: The lease manager's own events: leases won (reclaims included),
#: attempts lost to a live holder, stale leases reclaimed, releases, and
#: held leases found re-owned at refresh.
_MANAGER_EVENTS = ("acquired", "contended", "reclaimed_stale", "released",
                   "lost")


def lease_events(registry):
    """The ``repro_lease_events_total`` children in ``registry``: the
    manager's events plus the broker's outcomes for batches it parked on
    a peer's lease (``answered`` through the store, or ``reclaimed`` and
    run here).  All exist from the start, so the family renders at zero
    in a lease manager's registry or a lease-less broker's."""
    return registry.counter(
        "repro_lease_events_total",
        "Cross-replica lease traffic (zero when leases are off)",
        ("event",)).children(*_MANAGER_EVENTS, "answered", "reclaimed")


def default_replica_id():
    """A replica identity unique across hosts and processes."""
    return "%s-%d-%x" % (socket.gethostname(), os.getpid(),
                         threading.get_ident() & 0xFFFF)


class LeaseManager:
    """Grant, refresh, reclaim and release per-batch store leases.

    Parameters
    ----------
    root:
        Directory the lease tree lives under — every replica sharing a
        store must point at the same directory (conventionally
        ``<store root>/_leases``; see :meth:`for_store`).
    owner:
        This replica's identity, written into every lease it takes
        (default: :func:`default_replica_id`).
    ttl_s:
        Seconds a lease stays valid after its last stamp.  Must
        comfortably exceed one batch's wall-clock plus the refresh
        cadence — an expired-but-alive holder is *correct* (the batch
        is just simulated twice) but wasteful.

    Thread-safe; the broker calls it under its own lock, the refresh
    may also run from a pump thread.
    """

    def __init__(self, root, owner=None, ttl_s=30.0):
        if not ttl_s > 0:
            raise ValueError("ttl_s must be positive")
        self.root = str(root)
        self.owner = owner or default_replica_id()
        self.ttl_s = float(ttl_s)
        self._mutex = threading.Lock()
        self._held = {}       # (digest, point_key, batch) -> lease path
        self._refreshed = 0.0
        #: This replica's lease ledger; :meth:`stats` and the broker's
        #: Prometheus exposition both read it.
        self.registry = obs_metrics.MetricsRegistry()
        self._events = lease_events(self.registry)

    @classmethod
    def for_store(cls, store_root, owner=None, ttl_s=30.0):
        """The conventional manager for a store: ``<root>/_leases``."""
        return cls(os.path.join(str(store_root), LEASE_DIRNAME),
                   owner=owner, ttl_s=ttl_s)

    # ------------------------------------------------------------------ #
    def _path(self, digest, point_key, batch_index):
        name = "%s.b%d.lease" % ("-".join(str(int(w)) for w in point_key),
                                 int(batch_index))
        return os.path.join(self.root, str(digest), name)

    @staticmethod
    def _read_record(fd):
        """The parsed lease record behind ``fd``, or ``None`` if unusable."""
        try:
            blob = os.pread(fd, 4096, 0)
            record = json.loads(blob.decode("utf-8"))
        except (OSError, ValueError, UnicodeDecodeError):
            return None
        if not isinstance(record, dict) or "owner" not in record:
            return None
        return record

    def _stamp(self, fd, now):
        """Overwrite ``fd`` with a fresh lease record owned by us."""
        record = {"owner": self.owner, "acquired_at": float(now),
                  "ttl_s": self.ttl_s}
        blob = json.dumps(record).encode("utf-8")
        os.ftruncate(fd, 0)
        os.pwrite(fd, blob, 0)

    @staticmethod
    def _expired(record, now):
        """Whether a parsed (or unparseable) lease record is stale."""
        if record is None:
            return True
        try:
            acquired_at = float(record["acquired_at"])
            ttl_s = float(record.get("ttl_s", 0.0))
        except (KeyError, TypeError, ValueError):
            return True
        return now > acquired_at + ttl_s

    # ------------------------------------------------------------------ #
    def acquire(self, digest, point_key, batch_index, now=None):
        """Try to take the lease; ``True`` when this replica holds it.

        Idempotent for a lease we already hold (it is re-stamped).  A
        fresh lease owned by someone else returns ``False`` — the caller
        should subscribe to the winner's store result and retry after
        :meth:`holder` reports it expired.  A stale lease is reclaimed
        in place (counted as ``reclaimed_stale``).
        """
        t0 = time.perf_counter()
        won = self._acquire(digest, point_key, batch_index, now=now)
        _LEASE_SECONDS.labels(
            result="acquired" if won else "contended").observe(
                time.perf_counter() - t0)
        return won

    def _acquire(self, digest, point_key, batch_index, now=None):
        now = time.time() if now is None else now
        key = (str(digest), tuple(int(w) for w in point_key),
               int(batch_index))
        path = self._path(*key)
        directory = os.path.dirname(path)
        while True:
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o644)
            except FileNotFoundError:
                os.makedirs(directory, exist_ok=True)
                continue
            except FileExistsError:
                pass
            else:
                # Fresh file: we created it, stamp it under the lock so a
                # concurrent examiner never reads a half-written record.
                try:
                    _lock(fd)
                    try:
                        self._stamp(fd, now)
                    finally:
                        _unlock(fd)
                finally:
                    os.close(fd)
                with self._mutex:
                    self._held[key] = path
                self._events["acquired"].inc()
                return True
            # The file exists: examine (and maybe reclaim) it under flock.
            try:
                fd = os.open(path, os.O_RDWR)
            except FileNotFoundError:
                continue  # released between our attempts; retry the create
            try:
                _lock(fd)
                try:
                    if os.fstat(fd).st_nlink == 0:
                        continue  # unlinked while we waited for the lock
                    record = self._read_record(fd)
                    if record is not None and record.get("owner") == self.owner:
                        self._stamp(fd, now)
                        with self._mutex:
                            self._held[key] = path
                        return True
                    if not self._expired(record, now):
                        self._events["contended"].inc()
                        return False
                    if record is None and \
                            now - os.fstat(fd).st_mtime <= self.ttl_s:
                        # An unreadable record in a young file is a lease
                        # *mid-creation*: O_CREAT|O_EXCL makes the file
                        # visible before its creator wins the flock and
                        # stamps it, so an examiner that grabs the lock
                        # first reads empty bytes.  Reclaiming would hand
                        # the lease to both replicas — contend instead.
                        # A crashed creator's empty file ages past the
                        # TTL and is then reclaimed like any stale lease.
                        self._events["contended"].inc()
                        return False
                    # Stale (or unparseable): reclaim in place.
                    self._stamp(fd, now)
                    with self._mutex:
                        self._held[key] = path
                    self._events["acquired"].inc()
                    self._events["reclaimed_stale"].inc()
                    _logger.info(
                        "reclaimed stale lease %s (was %r)", path,
                        (record or {}).get("owner"))
                    return True
                finally:
                    _unlock(fd)
            finally:
                os.close(fd)

    def holder(self, digest, point_key, batch_index, now=None):
        """The live lease record for one batch, or ``None``.

        ``None`` means free-or-stale: an :meth:`acquire` by this replica
        would (very likely) succeed.  Adds ``expires_in_s`` so waiters
        can pace their polling.
        """
        now = time.time() if now is None else now
        path = self._path(digest, point_key, batch_index)
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return None
        try:
            _lock(fd)
            try:
                record = self._read_record(fd)
            finally:
                _unlock(fd)
        finally:
            os.close(fd)
        if self._expired(record, now):
            return None
        record = dict(record)
        record["expires_in_s"] = (float(record["acquired_at"])
                                  + float(record["ttl_s"]) - now)
        return record

    def refresh(self, now=None, min_interval_s=None):
        """Re-stamp every held lease; the number refreshed.

        Throttled: calls within ``min_interval_s`` (default ``ttl / 3``)
        of the last refresh are no-ops, so the broker can call this from
        every pump without thinking about cadence.  A held lease found
        re-owned by someone else (we stalled past the TTL and they
        reclaimed) is dropped from the held set and counted as ``lost``
        — the winner's result will land in the store just the same.
        """
        now = time.time() if now is None else now
        interval = self.ttl_s / 3.0 if min_interval_s is None \
            else float(min_interval_s)
        with self._mutex:
            if now - self._refreshed < interval:
                return 0
            self._refreshed = now
            held = dict(self._held)
        refreshed = 0
        for key, path in held.items():
            try:
                fd = os.open(path, os.O_RDWR)
            except OSError:
                with self._mutex:
                    self._held.pop(key, None)
                self._events["lost"].inc()
                continue
            try:
                _lock(fd)
                try:
                    record = self._read_record(fd)
                    if os.fstat(fd).st_nlink == 0 or record is None \
                            or record.get("owner") != self.owner:
                        with self._mutex:
                            self._held.pop(key, None)
                        self._events["lost"].inc()
                        continue
                    self._stamp(fd, now)
                    refreshed += 1
                finally:
                    _unlock(fd)
            finally:
                os.close(fd)
        return refreshed

    def release(self, digest, point_key, batch_index):
        """Unlink a lease this replica holds; ``True`` when it was ours.

        Never touches a lease owned by someone else, and quietly ignores
        one that is already gone — release must be safe to call from
        every delivery path without bookkeeping at the call site.
        """
        key = (str(digest), tuple(int(w) for w in point_key),
               int(batch_index))
        with self._mutex:
            path = self._held.pop(key, None)
        if path is None:
            return False
        try:
            fd = os.open(path, os.O_RDWR)
        except OSError:
            return False
        try:
            _lock(fd)
            try:
                record = self._read_record(fd)
                if os.fstat(fd).st_nlink == 0 or record is None \
                        or record.get("owner") != self.owner:
                    return False  # reclaimed from us; not ours to unlink
                try:
                    os.unlink(path)
                except OSError as exc:  # pragma: no cover - races only
                    if exc.errno != errno.ENOENT:
                        raise
                self._events["released"].inc()
                return True
            finally:
                _unlock(fd)
        finally:
            os.close(fd)

    def release_all(self):
        """Release every held lease (shutdown path); count released."""
        with self._mutex:
            keys = list(self._held)
        count = 0
        for key in keys:
            if self.release(*key):
                count += 1
        return count

    # ------------------------------------------------------------------ #
    @property
    def held(self):
        """How many leases this replica currently believes it holds."""
        with self._mutex:
            return len(self._held)

    def stats(self):
        """Counters for the ``/v1/metrics`` cluster ledger."""
        stats = {"owner": self.owner, "ttl_s": self.ttl_s, "held": self.held}
        for event in _MANAGER_EVENTS:
            stats[event] = self._events[event].value
        return stats

    def __repr__(self):
        return "LeaseManager(%r, owner=%r, held=%d)" % (
            self.root, self.owner, self.held)
