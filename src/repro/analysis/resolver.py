"""One batch-resolution path for ``Experiment`` and the service.

Every batch an adaptive run needs comes from the cheapest source that
has it, tried in this order:

1. **the result store** — a stored batch is answered at once;
2. **in-flight work** — a batch another caller of the same resolver
   already waits on is subscribed to, never run twice;
3. **a peer replica's lease** — with a
   :class:`~repro.service.cluster.LeaseManager`, a batch whose lease
   another replica holds is parked until that replica's result lands in
   the shared store, or until the lease lapses and the batch is
   reclaimed and run here (:meth:`BatchResolver.poll_parked`);
4. **execution** — the rest become work items, the built-in link
   runner's same-shape batches fused into one tensor pass per group.

:class:`BatchResolver` never runs anything.  :meth:`~BatchResolver.resolve`
returns how each batch was answered plus the items left to run; the
caller runs them (:class:`~repro.analysis.adaptive.AdaptiveScheduler`
through its ``SweepExecutor``, the service broker through its worker
fleet) and hands each result to :meth:`~BatchResolver.complete`.

Invariants
----------
* **Persist before lease release.**  A batch's result is appended to the
  store before its lease is released, so a replica that sees the lease
  free and re-checks the store finds the result.
* **Errors are never persisted.**  A captured error result is delivered
  but not stored; its lease is still released, and a waiting replica
  re-runs the batch and meets the same deterministic error.

A failed append is not raised here: :attr:`BatchWork.put_error` carries
it and the caller applies its policy (``Experiment`` raises the
``StoreError``; the service logs it and serves the batch uncached).
"""

import collections
import time

from repro.analysis.adaptive import (batch_store_key, is_error_result,
                                     run_link_ber_batch)
from repro.analysis.fused import FusedBatchRunner, plan_fused_round

#: How :meth:`BatchResolver.resolve` answered one batch.  ``source`` is
#: ``"cached"`` (``result`` holds the stored result), ``"shared"``
#: (``item_key`` names the in-flight item carrying it), ``"leased"``
#: (parked on a peer's lease) or ``"simulated"`` (in a new work item);
#: ``key`` is the work key ``(namespace, point key, batch index, packets)``.
Resolution = collections.namedtuple(
    "Resolution", "batch source key item_key result")

#: One unit to run, ``runner(payload)``: a batch, or a fused group of
#: ``size`` batches.  ``owner`` is the subscriber that caused it.
WorkItem = collections.namedtuple("WorkItem", "key runner payload owner size")


def _work_key(digest, batch):
    return (digest, batch_store_key(batch), batch.index, batch.num_packets)


class BatchWork:
    """One batch awaiting its result, then the result as it lands.

    ``subscribers`` holds an ``(owner, batch)`` pair per waiting caller.
    On landing, ``result`` is set, and ``put_s``/``put_error`` record
    the store append (``put_s`` stays ``None`` when nothing was
    appended).
    """

    __slots__ = ("key", "view", "runner", "item", "subscribers", "result",
                 "put_ts", "put_s", "put_error")

    def __init__(self, key, view, runner, owner, batch):
        self.key = key
        self.view = view
        self.runner = runner
        self.item = None
        self.subscribers = [(owner, batch)]
        self.result = self.put_ts = self.put_s = self.put_error = None


class BatchResolver:
    """The resolution chain and the batches it has not finished.

    ``inflight`` maps work keys to batches queued or running, ``parked``
    to batches waiting on a peer's lease.  Not thread-safe: the broker
    calls it under its lock, the scheduler from one thread.
    """

    def __init__(self, leases=None):
        self.leases = leases
        self.inflight = {}
        self.parked = {}
        self._items = {}   # item key -> work keys of the batches it carries
        self._group_seq = 0

    def resolve(self, view, runner, batches, owner=None, fused=True):
        """``(resolutions, items)`` for ``batches``, one resolution each.

        ``view`` is the :class:`~repro.analysis.store.StoreView` the
        batches are filed under (``None``: no store) and ``runner`` the
        chunk-runner.  With ``fused`` and the built-in link runner,
        same-shape fresh batches share one fused item.
        """
        digest = None if view is None else view.namespace
        resolutions, fresh = [], []
        for batch in batches:
            cached = None
            if view is not None:
                cached = view.get(batch_store_key(batch), batch.index,
                                  batch.num_packets)
            key = _work_key(digest, batch)
            source, item_key = "simulated", None
            work = self.inflight.get(key)
            if cached is not None:
                source = "cached"
            elif work is not None:
                work.subscribers.append((owner, batch))
                source, item_key = "shared", work.item
            elif self.leases is not None:
                work = self.parked.get(key)
                if work is not None:
                    work.subscribers.append((owner, batch))
                    source = "leased"
                elif not self.leases.acquire(*key[:3]):
                    self.parked[key] = BatchWork(key, view, runner, owner,
                                                 batch)
                    source = "leased"
                else:
                    # The lease is ours, but its last holder may have
                    # stored the result and released between our lookup
                    # and the acquire: look once more before simulating.
                    cached = self._peek(view, key)
                    if cached is not None:
                        self._release(key)
                        source = "cached"
            if source == "simulated":
                self.inflight[key] = BatchWork(key, view, runner, owner,
                                               batch)
                fresh.append(batch)
            resolutions.append(Resolution(batch, source, key, item_key,
                                          cached))
        groups, singles = [], fresh
        if fused and runner is run_link_ber_batch:
            groups, singles = plan_fused_round(fresh)
        items = []
        for group in groups:
            self._group_seq += 1
            items.append(self._add_item(
                ("fused", digest, self._group_seq), FusedBatchRunner(runner),
                group, owner,
                [_work_key(digest, batch) for batch in group.batches]))
        for batch in singles:
            key = _work_key(digest, batch)
            items.append(self._add_item(key, runner, batch, owner, [key]))
        return resolutions, items

    def _add_item(self, item_key, runner, payload, owner, work_keys):
        for key in work_keys:
            self.inflight[key].item = item_key
        self._items[item_key] = work_keys
        return WorkItem(item_key, runner, payload, owner, len(work_keys))

    def complete(self, item_key, result):
        """Land one item's result; the :class:`BatchWork` of each batch.

        A fused result is split per member (one without the member list —
        the whole item failed — applies to every member).  Each member's
        result is stored unless it is an error, then its lease released.
        A withdrawn or forgotten item lands nothing.
        """
        work_keys = self._items.pop(item_key, ())
        results = [result]
        if len(work_keys) > 1:
            results = (result.get("results")
                       if isinstance(result, dict) else None)
            if results is None or len(results) != len(work_keys):
                results = [result] * len(work_keys)
        landed = []
        for key, member_result in zip(work_keys, results):
            work = self.inflight.pop(key)
            work.result = member_result
            if work.view is not None and not is_error_result(member_result):
                work.put_ts, t0 = time.time(), time.perf_counter()
                try:
                    work.view.put(key[1], key[2], key[3], member_result)
                except Exception as exc:  # noqa: BLE001 - the caller decides
                    work.put_error = exc
                work.put_s = time.perf_counter() - t0
            self._release(key)
            landed.append(work)
        return landed

    def poll_parked(self):
        """Refresh held leases and advance parked batches; ``(landed,
        items)``.

        A parked batch found in the store lands.  Otherwise, if its lease
        can now be taken (the holder crashed, withdrew the batch or hit
        an error), the store is checked once more and the batch becomes
        an item run here; a batch whose lease is still held stays parked.
        """
        self.leases.refresh()
        landed, items = [], []
        for key, work in list(self.parked.items()):
            result = self._peek(work.view, key)
            if result is None and self.leases.acquire(*key[:3]):
                result = self._peek(work.view, key)
                if result is None:
                    del self.parked[key]
                    self.inflight[key] = work
                    owner, batch = work.subscribers[0]
                    items.append(self._add_item(key, work.runner, batch,
                                                owner, [key]))
                    continue
                self._release(key)
            if result is not None:
                del self.parked[key]
                work.result = result
                landed.append(work)
        return landed, items

    @staticmethod
    def _peek(view, key):
        return view.peek(key[1], key[2], key[3])

    def _release(self, key):
        if self.leases is not None:
            self.leases.release(*key[:3])

    def unsubscribe(self, owner):
        """Drop ``owner`` from every batch; the items no one awaits now.

        Parked batches left without subscribers are dropped (the lease
        is the peer's).  Running ones stay, so their results still land
        in the store; the caller may withdraw the returned items and
        :meth:`forget` them.
        """
        for work in self.inflight.values():
            work.subscribers = [entry for entry in work.subscribers
                                if entry[0] is not owner]
        for key, work in list(self.parked.items()):
            work.subscribers = [entry for entry in work.subscribers
                                if entry[0] is not owner]
            if not work.subscribers:
                del self.parked[key]
        return [item_key for item_key, work_keys in self._items.items()
                if not any(self.inflight[key].subscribers
                           for key in work_keys)]

    def forget(self, item_key):
        """Drop an item's batches and release their leases; their count."""
        work_keys = self._items.pop(item_key, ())
        for key in work_keys:
            del self.inflight[key]
            self._release(key)
        return len(work_keys)

    def reset(self):
        """Forget every unfinished batch, releasing the leases held."""
        for item_key in list(self._items):
            self.forget(item_key)
        self.parked.clear()
