"""Per-client packet quotas, charged when the broker admits a request.

:class:`ClientQuota` is the policy (refill rate and burst);
:class:`~repro.service.broker.CharacterisationBroker` keeps one token
bucket per ``client_id`` and charges it each admitted request's
worst-case packet cost (see *Admission control* in
:mod:`repro.service.broker`).
"""

import time

__all__ = ["ClientQuota"]


class ClientQuota:
    """A per-client token-bucket packet quota, enforced at admission.

    Each ``client_id`` gets its own bucket holding up to
    ``burst_packets`` tokens, refilled continuously at
    ``packets_per_s``.  Admission charges a request's worst-case packet
    cost (:meth:`~repro.service.requests.CharacterisationRequest.packet_cost`);
    a request the bucket cannot currently afford is rejected with
    :class:`~repro.service.broker.ServiceSaturated` naming the wait, and
    one it can *never* afford (cost above the burst) with a plain
    :class:`~repro.service.broker.ServiceError`.
    """

    def __init__(self, packets_per_s, burst_packets):
        if not packets_per_s > 0:
            raise ValueError("packets_per_s must be positive")
        if not burst_packets >= 1:
            raise ValueError("burst_packets must be at least 1")
        self.packets_per_s = float(packets_per_s)
        self.burst_packets = float(burst_packets)

    def bucket(self):
        return _TokenBucket(self.packets_per_s, self.burst_packets)

    def __repr__(self):
        return "ClientQuota(packets_per_s=%g, burst_packets=%g)" % (
            self.packets_per_s, self.burst_packets)


class _TokenBucket:
    """One client's token bucket (guarded by the broker lock)."""

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate, burst):
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated = None

    def level(self, now):
        """Tokens available at ``now`` (refills as a side effect)."""
        if self.updated is not None and now > self.updated:
            self.tokens = min(self.burst,
                              self.tokens + (now - self.updated) * self.rate)
        self.updated = now
        return self.tokens

    def try_take(self, amount, now=None):
        """Charge ``amount`` tokens: 0.0 on success, seconds to wait on
        a temporary shortfall, ``None`` when ``amount`` exceeds the
        burst (never affordable)."""
        now = time.monotonic() if now is None else now
        available = self.level(now)
        if amount > self.burst:
            return None
        if amount <= available:
            self.tokens = available - amount
            return 0.0
        return (amount - available) / self.rate
