"""The long-lived characterisation service.

PRs 2–4 built batch machinery: declare a
:class:`~repro.analysis.scenario.Scenario`, run it through an
:class:`~repro.analysis.scenario.Experiment`, persist batches in a
:class:`~repro.analysis.store.ResultStore`.  This package turns that
into the shape a serve-curves-on-demand deployment takes — an always-on
broker in front of the store and a persistent worker fleet:

* :mod:`repro.service.requests` — the frozen, canonically hashable
  :class:`CharacterisationRequest` (scenario + axes + stop rule +
  priority/deadline hints); identical in-flight asks coalesce.
* :mod:`repro.service.broker` — the
  :class:`CharacterisationBroker`: answers each needed batch from the
  cheapest source (coalesced request, store hit, another request's
  in-flight batch, and only then the fleet) and streams rows back
  through :class:`RequestTicket` as points finish.
* :mod:`repro.service.fleet` — the :class:`WorkerFleet`: long-lived
  thread or process workers pulling *batch-granular* priority-ordered
  items, with heartbeats and retry-on-worker-death.
* :mod:`repro.service.api` — the :class:`Service` front object plus the
  stdlib-only localhost HTTP/JSON-lines endpoint (``python -m
  repro.service`` runs it as a daemon).
* :mod:`repro.service.cluster` — cross-replica scale-out:
  :class:`LeaseManager` store leases let several replicas share one
  store without duplicating work, and :mod:`repro.service.worker`'s
  :class:`WorkerAgent` (``python -m repro.service.worker``) attaches
  remote hosts to a service's fleet over HTTP.

Everything rides the analysis layer's determinism: batch ``k`` of a
point is a pure function of ``(spec, point, k)``, so deduplication,
retries, priorities and worker scheduling can only change *where* a
batch's bytes come from — service rows are bit-for-bit the rows of a
serial ``Experiment.run``.

Quick start::

    from repro.analysis import ResultStore, Scenario, StopRule
    from repro.service import CharacterisationRequest, Service

    with Service(ResultStore("bercurves/"), workers=4) as service:
        ticket = service.submit(CharacterisationRequest(
            scenario=Scenario(decoder="bcjr", packet_bits=1704),
            axes={"rate_mbps": [24], "snr_db": [4.0, 5.0, 6.0, 7.0]},
            stop=StopRule(rel_half_width=0.25, min_errors=30,
                          ber_floor=1e-4, max_packets=96),
            seed=23,
        ))
        for row in ticket.rows():          # streams as points finish
            print(row["snr_db"], row["ber"], row["stop_reason"])
"""

from repro.service.api import (
    RetryPolicy,
    Service,
    ServiceHTTPError,
    cancel_request,
    fetch_json,
    serve,
    stream_request,
)
from repro.service.broker import (
    CharacterisationBroker,
    ClientQuota,
    RequestTicket,
    ServiceError,
    ServiceSaturated,
)
from repro.service.cluster import LeaseManager
from repro.service.fleet import FleetError, WorkerFleet, WorkerHandle
from repro.service.requests import CharacterisationRequest
from repro.service.worker import WorkerAgent

__all__ = [
    "CharacterisationBroker",
    "CharacterisationRequest",
    "ClientQuota",
    "FleetError",
    "LeaseManager",
    "RequestTicket",
    "RetryPolicy",
    "Service",
    "ServiceError",
    "ServiceHTTPError",
    "ServiceSaturated",
    "WorkerAgent",
    "WorkerFleet",
    "WorkerHandle",
    "cancel_request",
    "fetch_json",
    "serve",
    "stream_request",
]
