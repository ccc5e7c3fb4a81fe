"""The remote-worker wire format: pickled work items as base64 text.

Local process workers need no codec of their own: each owns a plain
duplex ``multiprocessing`` pipe and the fleet sends its task tuples and
results over it directly (see :mod:`repro.service.fleet`).  Remote
agents speak JSON lines over HTTP instead, so their work items and
results travel through :func:`encode_payload` / :func:`decode_payload`.
"""

import base64
import pickle

__all__ = ["encode_payload", "decode_payload"]


def encode_payload(obj):
    """Pickle ``obj`` into a JSON-safe base64 string.

    The wire format of the remote-worker work channel
    (:mod:`repro.service.worker`): work items are already picklable
    ``(runner, batch)`` pairs — the exact objects the process fleet
    ships over its pipes — so the HTTP boundary reuses the same
    serialisation, wrapped in base64 so it rides a JSON line.

    Trust model: unpickling executes arbitrary code, exactly like the
    process fleet's pipes.  A worker agent must only ever connect to a
    service it trusts (the daemon binds localhost by default; a
    cross-host deployment is expected to sit on a private network).
    """
    return base64.b64encode(pickle.dumps(obj, protocol=5)).decode("ascii")


def decode_payload(text):
    """Inverse of :func:`encode_payload`."""
    return pickle.loads(base64.b64decode(text.encode("ascii")))
