"""Opt-in kernel phase hooks: near-zero-cost timing taps for hot loops.

Two places report phases, and they are the hot paths the paper's figures
are about:

* :func:`repro.analysis.link.run_chain`, the one function that runs the
  PHY chain (the link simulator, the fused rounds and the closed-loop
  rate adaptation link all run through it), reports ``transmit``,
  ``channel``, ``front-end`` and ``decode`` with a ``packets`` attr;
* the BCJR kernel (:mod:`repro.phy.bcjr`) reports its ``bcjr.forward``,
  ``bcjr.seed`` and ``bcjr.backward`` sweeps.

Neither can afford tracing machinery on every call.  Instead they poll
one module-level hook:

* ``hook = get_phase_hook()`` once per call, then ``if hook is not
  None`` around each timed section — a single global load and a branch
  when profiling is off, no allocation, no imports on the hot path.
* When tracing is enabled (:func:`repro.obs.trace.configure`) the hook
  records each phase as a completed child span of whatever span is
  current on the calling thread (the worker's ``simulate`` span), so
  transmit/channel/front-end/decode time lands inside the right batch
  in the waterfall.

Hook signature: ``hook(name, ts, dur, attrs)`` where ``name`` is the
phase label (``"transmit"``, ``"decode"``, ``"bcjr.forward"``, ...),
``ts`` the wall-clock start (``time.time()``), ``dur`` the elapsed
seconds (``time.perf_counter()`` delta) and ``attrs`` a small dict or
``None``.  Hooks must never raise and must never mutate their inputs —
phase timing is strictly read-only with respect to results.
"""

__all__ = ["get_phase_hook", "set_phase_hook"]

_hook = None


def get_phase_hook():
    """The installed phase hook, or ``None`` when profiling is off."""
    return _hook


def set_phase_hook(hook):
    """Install ``hook`` (or ``None`` to disable); returns the old hook."""
    global _hook
    previous = _hook
    _hook = hook
    return previous
