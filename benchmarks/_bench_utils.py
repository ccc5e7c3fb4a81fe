"""Shared helpers for the benchmark harness.

Every benchmark reproduces one table or figure from the paper, prints the
corresponding rows and also writes them to ``benchmarks/results/<name>.txt``
so the output survives pytest's capture.  Set ``REPRO_BENCH_SCALE`` to an
integer larger than 1 to multiply the simulated traffic (lower BER floors,
proportionally longer runs).
"""

import os

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def fastest_result(fn, repeats=3, *, elapsed):
    """The result of the fastest of ``repeats`` runs of ``fn``.

    For runners that time themselves: ``elapsed`` extracts each run's
    wall-clock seconds from its result, and the whole result of the
    fastest run is kept, so every timing-derived number in it (speeds,
    projections, utilisations) describes one coherent execution instead
    of a min/first mixture.
    """
    best = None
    for _ in range(max(1, repeats)):
        out = fn()
        if best is None or elapsed(out) < elapsed(best):
            best = out
    return best


def bench_scale():
    """Workload multiplier taken from ``REPRO_BENCH_SCALE`` (default 1)."""
    try:
        return max(1, int(os.environ.get("REPRO_BENCH_SCALE", "1")))
    except ValueError:
        return 1


def emit(name, title, body):
    """Print a benchmark's output and persist it under ``benchmarks/results``."""
    text = "\n".join(["=" * 72, title, "=" * 72, str(body), ""])
    print("\n" + text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "%s.txt" % name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def emit_with_rows(name, title, body, rows):
    """Like :func:`emit`, with machine-readable JSON sweep rows appended.

    The rows come out of the sweep subsystem (`repro.analysis.sweep`), one
    JSON object per line, so the trajectory tooling can parse a benchmark's
    numbers without scraping its table.
    """
    from repro.analysis.sweep import rows_to_json

    return emit(name, title, str(body) + "\n\nJSON rows:\n" + rows_to_json(rows))
