"""Host self time per layer, from the standard-library profiler.

A cell is deterministic, so re-running it under :mod:`cProfile` is a
faithful diagnosis that needs no hook in the simulator: ``run
--profile`` in :mod:`repro.eval.cli` runs the cell under a
``cProfile.Profile``, and :func:`by_layer` rolls the profiler's self
times up by layer.  A layer is the package under ``repro`` that
defines the function (``engine``, ``sim``, ``core``, ``analysis``,
...: the layer map in ``docs/ARCHITECTURE.md``).

cProfile charges a fixed host cost to every Python call, so a
profiled cell runs several times slower than an unprofiled one, and
call-heavy layers look heavier than they are.  Simulated cycles are
unchanged.
"""

import os

#: The ``repro`` package directory; a function's layer is the first
#: path component of its file under it.
_PACKAGE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def by_layer(profiler):
    """Self time per layer of a finished ``cProfile.Profile``.

    Returns ``{layer: {"seconds", "calls"}}``.  A Python function's
    self time (``tottime``) goes to the layer that defines it.  A
    built-in (pstats file ``~``) has no layer of its own, so each
    caller's share of it goes to that caller's layer.  Anything
    outside the ``repro`` package is ``other``.
    """
    import pstats

    report = {}

    def charge(filename, seconds, calls):
        layer = "other"
        if filename.startswith(_PACKAGE + os.sep):
            head = filename[len(_PACKAGE) + 1:].split(os.sep, 1)[0]
            layer = os.path.splitext(head)[0]
        entry = report.setdefault(layer, {"seconds": 0.0, "calls": 0})
        entry["seconds"] += seconds
        entry["calls"] += calls

    for (filename, _, _), (_, calls, self_s, _, callers) in \
            pstats.Stats(profiler).stats.items():
        if filename == "~" and callers:
            for (caller, _, _), (n, _, seconds, _) in callers.items():
                charge(caller, seconds, n)
        else:
            charge(filename, self_s, calls)
    return report


def format_profile(report):
    """Format a :func:`by_layer` report as a table, hottest first.

    ``total`` is the sum of every row, so the shares add to 100%.
    """
    total = sum(entry["seconds"] for entry in report.values())
    lines = ["self-profile (host self time by layer):"]
    order = sorted(report.items(),
                   key=lambda item: -item[1]["seconds"])
    for name, entry in order:
        pct = (100.0 * entry["seconds"] / total) if total else 0.0
        calls = entry["calls"] or ""
        lines.append(f"  {name:<18} {entry['seconds']*1e3:10.2f} ms"
                     f"  {pct:5.1f}%  {calls:>10}")
    lines.append(f"  {'total':<18} {total*1e3:10.2f} ms")
    return "\n".join(lines)
