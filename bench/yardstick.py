"""A fixed pure-Python yardstick of the speed the machine gives us now.

On a shared machine the speed one process gets drifts by tens of
percent over seconds and minutes, and it drifts for all code at once.
The benchmark runs this yardstick between requests and reports each
request's time scaled by NOMINAL_S over the mean of the yardstick times
just before and just after it: the time the request would have taken
on a machine that runs the yardstick in NOMINAL_S.  The yardstick
builds, substitutes and compares small terms, like the code it
calibrates, but shares no code with nspec, so a change to nspec does
not move it.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

# The yardstick's time on an unloaded core of a 2-core x86-64 sandbox
# with Python 3.11; only the unit of the scaled times depends on it.
NOMINAL_S = 0.0025


@dataclass(frozen=True)
class _Term:
    root: str
    args: tuple


def _build(n: int) -> _Term:
    t = _Term("z", ())
    for _ in range(n):
        t = _Term("s", (t,))
    return t


def _substitute(t: _Term, binding: dict) -> _Term:
    if t.root in binding:
        return binding[t.root]
    return _Term(t.root, tuple(_substitute(a, binding) for a in t.args))


def _work() -> int:
    acc = 0
    one = {"z": _Term("s", (_Term("z", ()),))}
    for _ in range(40):
        t = _build(30)
        u = _substitute(t, one)
        acc += (u == t) + len(u.args)
    return acc


def measure() -> float:
    """Seconds one run of the yardstick takes now: the faster of two
    runs, so that an interrupt during one does not count."""
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        _work()
        best = min(best, perf_counter() - t0)
    return best
