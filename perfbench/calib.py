"""Samples how fast the machine runs while a timed command runs.

The benchmark's CPU-bound timings are scaled by it. On a VM that shares its
cores with other tenants, the same code runs at anything from full to half
speed, and the speed flips between the two every 50-200 ms in a mix that
drifts over seconds to minutes. One loop timed before and after a command
samples one or two of those spells, too few to tell the command's mix.

So ``Sampler`` times a short fixed pure-Python loop from a SIGALRM handler
every ``PERIOD_S`` while a command runs, in the command's own thread. The
command's own time is its wall time minus the time spent in the handler,
and its scale is ``REFERENCE_S`` over the harmonic mean of the loop's
times inside it: the harmonic mean, because the work done in a stretch of
time goes with the loop's speed, not with its duration. The product reads
as the time the command would have taken with the machine at full speed.
The handler takes about 4% of the command's wall time.

The loop uses no corefkit code, so a change to the program under test
cannot move it. It does what the program does most: build and sort small
frozen dataclasses, format and split strings, match a regex per token and
fill dicts and lists, then join prefixes of a token list. Python signal
handlers run only in the main thread, so a command whose work runs in
worker threads must not be sampled.
"""
from __future__ import annotations

import bisect
import gc
import re
import signal
from dataclasses import dataclass, replace
from time import perf_counter

PERIOD_S = 0.02
LOOP_N = 100
# the loop's time on a 2-vCPU KVM guest (Python 3.11), at full speed
REFERENCE_S = 0.00045

_TAG = re.compile(r"<c(\d+)>\Z")


@dataclass(frozen=True)
class _Event:
    kind: str
    chain: int
    at: int


def _loop(n: int) -> int:
    events = [_Event("open" if i % 3 else "close", i % 17, i) for i in range(n)]
    events = [replace(e, at=e.at - 5) for e in events]
    events.sort(key=lambda e: (e.chain, e.at, e.kind))
    atoms = " ".join(f"<c{e.chain}> w{e.at % 97}" for e in events).split()
    chains: dict[int, list[int]] = {}
    words: dict[str, int] = {}
    for k, atom in enumerate(atoms):
        m = _TAG.match(atom)
        if m:
            chains.setdefault(int(m.group(1)), []).append(k)
        else:
            words[atom] = words.get(atom, 0) + 1
    lines = ["\t".join((str(i), w, "_")) for i, w in enumerate(atoms[: n // 2])]
    total = len("\n".join(lines)) + len(chains) + len(words)
    for end in range(0, len(atoms), 20):
        total += len(" ".join(atoms[:end]).split(" "))
    return total


class Sampler:
    """While open, times one pass of the loop every PERIOD_S of wall time.

    The collector is off inside the handler, so no collection of the
    command's garbage is counted as sampling time.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.took: list[float] = []
        self._spent = [0.0]  # running sum of ``took``

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        _loop(LOOP_N)
        took = perf_counter() - start
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.took.append(took)
        self._spent.append(self._spent[-1] + took)

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _range(self, start: float, end: float) -> tuple[int, int]:
        return (bisect.bisect_left(self.starts, start),
                bisect.bisect_left(self.starts, end))

    def own(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` not spent in the handler."""
        lo, hi = self._range(start, end)
        return end - start - (self._spent[hi] - self._spent[lo])

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the harmonic mean of the loop's times between
        ``start`` and ``end`` and of the last one before and first one
        after, so that a stretch shorter than PERIOD_S is scaled by the
        speed just around it."""
        lo, hi = self._range(start, end)
        took = self.took[max(lo - 1, 0):hi + 1]
        return REFERENCE_S * sum(1 / t for t in took) / len(took)


class Unsampled:
    """Stands in for a Sampler where none may run: wall time at scale 1."""

    def __enter__(self) -> Unsampled:
        return self

    def __exit__(self, *exc) -> None:
        pass

    def own(self, start: float, end: float) -> float:
        return end - start

    def scale(self, start: float, end: float) -> float:
        return 1.0


_loop(LOOP_N)  # build the dataclass and regex caches before the first sample
