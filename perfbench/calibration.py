"""Host speed, sampled while a timed region runs, to scale its timings.

On a shared host the same work can take half again as long from one second
to the next, and the slow spells differ from core to core.  A
:class:`SpeedSampler` measures that on the timed region's own thread: a
``SIGALRM`` every :data:`INTERVAL_S` runs one short probe of fixed work on
the main thread and records how long it took.  The region's timings are then
reported at the reference speed: the probes' own time is taken out, and the
rest is divided by the host's slowdown (mean probe time over
:data:`REFERENCE_S`).  Two runs minutes apart then compare the program, not
the neighbours.

The probe mixes the operations the program's hot paths are made of: SHA-256
of short keys, seeding a numpy ``Generator`` from the digest and drawing
from it, and an interpreted Python loop.  It calls nothing in the program,
so no change to the program can move it.  Its slowdown tracks the
program's closely on such hosts (time ratio about 1:1); a probe without numpy
tracked it less well.

Work spread over processes (the service: a server and its clients) is not
interrupted, since a probe there would compete with the program for the
cores and the slowdown would move with the program's own load.  It is probed
with :func:`probe_mean` only at moments when nothing else runs (see
``workloads.service_pass``).
"""

from __future__ import annotations

import hashlib
import signal
import statistics
import time
from typing import List

import numpy as np

#: Seconds one probe takes on a quiet host of the kind the benchmark was
#: written on (2 vCPU x86-64 VM, CPython 3.11): timings are scaled to this.
REFERENCE_S = 0.0008
#: Seconds between probes while a region runs.
INTERVAL_S = 0.1
#: Probes run just before and just after a region that is interrupted.
EDGE_PROBES = 5
#: Probes run just before and just after a region that is not interrupted,
#: and at each idle moment of the service.  The host's speed swings within
#: milliseconds, so such a sample has to span tens of milliseconds: with 5
#: probes, scaled pass times spread about as widely as raw ones.
IDLE_PROBES = 20


def probe() -> float:
    """Run one probe of fixed work; return its wall seconds."""
    started = time.perf_counter()
    total = 0.0
    for index in range(60):
        digest = hashlib.sha256(b"perfbench-probe:%d" % index).digest()
        total += np.random.default_rng(int.from_bytes(digest[:8], "little")).random()
        for step in range(20):
            total += (index * step) % 7
    return time.perf_counter() - started


def probe_mean(count: int = IDLE_PROBES) -> float:
    """Mean wall seconds of ``count`` probes run back to back."""
    return statistics.fmean(probe() for _ in range(count))


class SpeedSampler:
    """Probe host speed on the main thread around and during a ``with`` block.

    :data:`EDGE_PROBES` probes run just before and just after the region.
    With ``interrupt`` (the default) more probes interrupt the region every
    :data:`INTERVAL_S`, and :meth:`scale` excludes their time; without, the
    edges take :data:`IDLE_PROBES` probes each.  Short,
    import-heavy regions such as set-up pass ``interrupt=False``: a probe
    inside an import runs cache-cold and would overstate the slowdown.  Only
    the main thread can run signal handlers, so use this on the main thread.
    """

    def __init__(self, interrupt: bool = True) -> None:
        self.interrupt = interrupt
        self._edge = EDGE_PROBES if interrupt else IDLE_PROBES
        self.samples: List[float] = []
        self.interrupted_s = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        seconds = probe()
        self.samples.append(seconds)
        self.interrupted_s += seconds

    def __enter__(self) -> "SpeedSampler":
        self.samples.extend(probe() for _ in range(self._edge))
        if self.interrupt:
            self._previous = signal.signal(signal.SIGALRM, self._handler)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.interrupt:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.samples.extend(probe() for _ in range(self._edge))

    @property
    def slowdown(self) -> float:
        """The host's slowdown against the reference (1.0 = reference speed)."""
        return statistics.fmean(self.samples) / REFERENCE_S

    def scale(self, wall_s: float) -> float:
        """The factor that turns the region's timings (``wall_s`` long, probes
        included) into seconds at the reference speed."""
        return max(0.0, 1.0 - self.interrupted_s / wall_s) / self.slowdown

