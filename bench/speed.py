"""Host-speed probe, so that times measured on a shared machine repeat.

On a machine shared with other tenants the speed of pure-Python code
drifts by a third for stretches of seconds to minutes, longer than a
run.  Medians over units cannot remove that, so the benchmark also
measures the host speed while it works.  `probe()` times a fixed piece
of pure-Python arithmetic, allocation and hashing, the same kinds of
work as enhcone's GF(p) row operations and orbit-keyed lookups.  A time
is then rescaled stretch by stretch to *reference seconds*, which is the
time it would take on a host where one probe takes REFERENCE_PROBE_S.  The raw
wall-clock time is always reported next to it.
"""

from __future__ import annotations

import signal
import time

REFERENCE_PROBE_S = 0.001  # about the median probe time on a 2-core x86-64 Xeon VM
INTERVAL_S = 0.05  # probe every 50 ms of work: about 2% of the run

_ROW = list(range(64))


def probe() -> float:
    """Seconds taken by one fixed piece of pure-Python work: row
    arithmetic on lists, then building and hashing small tuples of
    tuples.  In calibration runs of the paving sweep, the two parts
    together tracked the host's drift better than either alone (quartile
    spread 1.8% against 4.3% and 3.1%); a probe of random lookups in a
    large dict tracked it worse (6.2%)."""
    started = time.perf_counter()
    row = _ROW
    for f in range(1, 60):
        row = [(x - f * y) % 101 for x, y in zip(row, _ROW)]
    seen = {}
    for i in range(75):
        seen[tuple(tuple((i * j + k) % 5 for k in range(4)) for j in range(4))] = i
    return time.perf_counter() - started


def rescale(seconds: float, probe_s: float) -> float:
    """A stretch of `seconds` during which a probe took `probe_s`, in
    reference seconds."""
    return seconds * REFERENCE_PROBE_S / probe_s


class SampledTime:
    """Times the work inside the `with` block while a SIGALRM timer
    probes the host speed every INTERVAL_S.  The probes run in the main
    thread between bytecodes, and their own time is left out of both
    results.  Each stretch of work between two probes is rescaled by the
    mean of those two probes."""

    def __init__(self):
        self._samples: list[tuple[float, float]] = []  # (probe start, probe seconds)

    def _probe(self, *_) -> None:
        started = time.perf_counter()
        self._samples.append((started, probe()))

    def __enter__(self) -> "SampledTime":
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def _stretches(self):
        for (t0, p0), (t1, p1) in zip(self._samples, self._samples[1:]):
            yield t1 - (t0 + p0), (p0 + p1) / 2

    @property
    def raw_s(self) -> float:
        return sum(work for work, _ in self._stretches())

    @property
    def reference_s(self) -> float:
        return sum(rescale(work, probe_s) for work, probe_s in self._stretches())
