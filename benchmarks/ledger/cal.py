"""Reference-speed calibration: one frozen kernel, one frozen rate.

Wall-clock on a small shared box moves by ~1.7x between back-to-back
runs of identical work (host frequency and cache contention; CPU time
tracks wall, so it is not preemption).  Every duration the ledger
reports is therefore scaled by ``local_rate / CAL_REF``: the speed of
this kernel measured right next to the work, over the speed it had when
the benchmark was defined.  A time "at reference speed" is what the work
would have taken on the definition-time machine state.

The kernel is frozen.  It imports nothing from ``repro`` and does the
kind of work the analysis does — interpreter dispatch, small-array NumPy
(``isin``, ``flatnonzero``, ``searchsorted``, ``minimum``/``maximum`` on
<=256-element int64 arrays) and dict/set/tuple churn — so that it slows
down and speeds up with it.  ``CAL_CHECKSUM`` pins the computation:
changing the kernel changes the checksum, and ``slice_rate`` refuses to
report a rate for a kernel that is not the pinned one.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: Ticks per calibration slice (~7 ms at reference speed).
CAL_TICKS = 64

#: Ticks per second of this kernel on the definition-time machine state
#: (median of 400 slices interleaved with ``steady_deep`` cells,
#: measured once when the benchmark was defined; see README.md).  Frozen:
#: re-measuring it rescales every reported time.
CAL_REF = 20000.0

#: Checksum of one slice from the fixed initial state.
CAL_CHECKSUM = 1031442959149054371

_MASK = (1 << 61) - 1


def _slice() -> int:
    """Run ``CAL_TICKS`` ticks from the fixed initial state; returns the
    checksum.  Frozen — do not edit."""
    x = 0x9E3779B97F4A7C15 & _MASK
    acc = 0
    table: dict = {}
    seen: set = set()
    base = np.arange(256, dtype=np.int64)
    for tick in range(CAL_TICKS):
        x = (x * 6364136223846793005 + 1442695040888963407) & _MASK
        n = 32 + (x >> 7) % 225                      # 32..256 elements
        step = 1 + (x >> 17) % 5
        a = base[:n] * step + (x >> 23) % 97         # sorted, distinct
        b = base[:n:2] * (step + 1) + (x >> 29) % 89
        mask = np.isin(a, b)
        hits = np.flatnonzero(mask)
        pos = np.searchsorted(a, b)
        np.minimum(pos, n - 1, out=pos)
        found = a[pos] == b
        lo = np.minimum(a[: b.size], b)
        hi = np.maximum(a[: b.size], b)
        acc = (acc * 31 + int(hits.size) * 7 + int(found.sum()) * 3
               + int(hi[-1] - lo[0])) & _MASK
        # dict / set / tuple churn: what histories and caches do
        for k in range(12):
            key = (tick & 7, int(a[k]) & 63, k & 3)
            table[key] = table.get(key, 0) + k
            seen.add(key[1] ^ k)
        deps = frozenset(int(v) for v in hits[:8])
        acc = (acc + len(deps) + len(table) + len(seen)
               + sum(sorted(deps)[:3])) & _MASK
    return acc


def slice_rate(clock=time.perf_counter) -> tuple[float, float]:
    """Run one slice; returns ``(ticks per CPU-second, wall seconds)``.

    The rate is taken on the calling thread's CPU clock, not on the wall:
    on this class of machine the two agree to ~5% when nothing else
    runs in the process, but a slice that shares the interpreter lock
    with analysis threads (the service, the thread backend) would
    otherwise measure its share of the lock instead of the machine."""
    start = clock()
    cpu = time.thread_time()
    checksum = _slice()
    cpu = time.thread_time() - cpu
    spent = clock() - start
    if checksum != CAL_CHECKSUM:
        raise RuntimeError(
            f"calibration kernel checksum {checksum} != pinned "
            f"{CAL_CHECKSUM}: the kernel was edited; every reference-"
            "speed number would silently change meaning")
    return CAL_TICKS / cpu, spent


def _second_cpu(conn, cpus) -> None:
    """Helper process: a slice on the workers' CPUs whenever asked."""
    os.sched_setaffinity(0, cpus)
    while conn.recv():
        conn.send(slice_rate()[0])


class Calibrator:
    """Interleaves calibration slices with measured work and converts
    raw durations to reference speed.

    ``maybe(now)`` runs a slice when at least ``every`` seconds passed
    since the last one; ``scale(times)`` interpolates the observed rate
    at each sample's timestamp and returns the factor that turns a raw
    duration into a reference-speed one.

    With ``both_cpus`` set, every slice runs at the same moment on the
    calling thread and in a helper process on ``worker_cpus``, and the
    rate is their mean: the workloads whose replicas run in worker
    processes wait for both CPUs, and on a shared host the two drift
    apart (measured: sessions normalised by the driver's CPU alone
    spread 10%, by the mean of both 5%).
    """

    def __init__(self, every: float = 0.05, clock=time.perf_counter,
                 worker_cpus=()) -> None:
        self.every = every
        self.clock = clock
        self.times: list[float] = []
        self.rates: list[float] = []
        self.spent = 0.0
        self.both_cpus = False
        self._worker_cpus = set(worker_cpus)
        self._helper = None
        self._next = 0.0

    def _helper_conn(self):
        """The pipe to the helper process, started on first use."""
        if self._helper is None:
            import multiprocessing

            ours, theirs = multiprocessing.Pipe()
            process = multiprocessing.Process(
                target=_second_cpu, args=(theirs, self._worker_cpus),
                daemon=True)
            process.start()
            theirs.close()
            self._helper = (process, ours)
        return self._helper[1]

    def close(self) -> None:
        """Stop the helper process, if one was started, and wait."""
        if self._helper is not None:
            process, conn = self._helper
            conn.send(False)
            process.join()
            conn.close()
            self._helper = None

    def tick(self) -> float:
        """Run one slice now; returns its rate."""
        if self.both_cpus and self._worker_cpus:
            conn = self._helper_conn()
            conn.send(True)        # the helper's slice runs beside ours
            rate, spent = slice_rate(self.clock)
            rate = (rate + conn.recv()) / 2
        else:
            rate, spent = slice_rate(self.clock)
        now = self.clock()
        self.times.append(now - spent / 2)
        self.rates.append(rate)
        self.spent += spent
        self._next = now + self.every
        return rate

    def burst(self, slices: int = 5) -> float:
        """Several slices back to back (around a phase that cannot be
        interleaved); returns their median rate."""
        rates = sorted(self.tick() for _ in range(slices))
        return rates[slices // 2]

    def maybe(self, now: float) -> None:
        if now >= self._next:
            self.tick()

    def scale(self, times) -> np.ndarray:
        """Raw -> reference-speed factor at each timestamp: the observed
        rates, median-filtered over three neighbours (a single slice that
        caught a hiccup is an outlier, not a speed), interpolated."""
        if not self.rates:
            raise RuntimeError("no calibration slice ran")
        padded = np.pad(np.asarray(self.rates), 1, mode="edge")
        smooth = np.median(np.stack([padded[:-2], padded[1:-1],
                                     padded[2:]]), axis=0)
        return np.interp(np.asarray(times, dtype=float), self.times,
                         smooth) / CAL_REF

    def ref_seconds(self, start: float, end: float) -> float:
        """Reference-speed length of one coarse interval (a build, a
        probe, a phase): a slice runs if none did recently, and the rate
        is averaged over the interval."""
        self.maybe(self.clock())
        points = np.linspace(start, end, 9)
        return (end - start) * float(self.scale(points).mean())

    def summary(self) -> dict:
        rates = sorted(self.rates)
        return {"slices": len(rates), "seconds": self.spent,
                "min": rates[0], "median": rates[len(rates) // 2],
                "max": rates[-1]}
