"""Machine-speed calibration for host-time metrics.

The host this benchmark runs on changes speed by tens of percent, in
phases from milliseconds to tens of seconds (other tenants share the
physical cores), so raw wall time does not repeat from run to run.  A
fixed pure-Python kernel is timed every ``PERIOD_S`` seconds from an
interval-timer signal, in the middle of whatever the benchmark is doing.
An interval's wall time, less the kernel runs that fell inside it, is
scaled by the mean of ``NOMINAL_KERNEL_MS / measured`` over the kernel
samples taken during it: work that ran while the machine was slow is
counted at the speed of the reference machine.

The kernel exercises the interpreter paths the simulator lives on
(slotted attribute access, dict and deque traffic, small calls, integer
arithmetic) and imports nothing from ``repro``, so no change to the
program under test can move it.

A served request is mostly system calls, loopback TCP and JSON in two
processes, which the machine's contention slows less than it slows the
kernel.  Requests are therefore normalised by a reference round trip
instead: a fresh TCP connection to :func:`echo_server` (this file run as
a script), carrying a fixed JSON document there and back.

Run as a script, this file is that echo server: it prints its port and
answers until killed.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from typing import List, Tuple

#: Kernel time on the reference machine (2-vCPU Intel Xeon VM, 2.1 GHz); the
#: unit every normalised host-time metric is expressed in.
NOMINAL_KERNEL_MS = 0.35
#: Reference round-trip time on the same machine.
NOMINAL_ROUND_TRIP_MS = 0.8
#: Seconds between two kernel samples.
PERIOD_S = 0.02
#: Intervals holding fewer samples borrow their nearest neighbours.
MIN_SAMPLES = 8

_ROUNDS = 600


class _Cell:
    __slots__ = ("value", "hits")

    def __init__(self, value: int) -> None:
        self.value = value
        self.hits = 0


def _mix(a: int, b: int) -> int:
    return ((a << 3) ^ (b >> 2)) & 0xFFFFF


def kernel(rounds: int = _ROUNDS) -> int:
    """A fixed amount of interpreter work; returns a checksum."""
    cells = [_Cell(i) for i in range(64)]
    table: dict = {}
    queue: deque = deque()
    acc = 0
    for step in range(rounds):
        cell = cells[step & 63]
        cell.value = (cell.value * 31 + step) & 0xFFFF
        cell.hits += 1
        slot = cell.value & 255
        table[slot] = table.get(slot, 0) + 1
        queue.append(cell.value)
        if len(queue) > 16:
            acc += queue.popleft()
        acc = _mix(acc, step)
    return acc + len(table)


class Samples:
    """Time-ordered runs of one probe and the probe's nominal duration."""

    def __init__(self, nominal_ms: float) -> None:
        self.nominal_ms = nominal_ms
        #: (start, end) perf_counter times of every probe run.
        self.runs: List[Tuple[float, float]] = []
        self._starts: List[float] = []

    def add(self, start: float, end: float) -> None:
        self.runs.append((start, end))
        self._starts.append(start)

    def inside(self, start: float, end: float) -> List[Tuple[float, float]]:
        low = bisect.bisect_left(self._starts, start)
        return self.runs[low:bisect.bisect_left(self._starts, end)]

    def factor(self, start: float, end: float) -> float:
        """Mean ``nominal / measured`` over the runs in the interval.

        An interval holding fewer than ``MIN_SAMPLES`` runs borrows the
        nearest ones.
        """
        runs = self.inside(start, end)
        if len(runs) < MIN_SAMPLES:
            middle = bisect.bisect_left(self._starts, (start + end) / 2)
            first = max(0, middle - MIN_SAMPLES // 2)
            runs = self.runs[first:first + MIN_SAMPLES]
        return sum(self.nominal_ms / ((b - a) * 1e3) for a, b in runs) / len(runs)

    def median_ms(self) -> float:
        times = sorted(b - a for a, b in self.runs)
        return times[len(times) // 2] * 1e3 if times else 0.0


class Clock:
    """Samples the kernel every ``PERIOD_S`` from ``SIGALRM``.

    Python runs signal handlers between bytecodes of the main thread, so
    a sample never splits a ``time.perf_counter()`` reading: each falls
    wholly inside or outside any measured interval.  Only one Clock may
    run per process.
    """

    def __init__(self) -> None:
        self.kernel = Samples(NOMINAL_KERNEL_MS)
        self.round_trips = Samples(NOMINAL_ROUND_TRIP_MS)
        self.sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def sample(self, count: int = 1) -> None:
        """Time ``count`` kernel runs now."""
        for _ in range(count):
            start = time.perf_counter()
            kernel()
            self.kernel.add(start, time.perf_counter())

    @contextlib.contextmanager
    def held(self):
        """Defer timer samples; the caller calls :meth:`sample` itself.

        For work that hands the CPU to another process and waits (a
        served request): a sample taken then would share the CPU with
        that process and read slow, so samples go between requests.
        """
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()

    def measure(self, start: float, end: float,
                by_round_trips: bool = False) -> Tuple[float, float]:
        """(raw, normalised) seconds of ``[start, end]``, probe runs excluded."""
        probes = self.round_trips if by_round_trips else self.kernel
        raw = (end - start) - sum(
            b - a for samples in (self.kernel, self.round_trips)
            for a, b in samples.inside(start, end))
        return raw, raw * probes.factor(start, end)

    def normalised(self, start: float, end: float) -> float:
        return self.measure(start, end)[1]

    def calib_ms(self) -> float:
        """Median kernel time over the run (the machine's speed)."""
        return self.kernel.median_ms()


class RoundTrip:
    """The reference round trip: an :func:`echo_server` subprocess."""

    _DOC = json.dumps({"values": list(range(1500)), "name": "x" * 200}).encode()

    def __init__(self) -> None:
        self.process = subprocess.Popen([sys.executable, __file__],
                                        stdout=subprocess.PIPE, text=True)
        self.port = int(self.process.stdout.readline())

    def probe(self, samples: Samples, count: int) -> None:
        """Make ``count`` round trips, recording each in ``samples``."""
        for _ in range(count):
            start = time.perf_counter()
            with socket.create_connection(("127.0.0.1", self.port)) as conn:
                conn.sendall(b"%d\n" % len(self._DOC) + self._DOC)
                reply = _read_framed(conn)
            json.loads(reply)
            samples.add(start, time.perf_counter())

    def stop(self) -> None:
        self.process.kill()
        self.process.wait()
        self.process.stdout.close()


def _read_framed(conn: socket.socket) -> bytes:
    """Read one ``<length>\\n<body>`` message."""
    data = b""
    while b"\n" not in data:
        data += conn.recv(65536)
    size, _, body = data.partition(b"\n")
    while len(body) < int(size):
        body += conn.recv(65536)
    return body


def echo_server() -> None:
    """Answer each connection's JSON document with itself, re-encoded."""
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        print(listener.getsockname()[1], flush=True)
        while True:
            conn, _ = listener.accept()
            with conn:
                out = json.dumps(json.loads(_read_framed(conn))).encode()
                conn.sendall(b"%d\n" % len(out) + out)


if __name__ == "__main__":
    echo_server()
