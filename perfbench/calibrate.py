"""A reference loop that runs beside each measured process on the same CPU.

The benchmark's host shares its cores with other tenants, and their load
changes a core's speed by up to 2x within milliseconds.  A process's time
alone therefore says as much about the neighbours as about the program.
This loop runs on the CPU the measured process is pinned to and alternates
two fixed units of work:

- ``compute``, shaped like the step kernels: a few numpy operations on a
  1281-node array and a short Python loop;
- ``load``, shaped like interpreter start and imports: unmarshalling the
  bytecode of a generated module.

Contention slows the two by different amounts (set-up code suffers less
from it than kernel code), so each interval is scaled by the unit that
resembles its work.  The loop and the measured process share the CPU by
time slices, so over a second or so both see the same mix of fast and slow
periods.  A unit's rate over an interval, units per CPU second, gives the
core's speed during exactly that interval, and

    scaled seconds = CPU seconds of the process * rate / REF_UNITS_PER_S[kind]

is the process's CPU time as a core running the loop at the reference
rates would have spent it.

Run as a program, ``calibrate.py FILE`` lowers its own priority, prints
``ready`` and loops until its standard input closes.  After every round it
stores four doubles in FILE: for each kind, the units done and the CPU
seconds spent in them, counted since it started.  Any process can map FILE
with ``Clock`` and read them at the start and end of an interval; the
fields of one read are at most one round apart.  The module imports only small standard
modules at the top, so a measured process that reads the clock pays
next to nothing in set-up time.
"""

from __future__ import annotations

import mmap
import os
import struct
import sys
import time

KINDS = ("compute", "load")
#: units per CPU second of each kind: about the best half-second rate seen
#: with the loop alone on a CPU of the 2-vCPU Xeon VM the benchmark was
#: built on (numpy backend); only the scale of the scaled seconds depends
#: on them
REF_UNITS_PER_S = {"compute": 7000.0, "load": 7000.0}
#: niceness of the loop; at 10 it gets about a tenth of a CPU shared with
#: one busy process, in slices spread evenly over the interval
NICENESS = 10
_STATE = struct.Struct("4d")


class Clock:
    """Read access to the loop's counts in ``path``."""

    def __init__(self, path: str):
        with open(path, "rb") as fh:
            self._map = mmap.mmap(fh.fileno(), _STATE.size, access=mmap.ACCESS_READ)

    def read(self) -> tuple:
        return _STATE.unpack_from(self._map, 0)


def scale(before, after, kind: str):
    """The core's speed for ``kind`` work between two reads, relative to
    the reference, or None if the loop did no such unit in between."""
    if before is None or after is None:
        return None
    i = 2 * KINDS.index(kind)
    units, cpu = after[i] - before[i], after[i + 1] - before[i + 1]
    if units <= 0 or cpu <= 0:
        return None
    return units / cpu / REF_UNITS_PER_S[kind]


def _module_source(n: int = 24) -> str:
    """A fixed module source: ``n`` small functions and ``n // 4`` classes."""
    parts = []
    for i in range(n):
        parts.append(
            f"def f{i}(a, b=({i}, 'k{i}'), *args, **kw):\n"
            f"    c = [a, b, {i}.5, 'v{i}', {{'x': a, 'y': {i}}}]\n"
            f"    for j in range({i} % 7):\n"
            f"        c.append(j * a if j % 2 else str(j))\n"
            f"    return {{'a': a, 'c': c, 'n': len(args) + len(kw)}}\n"
        )
    for i in range(n // 4):
        parts.append(
            f"class C{i}:\n"
            f"    k = {i}\n"
            f"    def __init__(self, x):\n        self.x = f{i}(x)\n"
            f"    @property\n    def y(self):\n        return self.x\n"
        )
    return "".join(parts)


def _loop(path: str):
    import marshal
    import threading

    import numpy as np

    a = np.linspace(0.0, 1.0, 1281)
    b = np.empty_like(a)
    blob = marshal.dumps(compile(_module_source(), "<calibration>", "exec"))
    with open(path, "r+b") as fh:
        out = mmap.mmap(fh.fileno(), _STATE.size)

    def stop_at_eof():
        sys.stdin.read()
        os._exit(0)

    os.nice(NICENESS)
    threading.Thread(target=stop_at_eof, daemon=True).start()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    state = [0.0] * 4
    clock = time.process_time
    while True:
        t0 = clock()
        for _ in range(30):
            np.subtract(a[1:], a[:-1], out=b[1:])
            np.multiply(b, b, out=b)
            np.add(a, b, out=b)
            x = 0
            for i in range(20):
                x += i
        t1 = clock()
        exec(marshal.loads(blob), {"__name__": "calibration"})
        t2 = clock()
        state[0] += 1.0
        state[1] += t1 - t0
        state[2] += 1.0
        state[3] += t2 - t1
        _STATE.pack_into(out, 0, *state)


class Calibrator:
    """The reference loop as a child process writing to ``path``; ``clock``
    reads it.  It inherits the caller's CPU affinity, so a caller pinned to
    one CPU gets the loop on that CPU."""

    def __init__(self, path: str):
        import subprocess

        with open(path, "wb") as fh:
            fh.write(bytes(_STATE.size))
        self.path = path
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), path],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("the calibration loop did not start")
        self.clock = Clock(path)

    def close(self):
        import subprocess

        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    _loop(sys.argv[1])
