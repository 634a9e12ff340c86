"""Host speed reference: a fixed piece of work timed next to every op.

The shared 2-vCPU VM this benchmark was built on runs the same code in
a fast and a slow state about 1.5x apart; a state lasts from about a
second to a few minutes (``LAYERS.md``, Steadiness).  A run's raw times therefore
depend on how much of it fell in the slow state, and two runs of the
same code differ by up to a quarter.  So the benchmark times a fixed
piece of its own work -- a table-driven byte loop like the program's
bit decoders and CRC, then numpy gathers and scans like its kernels --
before every timed op and set-up and after the last one, and scales
each raw time by ``NOMINAL_S / local`` where ``local`` is the mean of
the reference timings just before and just after it.  Times are then
milliseconds at the host speed at which the reference takes
``NOMINAL_S``.  A change to the program moves them in full; nothing
here imports the program.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: The speed every reported time is scaled to, as a time of the
#: reference: on the build host (2-vCPU VM) it takes 12 to 14 ms in
#: the fast state.
NOMINAL_S = 0.014

_LOOP_BYTES = 60_000
_GATHER = 1 << 19


class Reference:
    """Call to run the reference work once and get its wall time."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0x5EED)
        self.data = rng.integers(0, 256, _LOOP_BYTES, dtype=np.uint8).tobytes()
        self.table = tuple(rng.integers(0, 1 << 32, 256).tolist())
        self.index = rng.integers(0, _GATHER, _GATHER)
        self.values = rng.integers(0, 256, _GATHER, dtype=np.uint8)
        self.samples: list[float] = []
        for _ in range(3):  # page in the arrays, warm the loop
            self()
        self.samples.clear()

    def __call__(self) -> float:
        t0 = perf_counter()
        table = self.table
        c = 0xFFFFFFFF
        for byte in self.data:
            c = table[(c ^ byte) & 0xFF] ^ (c >> 8)
        x = self.values[self.index]
        np.cumsum(x, dtype=np.int64)
        np.flatnonzero(x > c % 256)
        elapsed = perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed


def scale(raw_s: float, before_s: float, after_s: float) -> float:
    """``raw_s`` at nominal host speed, given the reference timings that
    bracket it."""
    return raw_s * NOMINAL_S / ((before_s + after_s) / 2)
