"""Old import path of the vectorized decode kernel.

The kernel lives in :mod:`repro.deflate.npkernel`, next to the block
loops that call it; this module re-exports the same objects, so code
that imports or patches ``repro.perf.npkernel.StreamKernel`` acts on
the class the decoders use.
"""

from repro.deflate.npkernel import (
    Fallback,
    StreamKernel,
    replay_bytes,
    replay_symbols,
)

__all__ = [
    "Fallback",
    "StreamKernel",
    "replay_bytes",
    "replay_symbols",
]
