"""Memory-bounded parallel decompression (the paper's projected fix).

Discussion section: *"the current implementation requires the whole
decompressed file to reside in memory, yet further engineering efforts
could lift this limitation with little projected impact on
performance. [...] The memory requirements can be reduced by processing
in parallel only a portion of the file at a time."*

This module implements that engineering: the compressed payload is cut
into *stripes* of ``stripe_chunks`` chunks; each stripe runs the full
two-pass algorithm, emits its output to a consumer callback, and only
the 32 KiB boundary context crosses from one stripe to the next.  Peak
memory is O(stripe size), independent of file size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import marker
from repro.core.chunking import plan_chunks
from repro.core.pugz import _pass1_chunk
from repro.core.translate import resolve_contexts
from repro.deflate.gzipfmt import parse_gzip_header
from repro.errors import GzipFormatError, ReproError
from repro.parallel.executor import Executor, make_executor

__all__ = ["WindowedReport", "pugz_decompress_windowed", "iter_pugz"]


@dataclass
class WindowedReport:
    """Instrumentation of a windowed run."""

    stripes: int = 0
    chunks: int = 0
    output_size: int = 0
    #: Largest number of symbols held in memory at once (across one
    #: stripe's arrays) — the memory bound being demonstrated.
    peak_stripe_symbols: int = 0


def iter_pugz(
    gz_data: bytes,
    n_chunks: int = 16,
    stripe_chunks: int = 4,
    executor: Executor | str = "serial",
    confirm_blocks: int = 5,
    report: WindowedReport | None = None,
):
    """Generator form: yield decompressed chunks in stream order.

    Single-member files only (multi-member files are already blocked;
    use :func:`repro.core.pugz.pugz_decompress`).  Pass a
    :class:`WindowedReport` to collect instrumentation.
    """
    if isinstance(executor, str):
        executor = make_executor(executor, stripe_chunks)
    if stripe_chunks < 1:
        raise ValueError("stripe_chunks must be >= 1")
    if report is None:
        report = WindowedReport()

    payload_start, *_ = parse_gzip_header(gz_data, 0)
    start_bit = 8 * payload_start
    end_bit = 8 * (len(gz_data) - 8)
    chunks = plan_chunks(gz_data, start_bit, end_bit, n_chunks,
                         confirm_blocks=confirm_blocks)
    report.chunks = len(chunks)

    # The resolved 32 KiB of text preceding the next stripe.
    carry_context: np.ndarray | None = None  # None = true stream start

    for stripe_start in range(0, len(chunks), stripe_chunks):
        stripe = chunks[stripe_start : stripe_start + stripe_chunks]
        jobs = [(gz_data, c.start_bit, c.stop_bit, c.index, None) for c in stripe]
        results = executor.map(_pass1_chunk, jobs)
        results.sort(key=lambda r: r[0])
        symbol_arrays = [r[1] for r in results]
        windows = [r[2] for r in results]

        report.stripes += 1
        report.peak_stripe_symbols = max(
            report.peak_stripe_symbols, sum(len(s) for s in symbol_arrays)
        )

        # Resolve the stripe's contexts.  The first stripe's chunk 0
        # starts at the true stream start (no markers possible); later
        # stripes seed from the carried context.
        if carry_context is None:
            if marker.count_markers(symbol_arrays[0]):
                raise ReproError("stream references data before its start", stage="windowed")
            contexts = resolve_contexts(windows)
            stripe_ctxs = [None] + contexts[:-1]
            carry_context = contexts[-1]
        else:
            resolved = [marker.resolve(windows[0], carry_context)]
            for w in windows[1:]:
                resolved.append(marker.resolve(w, resolved[-1]))
            stripe_ctxs = [carry_context] + resolved[:-1]
            carry_context = resolved[-1]

        for symbols, ctx in zip(symbol_arrays, stripe_ctxs):
            if ctx is None:
                out = symbols.astype(np.uint8).tobytes()  # lint: allow-marker-escape(first stripe: count_markers verified zero above)
            else:
                out = marker.to_bytes(marker.resolve(symbols, ctx))
            report.output_size += len(out)
            yield out

        # A BFINAL chunk ends the member.
        if any(r[4] for r in results):
            break


def pugz_decompress_windowed(
    gz_data: bytes,
    sink,
    n_chunks: int = 16,
    stripe_chunks: int = 4,
    executor: Executor | str = "serial",
    confirm_blocks: int = 5,
) -> WindowedReport:
    """Decompress a gzip file stripe by stripe, streaming to ``sink``.

    ``sink(data: bytes)`` receives the output in order; peak memory is
    O(stripe), not O(file).  See :func:`iter_pugz` for the generator
    form this wraps.
    """
    report = WindowedReport()
    for piece in iter_pugz(
        gz_data,
        n_chunks=n_chunks,
        stripe_chunks=stripe_chunks,
        executor=executor,
        confirm_blocks=confirm_blocks,
        report=report,
    ):
        sink(piece)
    return report
