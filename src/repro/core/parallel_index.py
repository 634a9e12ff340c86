"""Parallel construction of a random-access index — a synthesis.

Ref [11]'s checkpoint index requires "an initial sequential
decompression of the whole file".  But the two-pass decompressor
produces, as a by-product, everything an index needs — confirmed block
starts at every chunk boundary and their fully *resolved* 32 KiB
contexts.  So on a multi-core machine the index can be built at pugz
speed rather than gunzip speed, with zero extra decompression work.

This is the "cold start" path of
:class:`repro.index.seekable.SeekableGzipReader`: the first touch of an
un-indexed plain gzip file runs the pugz first pass anyway, and this
module turns that pass into checkpoints — so the *second* touch is
already checkpoint-driven.

Multi-member ("blocked") files are walked member by member; every
member start becomes a ``"member"`` checkpoint (empty context by
construction) and ``uoffset`` stays continuous across boundaries, so
the resulting index addresses the file as one uncompressed stream.

This module glues :mod:`repro.core.pugz` to :mod:`repro.index`.
"""

from __future__ import annotations

from repro.core.pugz import PugzReport, pugz_decompress_payload
from repro.deflate.constants import WINDOW_SIZE
from repro.deflate.gzipfmt import parse_gzip_header
from repro.errors import GzipFormatError
from repro.index.zran import CHECKPOINT_BLOCK, CHECKPOINT_MEMBER, Checkpoint, GzipIndex
from repro.io.source import ByteSource
from repro.parallel.executor import Executor, make_executor
from repro.units import BitOffset, ByteOffset

__all__ = ["pugz_build_index"]


def pugz_build_index(
    gz_data,
    n_chunks: int = 8,
    executor: Executor | str = "serial",
) -> tuple[bytes, GzipIndex]:
    """Decompress in parallel and return ``(data, index)`` together.

    The index checkpoints are the chunk boundaries the planner found;
    their windows come from the decompressed output, which the caller
    gets anyway.  More chunks = denser index.  ``gz_data`` may be
    bytes, a path, a binary file object, or a
    :class:`~repro.io.source.ByteSource` (the build decodes every byte
    once by definition, so the whole stream is read either way).
    """
    src = ByteSource.wrap(gz_data)
    data = src.read_all()
    if not data:
        raise GzipFormatError("empty input", bit_offset=0, stage="parallel_index")
    if isinstance(executor, str):
        executor = make_executor(executor, n_chunks)

    out_parts: list[bytes] = []
    checkpoints: list[Checkpoint] = []
    uoffset = 0
    offset = 0
    n = len(data)
    while offset < n:
        payload_start, *_ = parse_gzip_header(data, offset)
        checkpoints.append(
            Checkpoint(
                bit_offset=BitOffset(8 * payload_start),
                uoffset=ByteOffset(uoffset),
                window=b"",
                kind=CHECKPOINT_MEMBER,
            )
        )
        # Fresh report per member: pugz_decompress_payload overwrites
        # the chunk tables on each call, so a shared report would only
        # describe the last member.
        report = PugzReport(n_chunks_requested=n_chunks)
        member_out = pugz_decompress_payload(
            data,
            8 * payload_start,
            8 * (n - 8),
            n_chunks,
            executor,
            report=report,
        )
        rel = 0
        for chunk, size in zip(report.chunks, report.chunk_output_sizes):
            if chunk.index > 0:
                # A confirmed block start whose 32 KiB context pass 2a
                # just resolved — a free checkpoint.
                checkpoints.append(
                    Checkpoint(
                        bit_offset=chunk.start_bit,
                        uoffset=ByteOffset(uoffset + rel),
                        window=member_out[max(0, rel - WINDOW_SIZE) : rel],
                        kind=CHECKPOINT_BLOCK,
                    )
                )
            rel += size
        uoffset += len(member_out)
        out_parts.append(member_out)
        payload_end = (report.end_bit + 7) // 8
        if n - payload_end < 8:
            raise GzipFormatError(
                "truncated gzip trailer",
                bit_offset=8 * payload_end,
                stage="trailer",
            )
        offset = payload_end + 8

    out = b"".join(out_parts)
    # The densest honest span: the largest output gap any seek can land
    # in, i.e. between consecutive checkpoints or after the last one.
    offs = [cp.uoffset for cp in checkpoints] + [len(out)]
    span = max(
        (b - a for a, b in zip(offs, offs[1:])),
        default=len(out),
    )
    index = GzipIndex(
        checkpoints=checkpoints, usize=len(out), span=max(1, span), csize=n
    )
    return out, index
