"""Seeded synthetic FASTQ text and its gzip encoding.

The benchmark owns its inputs: nothing here imports the program under
test, so a change to the program's data or DEFLATE modules cannot
change the bytes the benchmark feeds it.  Records follow the Illumina
layout the paper's datasets have: a redundant header whose flowcell
coordinates advance, a random DNA read, ``+``, and a Phred+33 quality
string whose mean decays towards the 3' end in even-valued bins.
"""

from __future__ import annotations

import bisect
import hashlib
import zlib

import numpy as np

READ_LENGTH = 100
_BASES = np.frombuffer(b"ACGT", dtype=np.uint8)
#: Input fed to zlib per call while compressing.  zlib writes a block's
#: bits only when the block ends, so the output length after each call
#: locates every block boundary; a piece is far shorter than a block.
_PIECE = 4096
#: Text between candidate prefixes in :func:`gzip_split_at_phase`:
#: about 3 KB of gzip, 1.5 KB of midpoint shift, 5% of a block here.
_STEP = 8192


def fastq_text(n_bytes: int, seed: int) -> bytes:
    """Whole FASTQ records, at least ``n_bytes``, a pure function of ``seed``."""
    rng = np.random.default_rng(seed)
    # Every record is longer than 250 bytes, so this many always suffice.
    n_reads = n_bytes // 250 + 1
    dna = _BASES[rng.integers(0, 4, size=(n_reads, READ_LENGTH))]
    pos = np.arange(READ_LENGTH)
    mean_q = 38.0 - 8.0 * (pos / (READ_LENGTH - 1)) ** 2
    noise = rng.normal(0.0, 2.0, size=(n_reads, READ_LENGTH))
    qual = (np.clip(np.round((mean_q + noise) / 2) * 2, 2, 40) + 33).astype(np.uint8)
    steps = rng.integers(1, 50, size=n_reads)
    parts = []
    size = 0
    tile, x, y = 1101, 1000, 1000
    for i in range(n_reads):
        if size >= n_bytes:
            break
        x += int(steps[i])
        if x > 30000:
            x = 1000 + int(steps[i])
            y += 1 + int(steps[i]) % 40
            if y > 30000:
                y, tile = 1000, tile + 1
        header = f"@SIM001:42:HFCX7:1:{tile}:{x}:{y} 1:N:0:7\n".encode()
        parts.append(header + dna[i].tobytes() + b"\n+\n" + qual[i].tobytes() + b"\n")
        size += len(parts[-1])
    return b"".join(parts)


def gzip_with_blocks(text: bytes) -> tuple[bytes, list[int]]:
    """Single-member gzip of ``text`` by stdlib zlib at level 6 (``gzip -6``).

    Also returns, for every DEFLATE block, the byte length ``L`` of the
    output written when the block ended: the next block's header starts
    at a bit in ``[8 L, 8 L + 16)``.  The first entry is the 10-byte
    gzip header, i.e. the first block's exact start.  Feeding the input
    in pieces does not change zlib's output.
    """
    comp = zlib.compressobj(6, zlib.DEFLATED, 31)
    out = bytearray()
    block_ends = []
    for i in range(0, len(text), _PIECE):
        piece = comp.compress(text[i : i + _PIECE])
        if piece:
            out += piece
            block_ends.append(len(out))
    out += comp.flush()
    return bytes(out), block_ends


def gzip_split_at_phase(text: bytes, min_bytes: int, phase: float) -> tuple[bytes, bytes]:
    """Gzip the whole-record prefix of ``text``, at least ``min_bytes``
    long, whose DEFLATE payload midpoint lies nearest ``phase`` of the
    way through its block.

    Split in two equal bit ranges (pugz with two chunks), the second
    chunk must first scan from the payload midpoint to the next block
    start, a cost set by where in its block the midpoint falls.  Picking
    the prefix fixes that phase, so a file list can be stratified over
    it.  Candidate prefixes end about every ``_STEP`` bytes of text past
    ``min_bytes``; each is measured by flushing a copy of the compressor.
    The blocks around the midpoint ended long before, so appending text
    does not move them.  Returns ``(prefix, gzip)``.
    """
    newlines = np.flatnonzero(np.frombuffer(text, dtype=np.uint8) == ord("\n"))
    record_ends = (newlines[3::4] + 1).tolist()
    comp = zlib.compressobj(6, zlib.DEFLATED, 31)
    out = bytearray()
    block_ends: list[int] = []
    fed = 0
    best = None  # (error, prefix length, bytes of out, tail)
    cut = 0
    for end in record_ends[bisect.bisect_left(record_ends, min_bytes) :]:
        if end < cut + _STEP:
            continue
        cut = end
        for i in range(fed, cut, _PIECE):
            piece = comp.compress(text[i : min(i + _PIECE, cut)])
            if piece:
                out.extend(piece)
                block_ends.append(len(out))
        fed = cut
        tail = comp.copy().flush()
        # Payload: after the 10-byte header, before the 8-byte trailer.
        mid = (80 + 8 * (len(out) + len(tail) - 8)) / 2 / 8
        j = bisect.bisect_right(block_ends, mid) - 1
        if j < 0 or j + 1 >= len(block_ends):
            continue  # the midpoint's block has not ended yet
        at = (mid - block_ends[j]) / (block_ends[j + 1] - block_ends[j])
        if best is None or abs(at - phase) < best[0]:
            best = (abs(at - phase), cut, len(out), tail)
    if best is None:
        raise ValueError("text too short to place the payload midpoint")
    _, cut, n_out, tail = best
    return text[:cut], bytes(out[:n_out]) + tail


def describe(name: str, text: bytes, gz: bytes) -> dict:
    """Size and digest record, so two runs can show they saw the same bytes."""
    return {
        "name": name,
        "text_bytes": len(text),
        "gz_bytes": len(gz),
        "gz_sha256": hashlib.sha256(gz).hexdigest(),
    }
