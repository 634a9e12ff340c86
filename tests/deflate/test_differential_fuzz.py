"""Differential fuzz: optimized decode vs reference decoders (PR 5/9).

The hot-path rewrite must not drift by a single byte or bit.  Each
seeded stream is decoded three ways and cross-checked:

* ``zlib.decompress`` — the external ground truth for output bytes;
* the optimized fast loop (``inflate`` without token capture) — the
  path PR 5 rewrote;
* the general loop (``inflate`` with ``capture_tokens=True``), which is
  the pre-optimization per-symbol decoder kept for strict/token mode —
  so fast-vs-general is literally optimized-vs-pre-optimization;
* ``marker_inflate`` from a fully known (empty) context, whose symbol
  stream must equal the byte stream exactly.

Byte output must be identical across all four, and the final bit
positions of the three in-repo decoders must agree exactly.

PR 9 widens the matrix with the two-stage vectorized kernel: every
seeded stream additionally decodes through the pure block loops and
through the vectorized kernel in *both* domains (byte and marker), and
the pair must agree on output bytes/symbols, final bit position, block
table, captured tokens, and the marker window — including through the
recovery paths (pugz salvage around deliberately smashed blocks).  The
decoders pick the path by buffer size alone, so the tests force each
path by patching :data:`repro.deflate.npkernel.MIN_PAYLOAD_BYTES`: 0
sends even these small streams through the kernel, a huge value keeps
them on the pure loops.

~50 streams: 10 seeds x 5 stream shapes (stored blocks, fixed-Huffman,
dynamic at two levels, sync-flush seams), over random-DNA and
FASTQ-like corpora.  Runs in tier-1 (small inputs, a few seconds).
"""

from __future__ import annotations

import random
import zlib

import numpy as np
import pytest

from repro.core.marker_inflate import marker_inflate
from repro.core.pugz import pugz_decompress_payload
from repro.deflate import npkernel
from repro.deflate.inflate import inflate

SEEDS = range(10)


def make_text(seed: int, n: int = 24_000) -> bytes:
    """Seeded random-DNA/FASTQ-like text (alternates shape by seed)."""
    rng = random.Random(0xF52 + seed)
    if seed % 2:
        return bytes(rng.choice(b"ACGT") for _ in range(n))
    out = bytearray()
    rid = 0
    while len(out) < n:
        rid += 1
        k = rng.randint(60, 90)
        seq = bytes(rng.choice(b"ACGT") for _ in range(k))
        qual = bytes(rng.randint(33, 73) for _ in range(k))
        out += b"@read%d\n" % rid + seq + b"\n+\n" + qual + b"\n"
    return bytes(out[:n])


def compress_shape(text: bytes, shape: str) -> bytes:
    """Raw DEFLATE stream of ``text`` in the requested block shape."""
    if shape == "stored":
        co = zlib.compressobj(0, zlib.DEFLATED, -15)
        return co.compress(text) + co.flush()
    if shape == "fixed":
        co = zlib.compressobj(6, zlib.DEFLATED, -15, 8, zlib.Z_FIXED)
        return co.compress(text) + co.flush()
    if shape == "dynamic_fast":
        co = zlib.compressobj(1, zlib.DEFLATED, -15)
        return co.compress(text) + co.flush()
    if shape == "dynamic_best":
        co = zlib.compressobj(9, zlib.DEFLATED, -15)
        return co.compress(text) + co.flush()
    if shape == "sync_flush":
        co = zlib.compressobj(6, zlib.DEFLATED, -15)
        third = len(text) // 3
        return (
            co.compress(text[:third])
            + co.flush(zlib.Z_SYNC_FLUSH)
            + co.compress(text[third : 2 * third])
            + co.flush(zlib.Z_SYNC_FLUSH)
            + co.compress(text[2 * third :])
            + co.flush()
        )
    raise AssertionError(shape)


SHAPES = ("stored", "fixed", "dynamic_fast", "dynamic_best", "sync_flush")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_differential_decode(seed: int, shape: str):
    text = make_text(seed)
    payload = compress_shape(text, shape)
    reference = zlib.decompress(payload, -15)
    assert reference == text  # corpus sanity

    fast = inflate(payload)
    general = inflate(payload, capture_tokens=True)
    markers = marker_inflate(payload, window=b"")

    # Byte-identical output across every decoder.
    assert fast.data == reference
    assert general.data == reference
    assert bytes(markers.symbols.astype(np.uint8)) == reference

    # Identical final bit positions (the fast loop's buffer writeback
    # must land the cursor exactly where the per-symbol loop does).
    assert fast.end_bit == general.end_bit
    assert markers.end_bit == fast.end_bit
    assert fast.final_seen and general.final_seen and markers.final_seen

    # Identical block structure.
    assert [
        (b.start_bit, b.end_bit, b.out_start, b.out_end, b.btype, b.bfinal)
        for b in fast.blocks
    ] == [
        (b.start_bit, b.end_bit, b.out_start, b.out_end, b.btype, b.bfinal)
        for b in general.blocks
    ]


#: Size-gate values that force each decode path (see module docstring).
PATHS = {"pure": 1 << 62, "numpy": 0}


def _on_path(monkeypatch, path: str, fn, *args, **kwargs):
    """Call ``fn`` with the size gate pinned so ``path`` decodes."""
    monkeypatch.setattr(npkernel, "MIN_PAYLOAD_BYTES", PATHS[path])
    return fn(*args, **kwargs)


def _block_tuples(blocks):
    return [
        (b.start_bit, b.end_bit, b.out_start, b.out_end, b.btype, b.bfinal)
        for b in blocks
    ]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_kernel_differential(seed: int, shape: str, monkeypatch):
    """The vectorized kernel is bit-for-bit equal to the pure loops.

    Covers both domains: byte-output ``inflate`` (with and without
    token capture) and marker-domain ``marker_inflate`` from an
    undetermined context.  A zero size gate sends the small fuzz
    streams through the vectorized path.
    """
    text = make_text(seed)
    payload = compress_shape(text, shape)
    reference = zlib.decompress(payload, -15)

    p = _on_path(monkeypatch, "pure", inflate, payload)
    n = _on_path(monkeypatch, "numpy", inflate, payload)
    assert n.data == p.data == reference
    assert n.end_bit == p.end_bit
    assert n.final_seen == p.final_seen
    assert _block_tuples(n.blocks) == _block_tuples(p.blocks)

    pt = _on_path(monkeypatch, "pure", inflate, payload, capture_tokens=True)
    nt = _on_path(monkeypatch, "numpy", inflate, payload, capture_tokens=True)
    assert nt.data == pt.data == reference
    assert nt.end_bit == pt.end_bit
    assert np.array_equal(nt.tokens.offsets(), pt.tokens.offsets())
    assert np.array_equal(nt.tokens.values(), pt.tokens.values())

    mp = _on_path(monkeypatch, "pure", marker_inflate, payload)
    mn = _on_path(monkeypatch, "numpy", marker_inflate, payload)
    assert np.array_equal(mn.symbols, mp.symbols)
    assert mn.end_bit == mp.end_bit
    assert mn.final_seen == mp.final_seen
    assert mn.total_output == mp.total_output
    assert np.array_equal(mn.window, mp.window)
    assert _block_tuples(mn.blocks) == _block_tuples(mp.blocks)


@pytest.mark.parametrize("seed", range(5))
def test_kernel_differential_recovery(seed: int, monkeypatch):
    """Recovery paths agree between decode paths on corrupted streams.

    Each seeded stream gets one block header smashed mid-stream; pugz
    in recover mode must salvage the identical output, hole table, and
    per-chunk outcomes on both paths.
    """
    text = make_text(seed, n=60_000)
    payload = compress_shape(text, "sync_flush")
    blocks = inflate(payload).blocks
    if len(blocks) < 3:
        pytest.skip("stream produced too few blocks to corrupt safely")
    target = blocks[len(blocks) // 2]
    byte0 = target.start_bit // 8
    bad = bytearray(payload)
    bad[byte0 + 1 : byte0 + 4] = b"\xff\xff\xff"
    bad = bytes(bad)

    results = {}
    for k in ("pure", "numpy"):
        from repro.core.pugz import PugzReport

        report = PugzReport(n_chunks_requested=3)
        out = _on_path(
            monkeypatch, k, pugz_decompress_payload,
            bad, 0, 8 * len(bad), n_chunks=3, report=report,
            on_error="recover",
        )
        results[k] = (
            out,
            [h.to_dict() for h in report.holes],
            report.chunk_outcomes,
            report.unresolved_markers,
        )
    assert results["pure"] == results["numpy"]


def test_kernel_differential_budget_error(monkeypatch):
    """A zip bomb past the first block fails identically on both paths.

    The pure loop names the absolute output size and the budget's cap;
    the vectorized path must hand the crossing block to it with the
    whole history, not a window-relative one, so the message matches.
    """
    from repro.errors import ResourceLimitError
    from repro.robustness.limits import ResourceBudget

    rng = np.random.default_rng(2)
    text = bytes(rng.choice(np.frombuffer(b"ACGT", np.uint8), 400_000)) + b"A" * 2_000_000
    co = zlib.compressobj(6, zlib.DEFLATED, -15)
    payload = co.compress(text) + co.flush()

    errors = {}
    for path in PATHS:
        with pytest.raises(ResourceLimitError) as info:
            _on_path(
                monkeypatch, path, inflate, payload,
                budget=ResourceBudget(max_output_bytes=1_000_000),
            )
        errors[path] = (str(info.value), info.value.bit_offset)
    assert errors["pure"] == errors["numpy"]
    assert "past the 1000000-byte resource budget" in errors["numpy"][0]
