"""Unit tests of the two-stage vectorized decode kernel (PR 9).

The differential fuzz suite proves whole-stream equivalence; these
tests pin the pieces in isolation: the LZ77 replay (tiled pointer
jumping, overlap folding, window seeding, marker transparency), the
per-block token decoder's guard rails (``max_out``, int32 bounds), and
the buffer-size gate that decides which decodes reach the kernel.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.core import marker
from repro.deflate import npkernel
from repro.deflate.bitio import BitReader
from repro.deflate.inflate import inflate, read_block_header
from repro.errors import ReproError
from repro.units import BitOffset


def _cols(*tokens):
    """(offset, value) pairs -> int32 column arrays."""
    offs = np.asarray([t[0] for t in tokens], dtype=np.int32)
    vals = np.asarray([t[1] for t in tokens], dtype=np.int32)
    return offs, vals


def _pure_replay(tokens, window=b""):
    out = bytearray(window)
    for off, val in tokens:
        if off == 0:
            out.append(val)
        else:
            for _ in range(val):
                out.append(out[-off])
    return bytes(out[len(window):])


# ---------------------------------------------------------------------------
# replay_bytes
# ---------------------------------------------------------------------------


def test_replay_literals_only():
    toks = [(0, b) for b in b"ACGTACGT"]
    assert npkernel.replay_bytes(*_cols(*toks), b"") == b"ACGTACGT"


def test_replay_empty():
    offs = np.empty(0, dtype=np.int32)
    assert npkernel.replay_bytes(offs, offs, b"") == b""


def test_replay_simple_match():
    toks = [(0, ord("A")), (0, ord("B")), (0, ord("C")), (3, 3)]
    assert npkernel.replay_bytes(*_cols(*toks), b"") == b"ABCABC"


def test_replay_overlapping_match_rle():
    # distance 1, length 7: classic RLE — the overlap mod-fold path.
    toks = [(0, ord("X")), (1, 7)]
    assert npkernel.replay_bytes(*_cols(*toks), b"") == b"X" * 8


def test_replay_overlap_distance_less_than_length():
    toks = [(0, ord("A")), (0, ord("B")), (0, ord("C")), (2, 9)]
    assert npkernel.replay_bytes(*_cols(*toks), b"") == _pure_replay(toks)


def test_replay_chained_matches():
    # Later matches copy from earlier matches' output: the pointer
    # chains the tiled jump must resolve transitively.
    toks = [(0, ord("A")), (0, ord("B")), (2, 2), (4, 4), (8, 8), (3, 5)]
    assert npkernel.replay_bytes(*_cols(*toks), b"") == _pure_replay(toks)


def test_replay_from_seeded_window():
    window = b"HELLOWORLD"
    toks = [(10, 5), (0, ord("!")), (6, 4)]
    assert npkernel.replay_bytes(*_cols(*toks), window) == _pure_replay(
        toks, window
    )


def test_replay_randomized_against_pure():
    rng = np.random.default_rng(0xD1FF)
    window = bytes(rng.integers(0, 256, 512, dtype=np.uint8))
    toks = []
    produced = len(window)
    for _ in range(2_000):
        if produced == 0 or rng.random() < 0.55:
            toks.append((0, int(rng.integers(0, 256))))
            produced += 1
        else:
            off = int(rng.integers(1, min(produced, 400) + 1))
            length = int(rng.integers(3, 259))
            toks.append((off, length))
            produced += length
    assert npkernel.replay_bytes(*_cols(*toks), window) == _pure_replay(
        toks, window
    )


def test_replay_backref_before_window_raises_fallback():
    toks = [(0, ord("A")), (5, 3)]  # distance 5 with 2 bytes of history
    with pytest.raises(npkernel.Fallback):
        npkernel.replay_bytes(*_cols(*toks), b"")


def test_replay_int32_bound_raises_fallback():
    # len(offs) * 258 + wlen must stay below 2**31; build a columnar
    # shape that trips the pre-check without allocating the output.
    n = (1 << 31) // 258 + 1
    offs = np.zeros(n, dtype=np.int32)
    with pytest.raises(npkernel.Fallback):
        npkernel.replay_bytes(offs, offs, b"")


# ---------------------------------------------------------------------------
# replay_symbols (marker domain)
# ---------------------------------------------------------------------------


def test_replay_symbols_markers_survive_copies():
    # A match that reaches into the undetermined window must copy the
    # marker symbols (values >= MARKER_BASE) through untouched.
    win = np.asarray(marker.undetermined_window(), dtype=np.int32)
    toks = [(3, 3), (0, ord("G")), (2, 2)]
    out = npkernel.replay_symbols(*_cols(*toks), win)
    expect = [
        int(win[-3]), int(win[-2]), int(win[-1]),
        ord("G"),
        int(win[-1]), ord("G"),
    ]
    assert out.dtype == np.int32
    assert out.tolist() == expect
    assert all(s >= marker.MARKER_BASE for s in expect[:3])


def test_replay_symbols_no_byte_narrowing():
    win = np.asarray(marker.undetermined_window(), dtype=np.int32)
    out = npkernel.replay_symbols(*_cols((1, 258)), win)
    assert out.dtype == np.int32
    assert (out == win[-1]).all()


# ---------------------------------------------------------------------------
# decode_block
# ---------------------------------------------------------------------------


def _first_block(payload):
    reader = BitReader(payload, BitOffset(0))
    header = read_block_header(reader)
    assert header.btype != 0
    return reader.tell_bits(), header


def test_decode_block_tokens_match_pure_capture(monkeypatch):
    rng = np.random.default_rng(7)
    text = bytes(rng.choice(np.frombuffer(b"ACGT", np.uint8), 40_000))
    co = zlib.compressobj(6, zlib.DEFLATED, -15)
    payload = co.compress(text) + co.flush()

    h_bit, header = _first_block(payload)
    kern = npkernel.StreamKernel(payload)
    offs, vals, _fp, end_bit = kern.decode_block(h_bit, header.litlen, header.dist)

    monkeypatch.setattr(npkernel, "MIN_PAYLOAD_BYTES", 1 << 62)
    ref = inflate(payload, capture_tokens=True, max_blocks=1)
    assert np.array_equal(offs, ref.tokens.offsets())
    assert np.array_equal(vals, ref.tokens.values())
    assert end_bit == ref.blocks[0].end_bit
    assert offs.dtype == np.int32 and vals.dtype == np.int32


def test_decode_block_max_out_guard():
    rng = np.random.default_rng(8)
    text = bytes(rng.choice(np.frombuffer(b"ACGT", np.uint8), 200_000))
    co = zlib.compressobj(9, zlib.DEFLATED, -15)
    payload = co.compress(text) + co.flush()
    h_bit, header = _first_block(payload)
    kern = npkernel.StreamKernel(payload)
    with pytest.raises(npkernel.Fallback):
        kern.decode_block(h_bit, header.litlen, header.dist, max_out=100)


def test_decode_block_huge_max_out_disabled():
    rng = np.random.default_rng(9)
    text = bytes(rng.choice(np.frombuffer(b"ACGT", np.uint8), 20_000))
    co = zlib.compressobj(6, zlib.DEFLATED, -15)
    payload = co.compress(text) + co.flush()
    h_bit, header = _first_block(payload)
    kern = npkernel.StreamKernel(payload)
    offs, vals, _fp, _end = kern.decode_block(
        h_bit, header.litlen, header.dist, max_out=1 << 62
    )
    total = int(np.where(offs > 0, vals, 1).sum())
    assert total == 20_000


# ---------------------------------------------------------------------------
# size gate
# ---------------------------------------------------------------------------


def _count_decode_blocks(monkeypatch) -> list[int]:
    """Count :meth:`StreamKernel.decode_block` calls from here on."""
    calls = [0]
    real = npkernel.StreamKernel.decode_block

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(npkernel.StreamKernel, "decode_block", counting)
    return calls


def _dna_payload(n: int, seed: int) -> tuple[bytes, bytes]:
    rng = np.random.default_rng(seed)
    text = bytes(rng.choice(np.frombuffer(b"ACGT", np.uint8), n))
    co = zlib.compressobj(6, zlib.DEFLATED, -15)
    return text, co.compress(text) + co.flush()


def test_resolve_auto_size_gate(monkeypatch):
    # Buffers below MIN_PAYLOAD_BYTES stay on the pure loops; at the
    # threshold every compressed block is offered to the kernel.
    calls = _count_decode_blocks(monkeypatch)
    text, payload = _dna_payload(20_000, 10)
    assert len(payload) < npkernel.MIN_PAYLOAD_BYTES
    assert inflate(payload).data == text
    assert calls[0] == 0
    monkeypatch.setattr(npkernel, "MIN_PAYLOAD_BYTES", len(payload))
    assert inflate(payload).data == text
    assert calls[0] == 1


def test_explicit_numpy_honored_on_tiny_stream(monkeypatch):
    # The fuzz suite relies on this seam: with a zero size gate a
    # 100-byte stream still runs the vectorized path.
    calls = _count_decode_blocks(monkeypatch)
    monkeypatch.setattr(npkernel, "MIN_PAYLOAD_BYTES", 0)
    payload = zlib.compress(b"ACGT" * 25, 6)[2:-4]
    res = inflate(payload)
    assert res.data == b"ACGT" * 25
    assert calls[0] == 1


class _NoKernel(Exception):
    pass


def test_strict_inflate_never_builds_a_kernel(monkeypatch):
    # Sync probes decode strictly; they must not pay for a kernel even
    # on buffers above the size gate.
    def refuse(data):
        raise _NoKernel

    monkeypatch.setattr(npkernel, "StreamKernel", refuse)
    text, payload = _dna_payload(400_000, 11)
    assert len(payload) >= npkernel.MIN_PAYLOAD_BYTES
    for bit in (0, 3, 8 * (len(payload) // 2)):
        try:
            inflate(payload, start_bit=BitOffset(bit), strict=True, max_blocks=2)
        except ReproError:
            pass
    with pytest.raises(_NoKernel):
        inflate(payload)
