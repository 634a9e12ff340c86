"""DEFLATE (RFC 1951) constant tables.

All tables here are module-level immutables shared by the compressor,
the strict decompressor, and the marker-domain decompressor.  NumPy
copies of the hot tables are provided for vectorised decoding paths.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# Window / match geometry
# ---------------------------------------------------------------------------

#: LZ77 sliding-window size (the "context" of the paper): 32 KiB.
WINDOW_SIZE = 32768

#: Shortest match DEFLATE can encode.
MIN_MATCH = 3

#: Longest match DEFLATE can encode.
MAX_MATCH = 258

#: The two-byte gzip member magic (RFC 1952): ``\\x1f\\x8b``.
GZIP_MAGIC = b"\x1f\x8b"

# ---------------------------------------------------------------------------
# Block types (2-bit BTYPE field)
# ---------------------------------------------------------------------------

BTYPE_STORED = 0
BTYPE_FIXED = 1
BTYPE_DYNAMIC = 2
BTYPE_RESERVED = 3  # invalid; probing rejects immediately

# ---------------------------------------------------------------------------
# Literal/length alphabet (symbols 0..287)
# ---------------------------------------------------------------------------

#: End-of-block symbol in the literal/length alphabet.
END_OF_BLOCK = 256

#: Number of literal/length symbols actually usable (285 is the last
#: length code; 286/287 participate in fixed-code construction only).
NUM_LITLEN_SYMBOLS = 288
MAX_USED_LITLEN = 285

#: Number of distance symbols (codes 30/31 are invalid in a stream).
NUM_DIST_SYMBOLS = 32
MAX_USED_DIST = 29

#: Dynamic-header caps (RFC 1951 section 3.2.7): HLIT encodes
#: ``hlit - 257`` in 5 bits but only values up to 286 are legal, and
#: HDIST likewise tops out at 30 usable codes.
MAX_HLIT = 286
MAX_HDIST = 30

#: Maximum Huffman code length for litlen/dist alphabets.
MAX_CODE_BITS = 15

#: Maximum Huffman code length for the code-length alphabet.
MAX_CODELEN_BITS = 7

# Length codes 257..285: (extra_bits, base_length).
# RFC 1951 section 3.2.5.
LENGTH_EXTRA_BITS = (
    0, 0, 0, 0, 0, 0, 0, 0,  # 257-264
    1, 1, 1, 1,              # 265-268
    2, 2, 2, 2,              # 269-272
    3, 3, 3, 3,              # 273-276
    4, 4, 4, 4,              # 277-280
    5, 5, 5, 5,              # 281-284
    0,                       # 285
)

LENGTH_BASE = (
    3, 4, 5, 6, 7, 8, 9, 10,
    11, 13, 15, 17,
    19, 23, 27, 31,
    35, 43, 51, 59,
    67, 83, 99, 115,
    131, 163, 195, 227,
    258,
)

# Distance codes 0..29: (extra_bits, base_distance).
DIST_EXTRA_BITS = (
    0, 0, 0, 0,
    1, 1, 2, 2,
    3, 3, 4, 4,
    5, 5, 6, 6,
    7, 7, 8, 8,
    9, 9, 10, 10,
    11, 11, 12, 12,
    13, 13,
)

DIST_BASE = (
    1, 2, 3, 4,
    5, 7, 9, 13,
    17, 25, 33, 49,
    65, 97, 129, 193,
    257, 385, 513, 769,
    1025, 1537, 2049, 3073,
    4097, 6145, 8193, 12289,
    16385, 24577,
)

#: Order in which code lengths for the code-length alphabet are stored
#: in a dynamic block header (RFC 1951 section 3.2.7).
CODELEN_ORDER = (16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15)

#: Code-length alphabet repeat symbols.
CLEN_COPY_PREV = 16   # copy previous length 3-6 times, 2 extra bits
CLEN_ZERO_SHORT = 17  # 3-10 zeros, 3 extra bits
CLEN_ZERO_LONG = 18   # 11-138 zeros, 7 extra bits

# ---------------------------------------------------------------------------
# Fixed Huffman code lengths (RFC 1951 section 3.2.6)
# ---------------------------------------------------------------------------


def fixed_litlen_lengths() -> tuple[int, ...]:
    """Code lengths of the fixed literal/length Huffman code."""
    lengths = [8] * 144 + [9] * 112 + [7] * 24 + [8] * 8
    return tuple(lengths)


def fixed_dist_lengths() -> tuple[int, ...]:
    """Code lengths of the fixed distance code (5 bits for all 32 symbols)."""
    return (5,) * NUM_DIST_SYMBOLS


# ---------------------------------------------------------------------------
# Length -> length-code lookup (for the compressor)
# ---------------------------------------------------------------------------


def _build_length_to_code() -> np.ndarray:
    table = np.zeros(MAX_MATCH + 1, dtype=np.int16)
    for code_index in range(len(LENGTH_BASE) - 1, -1, -1):
        base = LENGTH_BASE[code_index]
        extra = LENGTH_EXTRA_BITS[code_index]
        hi = min(base + (1 << extra) - 1, MAX_MATCH)
        table[base : hi + 1] = 257 + code_index
    # Length 258 is always code 285 (code 284's extra range would also
    # reach it, but 285 encodes it with zero extra bits).
    table[MAX_MATCH] = 285
    return table


def _build_dist_to_code() -> np.ndarray:
    table = np.zeros(WINDOW_SIZE + 1, dtype=np.int16)
    for code_index in range(len(DIST_BASE)):
        base = DIST_BASE[code_index]
        extra = DIST_EXTRA_BITS[code_index]
        hi = min(base + (1 << extra) - 1, WINDOW_SIZE)
        table[base : hi + 1] = code_index
    return table


#: ``LENGTH_TO_CODE[length]`` -> literal/length symbol (257..285), for
#: lengths in [3, 258].
LENGTH_TO_CODE = _build_length_to_code()
LENGTH_TO_CODE.setflags(write=False)

#: ``DIST_TO_CODE[distance]`` -> distance symbol (0..29), for distances
#: in [1, 32768].
DIST_TO_CODE = _build_dist_to_code()
DIST_TO_CODE.setflags(write=False)

# ---------------------------------------------------------------------------
# Strict (probing) decode limits — Appendix X-A of the paper
# ---------------------------------------------------------------------------

#: A plausible decompressed block is at least this large...
PROBE_MIN_BLOCK = 1024

#: ...and at most this large.
PROBE_MAX_BLOCK = 4 * 1024 * 1024

#: Bytes accepted by the "valid ASCII" probing check: TAB, LF, CR and
#: the printable range.  (The paper targets ASCII text files.)
ASCII_ALLOWED = frozenset({9, 10, 13}) | set(range(32, 127))


def ascii_allowed_mask() -> np.ndarray:
    """Boolean mask of length 256, ``True`` for probe-acceptable bytes."""
    mask = np.zeros(256, dtype=bool)
    for b in ASCII_ALLOWED:
        mask[b] = True
    return mask


ASCII_MASK = ascii_allowed_mask()
ASCII_MASK.setflags(write=False)
