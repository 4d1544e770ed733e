"""Minimal deterministic PNG codec (8-bit grayscale) on numpy + zlib.

The sandbox has no cv2/PIL, so the media sidecar's ``data: binary`` column
holds PNGs produced by this encoder; the decode stage mirrors the reference's
``DecodeImage`` contract (bytes -> uint8 image, ``None`` on failure -> row is
dropped and counted; cf. reference pytocr/data/imaug/operators.py:9-38).

Encoder always writes filter type 0; the decoder honors all five standard
filters so externally produced grayscale PNGs also decode. Decoding rejects
an empty image or one over ``_MAX_PIXELS``, inflates no more than the IHDR
size implies, and undoes the filters in numpy; Average and Paeth, which need
the pixel to the left, go per pixel over Python ints.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_SIG = b"\x89PNG\r\n\x1a\n"

# Largest image decode_gray accepts, as OpenCV's imdecode (2**30 pixels).
# The IHDR is the sender's, so this bounds what a hostile PNG can make a
# decoder inflate: up to this size, a payload inflates as far as its IHDR.
_MAX_PIXELS = 1 << 30


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def encode_gray(img: np.ndarray) -> bytes:
    """uint8 HxW grayscale -> PNG bytes (colortype 0, bit depth 8, filter 0)."""
    if img.dtype != np.uint8 or img.ndim != 2:
        raise ValueError("encode_gray expects uint8 HxW array")
    h, w = img.shape
    # Prepend the per-row filter byte (0) as an extra column, vectorized.
    raw = np.hstack([np.zeros((h, 1), np.uint8), img]).tobytes()
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    return (
        _SIG
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(raw, 6))
        + _chunk(b"IEND", b"")
    )


def _average_row(line: bytes, prev: bytes) -> bytearray:
    cur = bytearray()
    append = cur.append
    a = 0
    for x, b in zip(line, prev):
        a = (x + ((a + b) >> 1)) & 255
        append(a)
    return cur


def _paeth_row(line: bytes, prev: bytes) -> bytearray:
    cur = bytearray()
    append = cur.append
    a = c = 0
    for x, b in zip(line, prev):
        pa = abs(b - c)
        pb = abs(a - c)
        pc = abs(a + b - c - c)
        if pa <= pb and pa <= pc:
            a = (x + a) & 255
        elif pb <= pc:
            a = (x + b) & 255
        else:
            a = (x + c) & 255
        append(a)
        c = b
    return cur


def _unfilter(raw: np.ndarray, h: int, w: int) -> np.ndarray:
    """Undo PNG row filters for bpp=1 (grayscale), one run of rows with the
    same filter at a time.

    Filter 0 is a copy; Sub and Up are cumulative sums mod 256 along each row
    and down the run.  Average and Paeth depend on the pixel to the left, so
    they go row by row, per pixel over Python ints.
    """
    rows = raw.reshape(h, w + 1)
    ftypes = rows[:, 0]
    if ftypes.max(initial=0) > 4:
        raise ValueError(f"bad filter {ftypes.max()}")
    out = rows[:, 1:].copy()
    cuts = (np.flatnonzero(ftypes[1:] != ftypes[:-1]) + 1).tolist()
    for y0, y1 in zip([0] + cuts, cuts + [h]):
        ftype = ftypes[y0]
        prev = out[y0 - 1] if y0 > 0 else np.zeros(w, np.uint8)
        run = out[y0:y1]
        if ftype == 1:  # Sub
            run[:] = np.cumsum(run, axis=1, dtype=np.uint64).astype(np.uint8)
        elif ftype == 2:  # Up
            run[:] = (np.cumsum(run, axis=0, dtype=np.uint64) + prev).astype(np.uint8)
        elif ftype > 2:
            row_fn = _average_row if ftype == 3 else _paeth_row
            for y in range(y0, y1):
                out[y] = np.frombuffer(row_fn(out[y].tobytes(), prev.tobytes()), np.uint8)
                prev = out[y]
    return out


def decode_gray(data: bytes) -> np.ndarray | None:
    """PNG bytes -> uint8 HxW grayscale, or None on any failure (drop row)."""
    try:
        if not data or data[:8] != _SIG:
            return None
        pos = 8
        w = h = None
        idat = []
        while pos + 8 <= len(data):
            (length,) = struct.unpack_from(">I", data, pos)
            tag = data[pos + 4 : pos + 8]
            payload = data[pos + 8 : pos + 8 + length]
            pos += 12 + length
            if tag == b"IHDR":
                w, h, depth, ctype, _, _, interlace = struct.unpack(">IIBBBBB", payload)
                if depth != 8 or ctype != 0 or interlace != 0:
                    return None
            elif tag == b"IDAT":
                idat.append(payload)
            elif tag == b"IEND":
                break
        if w is None or not idat or not 0 < w * h <= _MAX_PIXELS:
            return None
        # inflate at most one byte past the expected size, so a payload that
        # expands far beyond its IHDR is rejected without being inflated
        size = h * (w + 1)
        inflater = zlib.decompressobj()
        raw = inflater.decompress(b"".join(idat), size + 1)
        if len(raw) != size or not inflater.eof:
            return None
        return _unfilter(np.frombuffer(raw, dtype=np.uint8), h, w)
    except Exception:
        return None
