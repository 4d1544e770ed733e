import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from pytorchocr_ray.functions.png import _SIG, _chunk, decode_gray, encode_gray


def test_roundtrip():
    rng = np.random.default_rng(0)
    for shape in [(1, 1), (7, 13), (64, 128), (257, 31)]:
        img = rng.integers(0, 256, shape, dtype=np.uint8)
        out = decode_gray(encode_gray(img))
        assert out is not None
        np.testing.assert_array_equal(out, img)


def test_decode_garbage_returns_none():
    assert decode_gray(b"") is None
    assert decode_gray(b"not a png at all") is None
    assert decode_gray(b"\x89PNG\r\n\x1a\n truncated") is None


def idat_payload_range(data: bytes) -> range:
    """Byte offsets of the (single) IDAT chunk's payload."""
    pos = 8
    while True:
        (length,) = struct.unpack_from(">I", data, pos)
        if data[pos + 4 : pos + 8] == b"IDAT":
            return range(pos + 8, pos + 8 + length)
        pos += 12 + length


def test_decode_corrupt_idat_returns_none():
    rng = np.random.default_rng(3)
    for img in (np.zeros((8, 8), np.uint8), rng.integers(0, 256, (8, 8), np.uint8)):
        data = encode_gray(img)
        payload = idat_payload_range(data)
        assert len(payload) > 8
        for pos in payload:  # zlib header, deflate stream and adler32
            bad = bytearray(data)
            bad[pos] ^= 0xFF
            assert decode_gray(bytes(bad)) is None, pos


def zero_stream(n: int) -> bytes:
    """zlib stream inflating to ``n`` zero bytes, built from one repeated
    full-flush deflate block instead of compressing all ``n`` bytes."""
    block = bytes(1 << 20)
    deflate = zlib.compressobj(9, zlib.DEFLATED, -15)
    seg = deflate.compress(block) + deflate.flush(zlib.Z_FULL_FLUSH)
    full, rem = divmod(n, len(block))
    tail = deflate.compress(bytes(rem)) + deflate.flush()
    adler = 1
    for _ in range(full):
        adler = zlib.adler32(block, adler)
    adler = zlib.adler32(bytes(rem), adler)
    return b"\x78\xda" + seg * full + tail + struct.pack(">I", adler)


def png_with(w: int, h: int, idat: bytes) -> bytes:
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    return _SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


@pytest.mark.parametrize(
    "w, h, inflated",
    [
        # 1x1 IHDR over an IDAT that inflates to 200 MB of zeros
        (1, 1, 200 << 20),
        # the IHDR matches the payload (32769 rows of filter byte + 32768
        # zeros, 1 GiB inflated) but declares more than 2**30 pixels
        (1 << 15, (1 << 15) + 1, ((1 << 15) + 1) ** 2),
    ],
    ids=["payload-past-ihdr", "ihdr-over-2**30-pixels"],
)
def test_decode_rejects_bomb_without_inflating_it(w, h, inflated):
    data = png_with(w, h, zero_stream(inflated))
    assert len(data) < inflated // 512
    tracemalloc.start()
    try:
        assert decode_gray(data) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_decode_rejects_empty_ihdr():
    for w, h in ((0, 3), (3, 0), (0, 0)):
        assert decode_gray(png_with(w, h, zlib.compress(bytes(h)))) is None


def test_decode_rejects_payload_longer_or_shorter_than_ihdr():
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    raw = np.hstack([np.zeros((3, 1), np.uint8), img]).tobytes()
    for payload in (raw + b"\0", raw[:-1], raw):
        out = decode_gray(png_with(4, 3, zlib.compress(payload)))
        if payload == raw:
            np.testing.assert_array_equal(out, img)
        else:
            assert out is None
    truncated = zlib.compress(raw)[:-5]  # stream cut before its end
    assert decode_gray(png_with(4, 3, truncated)) is None
