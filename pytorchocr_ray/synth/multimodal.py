"""Deterministic synthetic audio/video tables (opaque binary + metadata).

Payload bytes are seeded random blobs — they exist to exercise the binary
column plumbing; the stage decoders are stubs (see stages/multimodal.py).
Each row also stores ``seed`` = the value the fake decoder derives from
the payload's first 8 bytes, so the driver's SQL oracle can regenerate
the decoder's stream without byte surgery (the engine itself always
derives it from the bytes; equality is asserted at synthesis).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

AUDIO_SCHEMA = pa.schema(
    [
        ("sample_ref", pa.string()),
        ("data", pa.binary()),
        ("sample_rate", pa.int32()),
        ("n_samples", pa.int32()),
        ("seed", pa.int64()),
    ]
)

VIDEO_SCHEMA = pa.schema(
    [
        ("frame_ref", pa.string()),
        ("data", pa.binary()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("n_frames", pa.int32()),
        ("fps", pa.float32()),
        ("seed", pa.int64()),
    ]
)


def synth_audio_table(n_rows: int, seed: int = 42) -> pa.Table:
    from ..stages.multimodal import payload_seed

    refs, datas, rates, lens, seeds = [], [], [], [], []
    for i in range(n_rows):
        rng = np.random.default_rng((seed << 16) + i)
        refs.append(f"aud-{i:06d}")
        data = rng.bytes(64)
        datas.append(data)
        rates.append(16000)
        lens.append(int(rng.integers(2048, 8192)))
        seeds.append(payload_seed(data))
    return pa.table(
        {
            "sample_ref": refs,
            "data": datas,
            "sample_rate": rates,
            "n_samples": lens,
            "seed": seeds,
        },
        schema=AUDIO_SCHEMA,
    )


def synth_video_table(n_rows: int, seed: int = 42) -> pa.Table:
    from ..stages.multimodal import payload_seed

    refs, datas, ws, hs, nf, fps, seeds = [], [], [], [], [], [], []
    for i in range(n_rows):
        rng = np.random.default_rng((seed << 17) + i)
        refs.append(f"vid-{i:06d}")
        data = rng.bytes(64)
        datas.append(data)
        ws.append(64)
        hs.append(48)
        nf.append(int(rng.integers(10, 40)))
        fps.append(24.0)
        seeds.append(payload_seed(data))
    return pa.table(
        {
            "frame_ref": refs,
            "data": datas,
            "width": ws,
            "height": hs,
            "n_frames": nf,
            "fps": fps,
            "seed": seeds,
        },
        schema=VIDEO_SCHEMA,
    )


def _versioned_path(kind: str, n: int, seed: int) -> str:
    import hashlib
    import sys

    from ..stages import multimodal as _mm

    h = hashlib.sha256()
    for mod in (sys.modules[__name__], _mm):
        with open(mod.__file__, "rb") as f:
            h.update(f.read())
    return (
        f"/tmp/pytorchocr_ray_mm/{kind}_n{n}_s{seed}_v{h.hexdigest()[:10]}.parquet"
    )


def synth_audio_parquet(n_rows: int, seed: int = 42) -> str:
    """Write (cached) the audio synth table; shared input for the Ray query
    and its DuckDB oracle."""
    path = _versioned_path("audio", n_rows, seed)
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        pq.write_table(synth_audio_table(n_rows, seed), path)
    return path


def synth_video_parquet(n_rows: int, seed: int = 42) -> str:
    path = _versioned_path("video", n_rows, seed)
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        pq.write_table(synth_video_table(n_rows, seed), path)
    return path


# --------------------------------------------------------- REAL payloads
#
# The stub tables above exercise the binary plumbing with SQL-expressible
# fake decoders.  These tables carry REAL container formats — 16-bit PCM
# WAV and YUV4MPEG2 — so the driver exercises the real decoders
# (stages/multimodal.py real_audio_decode / real_video_decode) end to end.
# The oracle is GENERATOR KNOWLEDGE: expected features are computed here,
# directly from the raw samples/frames before encoding, with independent
# straightforward loops (not the stage's vectorized framing), and written
# as an expected parquet the SQL oracle just reads — the same
# stronger-than-SQL oracle pattern as the extraction ground truth.


def _wav_bytes(samples: np.ndarray, rate: int) -> bytes:
    import io
    import wave

    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes(samples.astype("<i2").tobytes())
    return buf.getvalue()


def _y4m_bytes(frames: np.ndarray, fps_num: int = 24) -> bytes:
    n, h, w = frames.shape
    hdr = f"YUV4MPEG2 W{w} H{h} F{fps_num}:1 Ip A1:1 C420\n".encode()
    chroma = bytes([128]) * (h * w // 2)
    parts = [hdr]
    for f in frames:
        parts.append(b"FRAME\n")
        parts.append(f.astype(np.uint8).tobytes())
        parts.append(chroma)
    return b"".join(parts)


def _real_dir(kind: str, n: int, seed: int) -> str:
    import hashlib
    import sys

    from ..stages import multimodal as _mm

    h = hashlib.sha256()
    for mod in (sys.modules[__name__], _mm):
        with open(mod.__file__, "rb") as f:
            h.update(f.read())
    return f"/tmp/pytorchocr_ray_mm/{kind}_n{n}_s{seed}_v{h.hexdigest()[:10]}"


def synth_real_audio_parquet(
    n_rows: int, seed: int = 42, window: int = 1024, hop: int = 512
) -> str:
    """Dir with payload.parquet (real WAV rows, AUDIO_SCHEMA minus seed)
    + expected.parquet (sample_ref, window_idx, energy, zcr)."""
    d = _real_dir("real_audio", n_rows, seed)
    if os.path.exists(os.path.join(d, "_SUCCESS")):
        return d
    os.makedirs(d, exist_ok=True)
    refs, datas, rates, lens = [], [], [], []
    e_ref, e_idx, e_en, e_zc = [], [], [], []
    for i in range(n_rows):
        rng = np.random.default_rng((seed << 18) + i)
        n = int(rng.integers(2048, 8192))
        samples = rng.integers(-32768, 32768, size=n, dtype=np.int64)
        refs.append(f"wav-{i:06d}")
        datas.append(_wav_bytes(samples, 16000))
        rates.append(16000)
        lens.append(n)
        # expected features: plain per-window loop over the raw samples
        k = 0
        while k * hop + window <= n:
            win = samples[k * hop : k * hop + window]
            e_ref.append(f"wav-{i:06d}")
            e_idx.append(k)
            e_en.append(int((win * win).sum()) / float(1 << 30))
            neg = win < 0
            e_zc.append(int((neg[1:] != neg[:-1]).sum()) / window)
            k += 1
    pq.write_table(
        pa.table(
            {
                "sample_ref": pa.array(refs, pa.string()),
                "data": pa.array(datas, pa.binary()),
                "sample_rate": pa.array(rates, pa.int32()),
                "n_samples": pa.array(lens, pa.int32()),
            }
        ),
        os.path.join(d, "payload.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "sample_ref": pa.array(e_ref, pa.string()),
                "window_idx": pa.array(e_idx, pa.int32()),
                "energy": pa.array(e_en, pa.float64()),
                "zcr": pa.array(e_zc, pa.float64()),
            }
        ),
        os.path.join(d, "expected.parquet"),
    )
    with open(os.path.join(d, "_SUCCESS"), "w") as f:
        f.write("ok")
    return d


def synth_real_video_parquet(
    n_rows: int, seed: int = 42, every_k: int = 5
) -> str:
    """Dir with payload.parquet (real y4m rows) + expected.parquet
    (frame_ref, frame_idx, mean_luma)."""
    d = _real_dir("real_video", n_rows, seed)
    if os.path.exists(os.path.join(d, "_SUCCESS")):
        return d
    os.makedirs(d, exist_ok=True)
    w, h = 64, 48
    refs, datas, ws, hs, nf, fps = [], [], [], [], [], []
    e_ref, e_idx, e_lu = [], [], []
    for i in range(n_rows):
        rng = np.random.default_rng((seed << 19) + i)
        n = int(rng.integers(10, 40))
        frames = rng.integers(0, 256, size=(n, h, w), dtype=np.int64).astype(
            np.uint8
        )
        refs.append(f"y4m-{i:06d}")
        datas.append(_y4m_bytes(frames))
        ws.append(w)
        hs.append(h)
        nf.append(n)
        fps.append(24.0)
        for k in range(0, n, every_k):
            e_ref.append(f"y4m-{i:06d}")
            e_idx.append(k)
            e_lu.append(int(frames[k].astype(np.int64).sum()) / float(h * w))
    pq.write_table(
        pa.table(
            {
                "frame_ref": pa.array(refs, pa.string()),
                "data": pa.array(datas, pa.binary()),
                "width": pa.array(ws, pa.int32()),
                "height": pa.array(hs, pa.int32()),
                "n_frames": pa.array(nf, pa.int32()),
                "fps": pa.array(fps, pa.float32()),
            }
        ),
        os.path.join(d, "payload.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "frame_ref": pa.array(e_ref, pa.string()),
                "frame_idx": pa.array(e_idx, pa.int32()),
                "mean_luma": pa.array(e_lu, pa.float64()),
            }
        ),
        os.path.join(d, "expected.parquet"),
    )
    with open(os.path.join(d, "_SUCCESS"), "w") as f:
        f.write("ok")
    return d


# ---------------------------------------------------- IMA-ADPCM payloads
#
# A COMPRESSED audio format exercised end to end in-sandbox, with no
# codec library.  The encoder and the reference decoder here are
# independent plain per-sample Python loops (the generator-knowledge
# oracle discipline); the engine decodes the same bytes with the
# block-vectorized numpy decoder in stages/multimodal.py.  ADPCM is
# LOSSY, so expected features are computed from the REFERENCE-DECODED
# samples — two independent implementations of an integer-exact codec
# must agree bit-for-bit, which the fixture asserts at synthesis time.

_IMA_STEPS = [
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37,
    41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173,
    190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658,
    724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
    2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894,
    6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289,
    16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
]
_IMA_IDX = [-1, -1, -1, -1, 2, 4, 6, 8]


def _ima_decode_nibble(n: int, pred: int, index: int) -> tuple[int, int]:
    """One reference decode step -> (new_pred, new_index); shared by the
    encoder (which must track decoder state) and the reference decoder."""
    step = _IMA_STEPS[index]
    diff = step >> 3
    if n & 1:
        diff += step >> 2
    if n & 2:
        diff += step >> 1
    if n & 4:
        diff += step
    pred = pred - diff if n & 8 else pred + diff
    pred = max(-32768, min(32767, pred))
    index = max(0, min(88, index + _IMA_IDX[n & 7]))
    return pred, index


def ima_adpcm_encode_wav(
    samples: np.ndarray, rate: int, block_align: int = 256
) -> bytes:
    """Encode int16 mono samples as an IMA-ADPCM WAV (format tag 0x11),
    plain per-sample reference loop.  Final partial block is zero-nibble
    padded; the fact chunk records the true sample count."""
    spb = (block_align - 4) * 2 + 1
    s = [int(v) for v in samples]
    blocks = []
    index = 0
    pos = 0
    while pos < len(s):
        chunk = s[pos : pos + spb]
        pos += spb
        pred = chunk[0]
        hdr = pred & 0xFFFF
        blk = bytes([hdr & 0xFF, hdr >> 8, index, 0])
        nibs = []
        for v in chunk[1:]:
            step = _IMA_STEPS[index]
            delta = v - pred
            n = 8 if delta < 0 else 0
            delta = abs(delta)
            if delta >= step:
                n |= 4
                delta -= step
            if delta >= step >> 1:
                n |= 2
                delta -= step >> 1
            if delta >= step >> 2:
                n |= 1
            nibs.append(n)
            pred, index = _ima_decode_nibble(n, pred, index)
        nibs += [0] * ((block_align - 4) * 2 - len(nibs))  # pad last block
        for a, b in zip(nibs[0::2], nibs[1::2]):
            blk += bytes([(b << 4) | a])
        blocks.append(blk)
    data = b"".join(blocks)
    byte_rate = rate * block_align // spb
    fmt = (
        (0x11).to_bytes(2, "little")
        + (1).to_bytes(2, "little")
        + rate.to_bytes(4, "little")
        + byte_rate.to_bytes(4, "little")
        + block_align.to_bytes(2, "little")
        + (4).to_bytes(2, "little")
        + (2).to_bytes(2, "little")
        + spb.to_bytes(2, "little")
    )
    fact = len(s).to_bytes(4, "little")
    body = (
        b"WAVE"
        + b"fmt " + len(fmt).to_bytes(4, "little") + fmt
        + b"fact" + len(fact).to_bytes(4, "little") + fact
        + b"data" + len(data).to_bytes(4, "little") + data
    )
    return b"RIFF" + len(body).to_bytes(4, "little") + body


def ima_adpcm_reference_decode(data: bytes) -> np.ndarray:
    """Plain per-sample reference decoder (independent of the engine's
    vectorized one): walks blocks and nibbles one by one."""
    from ..stages.multimodal import _wav_chunks

    ch = _wav_chunks(data)
    fmt = ch["fmt "]
    block_align = int.from_bytes(fmt[12:14], "little")
    spb = (block_align - 4) * 2 + 1
    n_samples = int.from_bytes(ch["fact"][:4], "little")
    raw = ch["data"]
    out = []
    for bpos in range(0, len(raw) - block_align + 1, block_align):
        blk = raw[bpos : bpos + block_align]
        pred = int.from_bytes(blk[0:2], "little", signed=True)
        index = max(0, min(88, blk[2]))
        out.append(pred)
        for byte in blk[4:]:
            for n in (byte & 0x0F, byte >> 4):
                pred, index = _ima_decode_nibble(n, pred, index)
                out.append(pred)
    return np.asarray(out[:n_samples], dtype=np.int32)


def synth_adpcm_audio_parquet(
    n_rows: int, seed: int = 42, window: int = 1024, hop: int = 512
) -> str:
    """Dir with payload.parquet (IMA-ADPCM WAV rows, same schema as the
    PCM fixture) + expected.parquet computed from the REFERENCE-decoded
    samples.  Smooth random-walk signals (ADPCM's design regime) rather
    than white noise, so the codec is exercised over its whole step
    table instead of saturating at the top steps."""
    d = _real_dir("adpcm_audio", n_rows, seed)
    if os.path.exists(os.path.join(d, "_SUCCESS")):
        return d
    os.makedirs(d, exist_ok=True)
    from ..stages.multimodal import adpcm_wav_decode

    refs, datas, rates, lens = [], [], [], []
    e_ref, e_idx, e_en, e_zc = [], [], [], []
    for i in range(n_rows):
        rng = np.random.default_rng((seed << 20) + i)
        n = int(rng.integers(2048, 8192))
        steps = rng.integers(-2048, 2049, size=n, dtype=np.int64)
        samples = np.clip(np.cumsum(steps), -32768, 32767).astype(np.int64)
        data = ima_adpcm_encode_wav(samples, 16000)
        # the two independent decoders must agree bit-for-bit
        ref_dec = ima_adpcm_reference_decode(data).astype(np.int64)
        eng_dec, eng_rate = adpcm_wav_decode(data)
        assert eng_rate == 16000 and np.array_equal(
            ref_dec, eng_dec.astype(np.int64)
        ), f"ADPCM decoder divergence on row {i}"
        refs.append(f"adp-{i:06d}")
        datas.append(data)
        rates.append(16000)
        lens.append(n)
        # expected features from the reference-decoded (lossy) samples
        k = 0
        while k * hop + window <= n:
            win = ref_dec[k * hop : k * hop + window]
            e_ref.append(f"adp-{i:06d}")
            e_idx.append(k)
            e_en.append(int((win * win).sum()) / float(1 << 30))
            neg = win < 0
            e_zc.append(int((neg[1:] != neg[:-1]).sum()) / window)
            k += 1
    pq.write_table(
        pa.table(
            {
                "sample_ref": pa.array(refs, pa.string()),
                "data": pa.array(datas, pa.binary()),
                "sample_rate": pa.array(rates, pa.int32()),
                "n_samples": pa.array(lens, pa.int32()),
            }
        ),
        os.path.join(d, "payload.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "sample_ref": pa.array(e_ref, pa.string()),
                "window_idx": pa.array(e_idx, pa.int32()),
                "energy": pa.array(e_en, pa.float64()),
                "zcr": pa.array(e_zc, pa.float64()),
            }
        ),
        os.path.join(d, "expected.parquet"),
    )
    with open(os.path.join(d, "_SUCCESS"), "w") as f:
        f.write("ok")
    return d


# ------------------------------------------------- G.711 mu-law payloads
#
# Second native compressed codec (after IMA-ADPCM): stateless 8-bit
# logarithmic PCM, WAV format tag 0x07.  Same oracle discipline: the
# encoder and reference decoder here are independent per-sample loops;
# the engine decodes the same bytes with one table gather
# (stages/multimodal.py MULAW_TABLE), and the fixture asserts the two
# decoders agree bit-for-bit at synthesis time.  mu-law is LOSSY, so
# expected features come from the reference-DECODED samples.

_MULAW_CLIP = 32635
_MULAW_BIAS = 0x84


def _mulaw_encode_sample(v: int) -> int:
    """One G.711 compression step (reference loop form)."""
    sign = 0x80 if v < 0 else 0
    v = min(abs(v), _MULAW_CLIP) + _MULAW_BIAS
    exponent = 7
    mask = 0x4000
    while exponent > 0 and not (v & mask):
        exponent -= 1
        mask >>= 1
    mantissa = (v >> (exponent + 3)) & 0x0F
    return (~(sign | (exponent << 4) | mantissa)) & 0xFF


def mulaw_encode_wav(samples: np.ndarray, rate: int) -> bytes:
    """Encode int16 mono samples as a G.711 mu-law WAV (format tag
    0x07, 8 bits/sample), plain per-sample reference loop."""
    data = bytes(_mulaw_encode_sample(int(v)) for v in samples)
    fmt = (
        (0x07).to_bytes(2, "little")
        + (1).to_bytes(2, "little")
        + rate.to_bytes(4, "little")
        + rate.to_bytes(4, "little")  # byte rate == sample rate at 8 bits
        + (1).to_bytes(2, "little")  # block align
        + (8).to_bytes(2, "little")  # bits per sample
    )
    fact = len(data).to_bytes(4, "little")
    body = (
        b"WAVE"
        + b"fmt " + len(fmt).to_bytes(4, "little") + fmt
        + b"fact" + len(fact).to_bytes(4, "little") + fact
        + b"data" + len(data).to_bytes(4, "little") + data
    )
    return b"RIFF" + len(body).to_bytes(4, "little") + body


def mulaw_reference_decode(data: bytes) -> np.ndarray:
    """Per-sample reference expansion (independent of the engine's table
    gather): the G.711 formula applied byte by byte."""
    from ..stages.multimodal import _wav_chunks

    raw = _wav_chunks(data)["data"]
    out = []
    for byte in raw:
        u = (~byte) & 0xFF
        sign = u & 0x80
        exponent = (u >> 4) & 0x07
        mantissa = u & 0x0F
        t = (((mantissa << 3) + _MULAW_BIAS) << exponent) - _MULAW_BIAS
        out.append(-t if sign else t)
    return np.asarray(out, dtype=np.int32)


def synth_mulaw_audio_parquet(
    n_rows: int, seed: int = 42, window: int = 1024, hop: int = 512
) -> str:
    """Dir with payload.parquet (mu-law WAV rows, PCM-fixture schema) +
    expected.parquet from the REFERENCE-decoded samples.  Mixed-scale
    signals (quiet + loud segments) so the logarithmic segments are all
    exercised."""
    d = _real_dir("mulaw_audio", n_rows, seed)
    if os.path.exists(os.path.join(d, "_SUCCESS")):
        return d
    os.makedirs(d, exist_ok=True)
    from ..stages.multimodal import mulaw_wav_decode

    refs, datas, rates, lens = [], [], [], []
    e_ref, e_idx, e_en, e_zc = [], [], [], []
    for i in range(n_rows):
        rng = np.random.default_rng((seed << 21) + i)
        n = int(rng.integers(2048, 8192))
        # amplitude sweeps across the mu-law segment range
        amp = np.exp(rng.uniform(np.log(16), np.log(24000), size=n))
        samples = np.clip(
            (amp * rng.choice([-1.0, 1.0], size=n)
             * np.abs(np.sin(np.arange(n) / 50.0))).astype(np.int64),
            -32768, 32767,
        )
        data = mulaw_encode_wav(samples, 8000)
        ref_dec = mulaw_reference_decode(data).astype(np.int64)
        eng_dec, eng_rate = mulaw_wav_decode(data)
        assert eng_rate == 8000 and np.array_equal(
            ref_dec, eng_dec.astype(np.int64)
        ), f"mu-law decoder divergence on row {i}"
        refs.append(f"ulaw-{i:06d}")
        datas.append(data)
        rates.append(8000)
        lens.append(n)
        k = 0
        while k * hop + window <= n:
            win = ref_dec[k * hop : k * hop + window]
            e_ref.append(f"ulaw-{i:06d}")
            e_idx.append(k)
            e_en.append(int((win * win).sum()) / float(1 << 30))
            neg = win < 0
            e_zc.append(int((neg[1:] != neg[:-1]).sum()) / window)
            k += 1
    pq.write_table(
        pa.table(
            {
                "sample_ref": pa.array(refs, pa.string()),
                "data": pa.array(datas, pa.binary()),
                "sample_rate": pa.array(rates, pa.int32()),
                "n_samples": pa.array(lens, pa.int32()),
            }
        ),
        os.path.join(d, "payload.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "sample_ref": pa.array(e_ref, pa.string()),
                "window_idx": pa.array(e_idx, pa.int32()),
                "energy": pa.array(e_en, pa.float64()),
                "zcr": pa.array(e_zc, pa.float64()),
            }
        ),
        os.path.join(d, "expected.parquet"),
    )
    with open(os.path.join(d, "_SUCCESS"), "w") as f:
        f.write("ok")
    return d
