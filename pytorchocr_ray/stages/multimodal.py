"""Multimodal columns: opaque binary payloads + typed metadata as warm-stage
map_batches stages (:func:`~.warm.map_stage`).

Images are first-class in this engine (PNG codec + OCR). For audio/video
each stage takes a ``decoder=`` injection point with two implementations:
the default deterministic fake decoder (SQL-verifiable, below), and REAL
decoders — 16-bit PCM WAV via the stdlib ``wave`` module and
YUV4MPEG2 raw video via pure numpy, with soundfile / PyAV import-tried
first for compressed formats. Compressed payloads without those optional
libs raise a clearly-marked ``NotImplementedError``.

The fake decoders are SQL-EXPRESSIBLE — a 31-bit LCG stream
seeded from the payload's first 8 bytes, quantized to int16 PCM / uint8
luma — and every feature is an exact integer sum divided once, so the
driver's DuckDB oracle reproduces the outputs bit-for-bit (the synthetic
tables also carry the derived ``seed`` column so SQL can join it; the
ENGINE always derives the seed from the payload bytes).

Schemas:
  audio(sample_ref: string, data: binary, sample_rate: int32,
        n_samples: int32, seed: int64)
  video(frame_ref: string, data: binary, width: int32, height: int32,
        n_frames: int32, fps: float32, seed: int64)

Stages:
  * :class:`AudioFeatureStage` — decode -> frame into windows -> per-window
    (energy, zero-crossing-rate) feature columns
  * :class:`VideoFrameSampleStage` — decode -> sample every k-th frame ->
    one output row per sampled frame with its mean luma
Both follow the same warm-stage shape as OcrStage: config once in
__init__, vectorized numpy per batch, small batch sizes for fat rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

M31 = 2147483647
LCG_A = 1103515245
LCG_C = 12345
AUDIO_WINDOW = 1024
AUDIO_HOP = 512
ENERGY_SCALE = float(1 << 30)


def payload_seed(data: bytes) -> int:
    """First 8 payload bytes (LE uint64) reduced mod 2^31-1 — the fake
    decoders' stream seed; the synth tables store the same value so the
    SQL oracle can reproduce the stream without byte surgery."""
    return int(
        np.frombuffer(data[:8].ljust(8, b"\0"), dtype=np.uint64)[0]
        % np.uint64(M31)
    )


def _lcg_stream(seed: int, n: int) -> np.ndarray:
    """x_i = (seed*A + i*C) mod M31 — exact in uint64 AND in BIGINT SQL."""
    i = np.arange(n, dtype=np.uint64)
    return (np.uint64(seed) * np.uint64(LCG_A) + i * np.uint64(LCG_C)) % np.uint64(M31)


def fake_audio_decode(data: bytes, n_samples: int, sample_rate: int) -> np.ndarray:
    """STUB decoder (no audio libs in this container): deterministic int16
    PCM derived from the payload bytes — replace with soundfile/ffmpeg when
    available. Output contract: int32 array in [-32768, 32767]."""
    if not data:
        raise NotImplementedError(
            "real audio decoding requires an audio library not present in "
            "this container; empty payloads cannot be faked"
        )
    x = _lcg_stream(payload_seed(data), n_samples)
    return ((x % np.uint64(65536)).astype(np.int64) - 32768).astype(np.int32)


def fake_video_decode(
    data: bytes, n_frames: int, height: int, width: int
) -> np.ndarray:
    """STUB decoder: deterministic uint8 (n_frames, H, W) luma planes derived
    from the payload bytes — replace with PyAV/ffmpeg when available."""
    if not data:
        raise NotImplementedError(
            "real video decoding requires a video library not present in "
            "this container; empty payloads cannot be faked"
        )
    x = _lcg_stream(payload_seed(data), n_frames * height * width)
    return (x % np.uint64(256)).astype(np.uint8).reshape(n_frames, height, width)


# --------------------------------------------------------- real decoders
#
# The stages also process REAL payloads. Container-native paths first —
# 16-bit PCM WAV via the stdlib ``wave`` module and YUV4MPEG2 (y4m) raw
# video via pure numpy — with soundfile / PyAV import-tried for compressed
# formats when present. The LCG stubs remain the default for the
# SQL-verified synthetic tables.


def wav_pcm_decode(data: bytes) -> tuple[np.ndarray, int]:
    """Decode a 16-bit PCM (mono or first-channel) WAV -> (int32 samples,
    sample_rate). Pure stdlib — no optional deps."""
    import io
    import wave

    with wave.open(io.BytesIO(data), "rb") as w:
        if w.getsampwidth() != 2:
            raise NotImplementedError(
                f"only 16-bit PCM WAV supported, got sampwidth={w.getsampwidth()}"
            )
        raw = w.readframes(w.getnframes())
        x = np.frombuffer(raw, dtype="<i2").astype(np.int32)
        nch = w.getnchannels()
        if nch > 1:
            x = x[::nch]  # first channel
        return x, w.getframerate()


# ------------------------------------------------ IMA-ADPCM WAV decode
#
# One COMPRESSED audio format runs end to end without optional libraries
# (instead of an import-skip).  IMA (DVI) ADPCM is the
# classic 4:1 speech codec (WAV format tag 0x11): 4-bit nibbles, a
# step-size state machine, integer-exact and fully specified — so a
# pure-numpy decoder needs no native deps and agrees bit-for-bit with
# any conforming implementation.  The hot loop is sequential in the
# SAMPLE dimension (the predictor is a running state) but VECTORIZED
# ACROSS BLOCKS: every block carries its own (predictor, index) header,
# so a payload of B blocks decodes in samples_per_block numpy steps of
# width B, not B*samples_per_block Python steps.

IMA_STEP_TABLE = np.array(
    [7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37,
     41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173,
     190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658,
     724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
     2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894,
     6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289,
     16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767],
    dtype=np.int64,
)
IMA_INDEX_TABLE = np.array([-1, -1, -1, -1, 2, 4, 6, 8], dtype=np.int64)


def _wav_chunks(data: bytes) -> dict[str, bytes]:
    """Minimal RIFF/WAVE chunk walk (the stdlib ``wave`` module rejects
    non-PCM compression types, so ADPCM needs its own parser)."""
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    out: dict[str, bytes] = {}
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4].decode("latin-1")
        size = int.from_bytes(data[pos + 4 : pos + 8], "little")
        out[cid] = data[pos + 8 : pos + 8 + size]
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    return out


def adpcm_wav_decode(data: bytes) -> tuple[np.ndarray, int]:
    """Decode a mono IMA-ADPCM WAV (format tag 0x11) -> (int32 samples,
    sample_rate). Pure numpy, block-vectorized (see the section note)."""
    ch = _wav_chunks(data)
    fmt = ch["fmt "]
    tag = int.from_bytes(fmt[0:2], "little")
    if tag != 0x11:
        raise NotImplementedError(f"adpcm_wav_decode: format tag {tag:#x}")
    n_channels = int.from_bytes(fmt[2:4], "little")
    if n_channels != 1:
        raise NotImplementedError("only mono IMA-ADPCM supported")
    rate = int.from_bytes(fmt[4:8], "little")
    block_align = int.from_bytes(fmt[12:14], "little")
    spb = (block_align - 4) * 2 + 1  # samples per block
    n_samples = (
        int.from_bytes(ch["fact"][:4], "little") if "fact" in ch else None
    )
    raw = ch["data"]
    nb = len(raw) // block_align
    blocks = np.frombuffer(raw[: nb * block_align], dtype=np.uint8).reshape(
        nb, block_align
    )
    pred = (
        blocks[:, 0].astype(np.int64) | (blocks[:, 1].astype(np.int64) << 8)
    )
    pred = np.where(pred >= 32768, pred - 65536, pred)  # int16 header
    index = np.clip(blocks[:, 2].astype(np.int64), 0, 88)
    payload = blocks[:, 4:]
    # nibble order: low nibble of each byte first, then high
    nib = np.empty((nb, (block_align - 4) * 2), dtype=np.int64)
    nib[:, 0::2] = payload & 0x0F
    nib[:, 1::2] = payload >> 4
    out = np.empty((nb, spb), dtype=np.int64)
    out[:, 0] = pred
    for j in range(spb - 1):
        n = nib[:, j]
        step = IMA_STEP_TABLE[index]
        diff = (
            (step >> 3)
            + np.where(n & 1, step >> 2, 0)
            + np.where(n & 2, step >> 1, 0)
            + np.where(n & 4, step, 0)
        )
        pred = np.clip(
            pred + np.where(n & 8, -diff, diff), -32768, 32767
        )
        index = np.clip(index + IMA_INDEX_TABLE[n & 7], 0, 88)
        out[:, j + 1] = pred
    flat = out.reshape(-1)
    if n_samples is not None:
        flat = flat[:n_samples]  # fact chunk trims the padded final block
    return flat.astype(np.int32), rate


# -------------------------------------------------- G.711 mu-law decode
#
# The second natively-decoded compressed audio format (after IMA-ADPCM):
# 8-bit logarithmic PCM (WAV format tag 0x07, 2:1 vs int16).  Stateless
# per byte, so the engine decode is ONE 256-entry table gather — the
# table is built from the G.711 expansion formula at import time and the
# synth fixture asserts it agrees byte-for-byte with an independent
# per-sample reference loop.

_MULAW_BIAS = 0x84


def _build_mulaw_table() -> np.ndarray:
    u = np.arange(256, dtype=np.int64) ^ 0xFF  # G.711 bytes are inverted
    sign = u & 0x80
    exponent = (u >> 4) & 0x07
    mantissa = u & 0x0F
    t = (((mantissa << 3) + _MULAW_BIAS) << exponent) - _MULAW_BIAS
    return np.where(sign != 0, -t, t).astype(np.int32)


MULAW_TABLE = _build_mulaw_table()


def mulaw_wav_decode(data: bytes) -> tuple[np.ndarray, int]:
    """Decode a mono G.711 mu-law WAV (format tag 0x07) -> (int32
    samples, sample_rate).  One vectorized table gather."""
    ch = _wav_chunks(data)
    fmt = ch["fmt "]
    tag = int.from_bytes(fmt[0:2], "little")
    if tag != 0x07:
        raise NotImplementedError(f"mulaw_wav_decode: format tag {tag:#x}")
    if int.from_bytes(fmt[2:4], "little") != 1:
        raise NotImplementedError("only mono mu-law supported")
    rate = int.from_bytes(fmt[4:8], "little")
    raw = np.frombuffer(ch["data"], dtype=np.uint8)
    n_samples = (
        int.from_bytes(ch["fact"][:4], "little") if "fact" in ch else None
    )
    out = MULAW_TABLE[raw]
    if n_samples is not None:
        out = out[:n_samples]
    return out, rate


def real_audio_decode(data: bytes, n_samples: int, sample_rate: int) -> np.ndarray:
    """Decoder for real audio payloads, drop-in for ``fake_audio_decode``
    (same signature, so ``audio_features(ds, decoder=real_audio_decode)``).

    soundfile (if installed) -> PCM or IMA-ADPCM WAV natively ->
    NotImplementedError.  The row's declared (n_samples, sample_rate)
    metadata is validated against the decoded stream — a mismatch is
    data corruption, not a decode failure."""
    out = sr = None
    try:
        import soundfile  # optional dep, absent in this container

        import io

        arr, sr = soundfile.read(io.BytesIO(data), dtype="int16")
        arr = np.asarray(arr, dtype=np.int32)
        out = arr[:, 0] if arr.ndim > 1 else arr
    except ImportError:
        if data[:4] == b"RIFF" and data[8:12] == b"WAVE":
            fmt = _wav_chunks(data).get("fmt ", b"\x01\x00")
            tag = int.from_bytes(fmt[0:2], "little")
            if tag == 0x11:
                out, sr = adpcm_wav_decode(data)
            elif tag == 0x07:
                out, sr = mulaw_wav_decode(data)
            else:
                out, sr = wav_pcm_decode(data)
        else:
            raise NotImplementedError(
                "compressed audio needs soundfile/ffmpeg (not in this "
                "container); PCM, IMA-ADPCM and G.711 mu-law WAV decode "
                "natively"
            )
    if len(out) != n_samples or sr != sample_rate:
        raise ValueError(
            f"metadata mismatch: declared ({n_samples} samples @ {sample_rate} Hz), "
            f"decoded ({len(out)} @ {sr})"
        )
    return out


def y4m_decode(data: bytes) -> tuple[np.ndarray, int, float]:
    """Decode a YUV4MPEG2 stream's luma planes -> (uint8 (n, H, W) array,
    n_frames, fps). Pure numpy; C420*/C422/C444/Cmono subsampling (only
    the Y plane is kept — the stage consumes luma)."""
    if not data.startswith(b"YUV4MPEG2"):
        raise NotImplementedError("not a YUV4MPEG2 stream")
    hdr_end = data.index(b"\n")
    w = h = 0
    fps = 0.0
    chroma = "420"
    for tok in data[9:hdr_end].split():
        tag, val = chr(tok[0]), tok[1:].decode()
        if tag == "W":
            w = int(val)
        elif tag == "H":
            h = int(val)
        elif tag == "F":
            num, den = val.split(":")
            fps = int(num) / int(den)
        elif tag == "C":
            chroma = val
    if not (w and h):
        raise ValueError("y4m header missing W/H")
    ysize = w * h
    csize = {
        "mono": 0,
        "420": ysize // 2,
        "420jpeg": ysize // 2,
        "420mpeg2": ysize // 2,
        "420paldv": ysize // 2,
        "422": ysize,
        "444": 2 * ysize,
    }.get(chroma)
    if csize is None:
        raise NotImplementedError(f"y4m chroma mode {chroma!r}")
    frames = []
    pos = hdr_end + 1
    while pos < len(data):
        fhdr_end = data.index(b"\n", pos)
        if data[pos : pos + 5] != b"FRAME":
            raise ValueError(f"bad y4m frame marker at byte {pos}")
        pos = fhdr_end + 1
        frames.append(
            np.frombuffer(data, dtype=np.uint8, count=ysize, offset=pos).reshape(h, w)
        )
        pos += ysize + csize
    return np.stack(frames), len(frames), fps


def real_video_decode(data: bytes, n_frames: int, height: int, width: int) -> np.ndarray:
    """Decoder for real video payloads, drop-in for ``fake_video_decode``.
    PyAV (if installed) -> YUV4MPEG2 via numpy -> NotImplementedError."""
    try:
        import av  # optional dep, absent in this container

        import io

        planes = []
        with av.open(io.BytesIO(data)) as container:
            for frame in container.decode(video=0):
                planes.append(frame.to_ndarray(format="gray"))
        out = np.stack(planes)
    except ImportError:
        out, _n, _fps = y4m_decode(data)
    if out.shape != (n_frames, height, width):
        raise ValueError(
            f"metadata mismatch: declared {(n_frames, height, width)}, "
            f"decoded {out.shape}"
        )
    return out


class AudioFeatureStage:
    """audio rows -> (sample_ref, window_idx, energy, zcr).

    energy = sum(q^2) / 2^30 (exact integer sum, one exact power-of-two
    division); zcr = sign changes / window — the shape a real fbank/MFCC
    front end would have, numerically reproducible by the SQL oracle.
    """

    def __init__(self, window: int = AUDIO_WINDOW, hop: int = AUDIO_HOP,
                 decoder=fake_audio_decode):
        self.window = window
        self.hop = hop
        self.decoder = decoder

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs, widx, energy, zcr = [], [], [], []
        for ref, data, sr, n in zip(
            batch["sample_ref"].to_pylist(),
            batch["data"].to_pylist(),
            batch["sample_rate"].to_pylist(),
            batch["n_samples"].to_pylist(),
        ):
            q = self.decoder(data, n, sr).astype(np.int64)
            if len(q) < self.window:
                continue
            n_win = 1 + (len(q) - self.window) // self.hop
            idx = (
                np.arange(self.window)[None, :]
                + self.hop * np.arange(n_win)[:, None]
            )
            wins = q[idx]  # (n_win, window), vectorized framing
            e = (wins * wins).sum(axis=1)  # exact int64 (< 2^40)
            neg = wins < 0
            zc = (neg[:, 1:] != neg[:, :-1]).sum(axis=1)
            refs.extend([ref] * n_win)
            widx.extend(range(n_win))
            energy.extend((e / ENERGY_SCALE).tolist())
            zcr.extend((zc / self.window).tolist())
        return pa.table(
            {
                "sample_ref": pa.array(refs, pa.string()),
                "window_idx": pa.array(widx, pa.int32()),
                "energy": pa.array(energy, pa.float64()),
                "zcr": pa.array(zcr, pa.float64()),
            }
        )


class VideoFrameSampleStage:
    """video rows -> (frame_ref, frame_idx, mean_luma) for every k-th frame."""

    def __init__(self, every_k: int = 5, decoder=fake_video_decode):
        self.every_k = every_k
        self.decoder = decoder

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs, fidx, luma = [], [], []
        for ref, data, w, h, n in zip(
            batch["frame_ref"].to_pylist(),
            batch["data"].to_pylist(),
            batch["width"].to_pylist(),
            batch["height"].to_pylist(),
            batch["n_frames"].to_pylist(),
        ):
            frames = self.decoder(data, n, h, w)
            sel = np.arange(0, n, self.every_k)
            sums = frames[sel].astype(np.int64).sum(axis=(1, 2))  # exact
            means = sums / float(h * w)  # one exact-input division
            refs.extend([ref] * len(sel))
            fidx.extend(sel.tolist())
            luma.extend(means.tolist())
        return pa.table(
            {
                "frame_ref": pa.array(refs, pa.string()),
                "frame_idx": pa.array(fidx, pa.int32()),
                "mean_luma": pa.array(luma, pa.float64()),
            }
        )


def audio_features(
    ds, concurrency: int | None = None, batch_size: int = 8, **params
):
    """Binary payload stage: small batch_size on purpose (fat rows), on
    ``concurrency`` workers (:func:`~.warm.map_stage`)."""
    from .warm import map_stage

    return map_stage(ds, AudioFeatureStage, params, batch_size=batch_size,
                     concurrency=concurrency)


def video_frame_samples(
    ds, concurrency: int | None = None, batch_size: int = 4, **params
):
    from .warm import map_stage

    return map_stage(ds, VideoFrameSampleStage, params, batch_size=batch_size,
                     concurrency=concurrency)


# ----------------------------------------------------------------- SQL twins

def audio_features_sql(parquet_path: str, window: int = AUDIO_WINDOW,
                       hop: int = AUDIO_HOP) -> str:
    """DuckDB twin of AudioFeatureStage over the written synth table:
    regenerates the LCG stream from the stored seed, frames the overlapping
    windows, and reproduces the exact integer sums.

    Window membership is enumerated generally (a fixed
    ``[i//hop, i//hop-1]`` list is only correct for window == 2*hop):
    sample i can belong to windows k in [i//hop - ceil(window/hop) + 1,
    i//hop]; the wf filter keeps exactly those with
    k*hop <= i < k*hop + window."""
    n_cand = -(-window // hop)  # ceil(window/hop) candidate windows/sample
    members = ", ".join(f"i // {hop} - {j}" for j in range(n_cand))
    return f"""
WITH a AS (SELECT sample_ref, n_samples, seed
           FROM read_parquet('{parquet_path}')
           WHERE n_samples >= {window}),
s AS (SELECT sample_ref, n_samples, seed, unnest(range(n_samples)) AS i FROM a),
q AS (SELECT sample_ref, n_samples, i,
             ((seed * {LCG_A} + i * {LCG_C}) % {M31}) % 65536 - 32768 AS qv
      FROM s),
w AS (SELECT sample_ref, n_samples, i, qv,
             unnest([{members}]) AS k
      FROM q),
wf AS (SELECT * FROM w
       WHERE k >= 0 AND k <= (n_samples - {window}) // {hop}
         AND i >= k * {hop} AND i < k * {hop} + {window}),
z AS (SELECT sample_ref, k, qv,
             CASE WHEN lag(qv) OVER win IS NOT NULL
                   AND (qv < 0) != (lag(qv) OVER win < 0)
                  THEN 1 ELSE 0 END AS zc
      FROM wf WINDOW win AS (PARTITION BY sample_ref, k ORDER BY i))
SELECT sample_ref, CAST(k AS INT) AS window_idx,
       CAST(sum(qv * qv) AS DOUBLE) / {int(ENERGY_SCALE)} AS energy,
       CAST(sum(zc) AS DOUBLE) / {window} AS zcr
FROM z GROUP BY sample_ref, k
"""


def video_frames_sql(parquet_path: str, every_k: int = 5) -> str:
    return f"""
WITH v AS (SELECT frame_ref, width, height, n_frames, seed
           FROM read_parquet('{parquet_path}')),
f AS (SELECT frame_ref, width, height, seed,
             unnest(range(0, n_frames, {every_k})) AS fi
      FROM v),
px AS (SELECT frame_ref, fi, seed,
              fi * width * height + unnest(range(width * height)) AS p,
              width * height AS npx
       FROM f)
SELECT frame_ref, CAST(fi AS INT) AS frame_idx,
       CAST(sum(((seed * {LCG_A} + p * {LCG_C}) % {M31}) % 256) AS DOUBLE)
         / (max(npx)) AS mean_luma
FROM px GROUP BY frame_ref, fi
"""
