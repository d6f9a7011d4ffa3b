"""Multimodal (image/audio/video) stages.

Each stage is a plain ``pa.Table -> pa.Table`` function over a binary
``payload`` column, run as a stateless Ray Data task map
(``map_batches(fn, batch_format="pyarrow")``) that fuses with the read
and the maps around it. No image/audio codec library is a dependency,
so the stages do the decode work that pure Python + NumPy can do:

* images — format sniff + dimensions parsed from the actual bytes
  (PNG IHDR, GIF logical screen, BMP info header, JPEG SOFn marker
  walk);
* PNG pixels — IDAT inflate + scanline unfilter;
* audio — WAV/RIFF fmt-chunk parse (channels, sample rate, sample
  count);
* video — minimal MP4 box walk to the ``stsz`` sample table for the
  real frame count.

Formats the parsers don't recognize fall back to a deterministic
content-hash fake (flagged in the output), so pipelines stay total.
Blob access is via Arrow binary buffers + offsets.
"""

from __future__ import annotations

import hashlib
import struct
import zlib

import numpy as np
import pyarrow as pa


def _binary_buffers(col: pa.ChunkedArray | pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(data bytes, offsets) views of a binary/large_binary column."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_large_binary(col.type) or pa.types.is_large_string(col.type):
        odt = np.int64
    else:
        odt = np.int32
    bufs = col.buffers()
    off = np.frombuffer(bufs[1], dtype=odt)[col.offset: col.offset + len(col) + 1]
    data = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None else np.empty(0, np.uint8)
    return data, off.astype(np.int64)


def _be32(data: np.ndarray, pos: np.ndarray) -> np.ndarray:
    return (
        data[pos].astype(np.int64) << 24
    ) | (data[pos + 1].astype(np.int64) << 16) | (
        data[pos + 2].astype(np.int64) << 8
    ) | data[pos + 3].astype(np.int64)


def _le16(data: np.ndarray, pos: np.ndarray) -> np.ndarray:
    return data[pos].astype(np.int64) | (data[pos + 1].astype(np.int64) << 8)


def _le32(data: np.ndarray, pos: np.ndarray) -> np.ndarray:
    return (
        data[pos].astype(np.int64)
        | (data[pos + 1].astype(np.int64) << 8)
        | (data[pos + 2].astype(np.int64) << 16)
        | (data[pos + 3].astype(np.int64) << 24)
    )


def _sig_match(data, starts, lens, sig: bytes, at: int = 0) -> np.ndarray:
    """Vectorized 'blob[at:at+len(sig)] == sig' across the batch."""
    ok = lens >= at + len(sig)
    m = ok.copy()
    p = starts + at
    for j, b in enumerate(sig):
        mj = m.copy()
        mj[ok] &= data[p[ok] + j] == b
        m = mj
    return m


def parse_image_dims(data: np.ndarray, off: np.ndarray):
    """Vectorized header parse: returns (height, width, channels,
    format_code) int64 arrays; format 0=unknown 1=png 2=gif 3=bmp
    4=jpeg. Unknown entries keep -1 dims."""
    n = len(off) - 1
    starts = off[:-1]
    lens = np.diff(off)
    h = np.full(n, -1, dtype=np.int64)
    w = np.full(n, -1, dtype=np.int64)
    c = np.full(n, -1, dtype=np.int64)
    fmt = np.zeros(n, dtype=np.int64)

    # PNG: 8-byte signature, IHDR width/height big-endian at 16/20
    png = _sig_match(data, starts, lens, b"\x89PNG\r\n\x1a\n") & (lens >= 26)
    if png.any():
        p = starts[png]
        w[png] = _be32(data, p + 16)
        h[png] = _be32(data, p + 20)
        # IHDR color type at 25: 0 grey,2 rgb,3 palette,4 grey+a,6 rgba
        ct = data[p + 25].astype(np.int64)
        c[png] = np.choose(np.clip(ct, 0, 6), [1, 1, 3, 1, 2, 1, 4])
        fmt[png] = 1

    # GIF87a/89a: width/height little-endian uint16 at 6/8
    gif = (_sig_match(data, starts, lens, b"GIF87a")
           | _sig_match(data, starts, lens, b"GIF89a")) & (lens >= 10)
    if gif.any():
        p = starts[gif]
        w[gif] = _le16(data, p + 6)
        h[gif] = _le16(data, p + 8)
        c[gif] = 3
        fmt[gif] = 2

    # BMP: 'BM', BITMAPINFOHEADER width/height little-endian int32 at 18/22
    bmp = _sig_match(data, starts, lens, b"BM") & (lens >= 26)
    if bmp.any():
        p = starts[bmp]
        w[bmp] = _le32(data, p + 18)
        h[bmp] = np.abs((_le32(data, p + 22) + (1 << 31)) % (1 << 32) - (1 << 31))
        c[bmp] = 3
        fmt[bmp] = 3

    # JPEG: marker walk to the first SOFn (0xC0-0xCF except C4/C8/CC);
    # dims big-endian at +5 (height) / +7 (width), components at +9.
    jpg = _sig_match(data, starts, lens, b"\xff\xd8") & (lens >= 4) & (fmt == 0)
    for i in np.nonzero(jpg)[0]:
        s, e = int(starts[i]), int(off[i + 1])
        pos = s + 2
        while pos + 9 < e:
            if data[pos] != 0xFF:
                pos += 1
                continue
            marker = int(data[pos + 1])
            if marker == 0xFF:
                pos += 1
                continue
            if 0xD0 <= marker <= 0xD9:  # standalone markers
                pos += 2
                continue
            seglen = (int(data[pos + 2]) << 8) | int(data[pos + 3])
            if 0xC0 <= marker <= 0xCF and marker not in (0xC4, 0xC8, 0xCC):
                h[i] = (int(data[pos + 5]) << 8) | int(data[pos + 6])
                w[i] = (int(data[pos + 7]) << 8) | int(data[pos + 8])
                c[i] = int(data[pos + 9])
                fmt[i] = 4
                break
            pos += 2 + seglen
    return h, w, c, fmt


def _append(batch: pa.Table, cols: dict) -> pa.Table:
    for name, values in cols.items():
        batch = batch.append_column(name, pa.array(values))
    return batch


def image_decode(batch: pa.Table) -> pa.Table:
    """Binary ``payload`` column → (img_h, img_w, img_c, img_format)
    parsed from the real bytes. Unrecognized formats get dims from a
    deterministic content-hash fake and img_format=0 so downstream can
    filter."""
    data, off = _binary_buffers(batch.column("payload"))
    h, w, c, fmt = parse_image_dims(data, off)
    for i in np.nonzero(fmt == 0)[0]:
        d = hashlib.md5(data[off[i]: off[i + 1]].tobytes()).digest()
        h[i], w[i], c[i] = 16 + d[0], 16 + d[1], 3
    return _append(batch, {"img_h": h.astype(np.int32), "img_w": w.astype(np.int32),
                           "img_c": c.astype(np.int32), "img_format": fmt.astype(np.int32)})


def audio_meta(batch: pa.Table) -> pa.Table:
    """Binary ``payload`` column → (audio_channels, audio_rate,
    audio_samples) from the real RIFF/WAVE fmt+data chunks; non-WAV
    blobs get −1s."""
    data, off = _binary_buffers(batch.column("payload"))
    n = batch.num_rows
    ch = np.full(n, -1, dtype=np.int32)
    rate = np.full(n, -1, dtype=np.int32)
    nsamp = np.full(n, -1, dtype=np.int64)
    starts, lens = off[:-1], np.diff(off)
    wav = _sig_match(data, starts, lens, b"RIFF") & _sig_match(
        data, starts, lens, b"WAVE", at=8
    )
    for i in np.nonzero(wav)[0]:
        s, e = int(starts[i]), int(off[i + 1])
        pos = s + 12
        bits = 16
        while pos + 8 <= e:
            cid = data[pos: pos + 4].tobytes()
            clen = int(_le32(data, np.array([pos + 4]))[0])
            body = pos + 8
            if cid == b"fmt " and body + 16 <= e:
                ch[i] = int(_le16(data, np.array([body + 2]))[0])
                rate[i] = int(_le32(data, np.array([body + 4]))[0])
                bits = int(_le16(data, np.array([body + 14]))[0])
            elif cid == b"data" and ch[i] > 0 and bits > 0:
                nsamp[i] = clen // (ch[i] * max(bits // 8, 1))
            pos = body + clen + (clen & 1)
    return _append(batch, {"audio_channels": ch, "audio_rate": rate,
                           "audio_samples": nsamp})


def _mp4_frame_count(data: np.ndarray, s: int, e: int) -> int:
    """Walk MP4 boxes to the first stbl/stsz sample_count (the real
    frame count of the first track). Returns -1 if not found."""
    def walk(lo: int, hi: int, depth: int) -> int:
        pos = lo
        while pos + 8 <= hi and depth < 8:
            size = int(_be32(data, np.array([pos]))[0])
            typ = data[pos + 4: pos + 8].tobytes()
            if size == 1 or size < 8:
                break
            end = min(pos + size, hi)
            if typ in (b"moov", b"trak", b"mdia", b"minf", b"stbl"):
                r = walk(pos + 8, end, depth + 1)
                if r >= 0:
                    return r
            elif typ == b"stsz" and pos + 20 <= hi:
                return int(_be32(data, np.array([pos + 16]))[0])
            pos = end
        return -1

    return walk(s, e, 0)


EVERY_N_FRAMES = 30


def frame_sample(batch: pa.Table) -> pa.Table:
    """Video frame sampling: binary ``payload`` column → every-30th-frame
    (doc_id, frame_idx) rows. MP4 payloads get the REAL frame count
    from the stsz sample table; other containers fall back to a
    deterministic content-hash count. Row explosion is vectorized
    (repeat + concatenated aranges, no per-row appends)."""
    data, off = _binary_buffers(batch.column("payload"))
    n = batch.num_rows
    counts = np.empty(n, dtype=np.int64)
    starts, lens = off[:-1], np.diff(off)
    is_mp4 = _sig_match(data, starts, lens, b"ftyp", at=4)
    for i in range(n):
        s, e = int(off[i]), int(off[i + 1])
        fc = _mp4_frame_count(data, s, e) if is_mp4[i] else -1
        if fc < 0:
            fc = 1 + int(hashlib.md5(data[s:e].tobytes()).digest()[0])
        counts[i] = fc
    n_frames = -(-counts // EVERY_N_FRAMES)  # ceil
    keys = batch.column("doc_id")
    rep_keys = keys.take(pa.array(np.repeat(np.arange(n), n_frames)))
    tot = int(n_frames.sum())
    frame_off = np.zeros(n, dtype=np.int64)
    np.cumsum(n_frames[:-1], out=frame_off[1:])
    within = np.arange(tot, dtype=np.int64) - np.repeat(frame_off, n_frames)
    frames = within * EVERY_N_FRAMES
    return pa.table({
        "doc_id": rep_keys,
        "frame_idx": pa.array(frames.astype(np.int32)),
    })


_PNG_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}  # IHDR colortype -> samples/pixel


def _decode_png(blob: bytes):
    """(h, w, sum of all decoded samples) of one PNG, or −1s."""
    if len(blob) < 45 or blob[:8] != b"\x89PNG\r\n\x1a\n":
        return -1, -1, -1
    w = int.from_bytes(blob[16:20], "big")
    h = int.from_bytes(blob[20:24], "big")
    bitdepth = blob[24]
    ctype = blob[25]
    if bitdepth != 8 or ctype not in _PNG_CHANNELS or not (0 < w and 0 < h):
        return -1, -1, -1
    ch = _PNG_CHANNELS[ctype]
    idat = bytearray()
    pos = 8
    while pos + 8 <= len(blob):
        ln = int.from_bytes(blob[pos:pos + 4], "big")
        tag = blob[pos + 4:pos + 8]
        body = blob[pos + 8:pos + 8 + ln]
        if tag == b"IDAT":
            if zlib.crc32(tag + body) != int.from_bytes(
                    blob[pos + 8 + ln:pos + 12 + ln], "big"):
                return -1, -1, -1
            idat += body
        elif tag == b"IEND":
            break
        pos += 12 + ln
    if not idat:
        return -1, -1, -1
    try:
        raw = np.frombuffer(zlib.decompress(bytes(idat)), np.uint8)
    except zlib.error:
        return -1, -1, -1
    stride = w * ch
    if len(raw) != h * (stride + 1):
        return -1, -1, -1
    lines = raw.reshape(h, stride + 1)
    filt = lines[:, 0]
    px = lines[:, 1:].astype(np.int64)
    # unfilter: Sub is a per-line cumsum over pixel strides; Up is a
    # cumulative pass down the rows (vectorized per filter run)
    if (filt > 2).any():
        return -1, -1, -1
    sub_rows = np.nonzero(filt == 1)[0]
    if len(sub_rows):
        v = px[sub_rows].reshape(len(sub_rows), w, ch)
        px[sub_rows] = (v.cumsum(axis=1) % 256).reshape(len(sub_rows), stride)
    for r in np.nonzero(filt == 2)[0]:
        if r:
            px[r] = (px[r] + px[r - 1]) % 256
    return h, w, int(px.sum())


def png_pixels(batch: pa.Table) -> pa.Table:
    """REAL PNG pixel decode of the binary ``payload`` column: per blob,
    walk the chunk stream, CRC-check and concatenate IDAT,
    zlib-inflate, then unfilter scanlines (filters 0 None / 1 Sub / 2
    Up — the subset a deterministic encoder needs; others raise) with
    NumPy line ops. Emits px_h, px_w (from IHDR) and px_sum (int64 sum
    of all decoded samples). Non-PNG or truncated blobs get −1s.

    The zlib inflate is a per-row C call (DEFLATE streams are
    sequential); everything around it (chunk walk, unfiltering,
    summation) is NumPy."""
    data, off = _binary_buffers(batch.column("payload"))
    n = batch.num_rows
    ph = np.full(n, -1, np.int32)
    pw = np.full(n, -1, np.int32)
    ps = np.full(n, -1, np.int64)
    for i in range(n):
        ph[i], pw[i], ps[i] = _decode_png(data[off[i]:off[i + 1]].tobytes())
    return _append(batch, {"px_h": ph, "px_w": pw, "px_sum": ps})


def make_png(width: int, height: int, pixels: np.ndarray,
             colortype: int = 0, filters: np.ndarray | None = None) -> bytes:
    """Deterministic PNG encoder for fixtures/tests: 8-bit, colortype
    0/2/6, per-line filter bytes (default all 0). Valid CRCs, single
    IDAT."""
    ch = _PNG_CHANNELS[colortype]
    px = np.asarray(pixels, np.uint8).reshape(height, width * ch)
    filt = (np.zeros(height, np.uint8) if filters is None
            else np.asarray(filters, np.uint8))
    enc = px.copy()
    # apply filters (inverse of the decoder's unfilter)
    for r in np.nonzero(filt == 2)[0][::-1]:
        if r:
            enc[r] = (px[r].astype(np.int64) - px[r - 1]) % 256
    sub_rows = np.nonzero(filt == 1)[0]
    if len(sub_rows):
        v = px[sub_rows].astype(np.int64).reshape(len(sub_rows), width, ch)
        d = np.diff(v, axis=1, prepend=np.zeros((len(sub_rows), 1, ch), np.int64))
        enc[sub_rows] = (d % 256).reshape(len(sub_rows), width * ch)
    raw = np.concatenate([filt[:, None], enc], axis=1).reshape(-1).tobytes()

    def chunk(tag: bytes, body: bytes) -> bytes:
        return (struct.pack(">I", len(body)) + tag + body
                + struct.pack(">I", zlib.crc32(tag + body)))

    ihdr = struct.pack(">IIBBBBB", width, height, 8, colortype, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(raw, 6)) + chunk(b"IEND", b""))
