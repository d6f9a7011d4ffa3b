"""Multimodal stages: REAL header parsing on hand-constructed valid
PNG/GIF/BMP/JPEG/WAV/MP4 bytes (no codec libraries needed), plus the
deterministic fallback for unknown formats, and ``multimodal_doc``
finishing on a one-CPU Ray session."""

import os
import struct
import subprocess
import sys
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from rayproj.stages.multimodal import (
    _binary_buffers,
    audio_meta,
    frame_sample,
    image_decode,
    make_png,
    parse_image_dims,
    png_pixels,
)


def _png(w, h, color=2):
    ihdr = struct.pack(">II5B", w, h, 8, color, 0, 0, 0)
    chunk = b"IHDR" + ihdr
    return (b"\x89PNG\r\n\x1a\n" + struct.pack(">I", 13) + chunk
            + struct.pack(">I", zlib.crc32(chunk)))


def _gif(w, h):
    return b"GIF89a" + struct.pack("<HH", w, h) + b"\x00\x00\x00"


def _bmp(w, h):
    return b"BM" + b"\x00" * 12 + struct.pack("<IiiHH", 40, w, h, 1, 24) + b"\x00" * 8


def _jpeg(w, h, ncomp=3):
    app0 = b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00" + b"\x00" * 9
    sof0 = b"\xff\xc0" + struct.pack(">HBHHB", 11, 8, h, w, ncomp)
    return b"\xff\xd8" + app0 + sof0 + b"\xff\xd9"


def _wav(ch, rate, nsamp, bits=16):
    data_len = nsamp * ch * bits // 8
    fmt = struct.pack("<HHIIHH", 1, ch, rate, rate * ch * bits // 8, ch * bits // 8, bits)
    return (b"RIFF" + struct.pack("<I", 36 + data_len) + b"WAVE"
            + b"fmt " + struct.pack("<I", 16) + fmt
            + b"data" + struct.pack("<I", data_len) + b"\x00" * min(data_len, 64))


def _box(typ, body):
    return struct.pack(">I", 8 + len(body)) + typ + body


def _mp4(nframes):
    stsz = _box(b"stsz", struct.pack(">BxxxII", 0, 0, nframes))
    inner = _box(b"moov", _box(b"trak", _box(b"mdia", _box(b"minf", _box(b"stbl", stsz)))))
    return _box(b"ftyp", b"isom\x00\x00\x02\x00isomiso2") + inner


def test_image_dims_real_formats():
    blobs = [_png(640, 480), _gif(320, 200), _bmp(100, 50), _jpeg(1920, 1080), b"junk", b""]
    t = pa.table({"payload": pa.array(blobs, type=pa.binary())})
    out = image_decode(t)
    assert out.column("img_w").to_pylist()[:4] == [640, 320, 100, 1920]
    assert out.column("img_h").to_pylist()[:4] == [480, 200, 50, 1080]
    assert out.column("img_format").to_pylist() == [1, 2, 3, 4, 0, 0]


def test_image_dims_vectorized_matches_single():
    blobs = [_png(11, 22), _jpeg(33, 44, 1)]
    t = pa.array(blobs, type=pa.binary())
    data, off = _binary_buffers(t)
    h, w, c, fmt = parse_image_dims(data, off)
    assert list(h) == [22, 44] and list(w) == [11, 33]
    assert list(c) == [3, 1]


def test_audio_wav_parse():
    t = pa.table({"payload": pa.array([_wav(2, 44100, 1000), _wav(1, 8000, 5), b"x"],
                                      type=pa.binary())})
    out = audio_meta(t)
    assert out.column("audio_channels").to_pylist() == [2, 1, -1]
    assert out.column("audio_rate").to_pylist() == [44100, 8000, -1]
    assert out.column("audio_samples").to_pylist() == [1000, 5, -1]


def test_frame_sample_mp4_real_count():
    t = pa.table({"payload": pa.array([_mp4(90), _mp4(1)], type=pa.binary()),
                  "doc_id": [7, 8]})
    df = frame_sample(t).to_pandas()
    assert df.query("doc_id==7")["frame_idx"].tolist() == [0, 30, 60]
    assert df.query("doc_id==8")["frame_idx"].tolist() == [0]


def test_frame_sample_fallback_deterministic():
    t = pa.table({"payload": pa.array([b"not-a-video"], type=pa.binary()), "doc_id": [3]})
    a = frame_sample(t).to_pandas()
    b = frame_sample(t).to_pandas()
    assert a.equals(b) and len(a) >= 1


def test_png_pixel_stage_decodes_filters():
    """Real IDAT decode (round-5): zlib inflate + None/Sub/Up unfilter
    must reproduce the planted pixel sums; truncated/corrupt blobs get
    -1 sentinels."""
    w, h = 13, 9
    px = ((np.arange(w)[None, :] + 2 * np.arange(h)[:, None] + 5) % 256
          ).astype(np.uint8)
    blobs = [
        make_png(w, h, px, 0),                                   # all None
        make_png(w, h, px, 0, np.arange(h, dtype=np.uint8) % 3), # mixed
        make_png(w, h, ((np.arange(w * h * 3) * 7) % 256
                        ).astype(np.uint8), 2),                  # RGB
        b"not a png",
        make_png(w, h, px, 0)[:30],                              # truncated
    ]
    batch = pa.table({"payload": pa.array(blobs, type=pa.binary())})
    out = png_pixels(batch)
    s = int(px.astype(np.int64).sum())
    s3 = int((((np.arange(w * h * 3) * 7) % 256).astype(np.int64)).sum())
    assert out.column("px_sum").to_pylist() == [s, s, s3, -1, -1]
    assert out.column("px_w").to_pylist() == [w, w, w, -1, -1]
    assert out.column("px_h").to_pylist() == [h, h, h, -1, -1]


def test_png_idat_crc_rejected():
    blob = bytearray(make_png(8, 8, np.zeros(64, np.uint8), 0))
    # flip one IDAT payload byte -> CRC mismatch -> sentinel
    idx = blob.index(b"IDAT") + 6
    blob[idx] ^= 0xFF
    out = png_pixels(pa.table({"payload": pa.array([bytes(blob)], type=pa.binary())}))
    assert out.column("px_sum").to_pylist() == [-1]


ONE_CPU_RUN = """
import sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
from rayproj.pipelines.queries import QUERIES
print(len(QUERIES["multimodal_doc"](sys.argv[1]).to_pandas()))
"""


def test_multimodal_doc_finishes_on_one_cpu(sf_dir):
    """Every stage is a task map, so a one-CPU session runs the fused
    chain; an actor pool per stage, each holding a CPU, never finished
    there. Its own session: the shared one has 4 CPUs."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", ONE_CPU_RUN, sf_dir], cwd=root, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    n_docs = len(pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"]))
    assert out.stdout.split()[-1] == str(n_docs)
