"""Non-vacuous near-duplicate coverage (round-2 VERDICT ask #3):

1. planted near-duplicates must actually be FOUND by the MinHash-LSH
   banding and the simhash pipeline (capability tests, not just
   determinism);
2. the engine-defined-hash queries (no SQL twin possible) are pinned
   to golden value-hashes at sf0.001 — any change to the hash family,
   banding or pipeline semantics must update these consciously.
"""

import hashlib
import os
import sys

import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import __ray_entry__ as entrymod
from rayproj.functions.dedup import MinHasher, jaccard

SF_DIR = "/root/testdata/sf0.001"

GOLDEN = {
    # name: (rows, md5 of column-sorted, row-sorted values)
    "minhash_lsh": (303, "78b809eb1b4631934733224896444fcb"),
    "simhash": (500, "203ba9db7662e6965ed22a7deb7f1c04"),
    "simhash_neardup": (15, "8a961df6eca7cc0b6b5cebe3577e8c32"),
}


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def _vhash(df: pd.DataFrame) -> str:
    parts = []
    for c in df.columns:
        s = df[c]
        if s.dtype.kind == "f":
            parts.append(np.round(s.to_numpy(), 9).tobytes())
        else:
            parts.append(s.astype(str).str.cat(sep="|").encode())
    return hashlib.md5(b"||".join(parts)).hexdigest()


def test_golden_pins(ray_session):
    # "simhash" was consolidated into the doc_metrics driver row in
    # round 5; its sketch values stay pinned on that row's slice
    queries = entrymod.queries()
    for name, (rows, digest) in GOLDEN.items():
        if name == "simhash":
            df = queries["doc_metrics"](SF_DIR).to_pandas()[["doc_id", "simhash"]]
        else:
            df = queries[name](SF_DIR).to_pandas()
        df = _norm(df)
        assert len(df) == rows, f"{name}: {len(df)} rows != golden {rows}"
        assert _vhash(df) == digest, f"{name}: value hash drifted from golden"


def test_minhash_lsh_finds_planted_neardup():
    base = (
        "large scale web corpora require careful duplicate removal before "
        "training because repeated passages distort model likelihoods and "
        "waste compute on memorization rather than generalization of text"
    )
    variant = base.replace("careful", "very careful")
    far = "completely unrelated short note about grid interpolation kernels"
    texts = pd.Series([base, variant, far])
    assert jaccard(base, variant) > 0.5

    mh = MinHasher()
    rows = mh.band_rows(np.array([10, 11, 12], dtype=np.int64), texts)
    shared = (
        rows.groupby(["band_id", "band_hash"])["doc_id"]
        .apply(lambda s: set(s))
        .tolist()
    )
    assert any({10, 11} <= b for b in shared), "planted near-dup pair not banded together"
    assert not any({10, 12} <= b or {11, 12} <= b for b in shared), (
        "far document spuriously banded with the near-dup pair"
    )


def test_ngram_jaccard_non_vacuous(ray_session):
    out = entrymod.queries()["ngram_jaccard"](SF_DIR).to_pandas()
    assert len(out) >= 20, f"ngram_jaccard matched only {len(out)} pairs"
    # every planted variant should match its original with high jaccard
    planted = out[(out["doc_b"] - out["doc_a"]) == 100000]
    assert len(planted) >= 20
    assert (planted["jaccard"] > 0.5).all()
