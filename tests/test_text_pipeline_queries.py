"""Non-vacuity checks for the round-3 webtext-pipeline queries.

test_queries_oracle.py already asserts rows+schema+hash vs DuckDB for
these; here we assert the phenomena under test actually OCCUR in the
fixture corpus (round-2 VERDICT: a hash-green query over an empty /
trivial result set is not evidence the kernel works).
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from rayproj.pipelines.queries import (
    q_dedup_surface,
    q_doc_metrics,
    q_paragraph_dedup,
)

SF_DIR = "/root/testdata/sf0.001"


def test_paragraph_dedup_nonvacuous(ray_session):
    df = q_paragraph_dedup(SF_DIR).to_pandas()
    assert len(df) > 0
    # cross-doc chunk sharing must actually occur in the corpus
    assert int(df["n_dup_chunks"].sum()) > 0
    # and be a strict subset: no doc is 100% chunks without being a dup
    assert (df["n_dup_chunks"] <= df["n_chunks"]).all()


def test_gopher_repetition_nonvacuous(ray_session):
    df = q_doc_metrics(SF_DIR).to_pandas()
    assert len(df) > 0
    assert int((df["n_dup_instances"] > 0).sum()) > 0
    # a doc with any repeated bigram has top count >= 2
    rep = df[df["n_dup_instances"] > 0]
    assert (rep["top_bigram_n"] >= 2).all()
    # invariants: dup instances < total, top <= total
    assert (df["n_dup_instances"] < df["n_bigrams"]).all() or (
        df["n_bigrams"] == 0
    ).any()
    assert (df["top_bigram_n"] <= df["n_bigrams"]).all()


def test_dedup_norm_collapses_planted_variants(ray_session):
    df = q_dedup_surface(SF_DIR).to_pandas()
    df = df[df["method"] == "norm"]
    # 25 planted variants (upper + doubled spaces) normalize back onto
    # their originals: exactly 25 groups of size 2, keeper = original id
    pairs = df[df["n_dups"] == 2]
    assert len(pairs) == 25
    assert (pairs["keep_doc_id"] < 25).all()
    assert df["n_dups"].max() == 2
