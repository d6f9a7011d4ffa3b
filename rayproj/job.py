"""`ray job submit` entrypoint for the flagship pipeline.

The north rule's deployment shape: the same module runs unchanged on a
laptop (`python -m rayproj.job ...`, auto-local Ray) and on a fixed-size
multi-node cluster via

    ray job submit --working-dir . -- \
        python -m rayproj.job --input /data/pages.parquet \
        --output /shared/out --partitions 256

Re-submitting after a failure resumes: partitions with a valid
per-partition lineage record (input signature + pipeline version) are
skipped, only missing/invalidated ones recompute
(rayproj/pipelines/lineage.py). Exit is a single JSON line with per-run
metrics (parts computed and skipped, rows written, compressed input
bytes read, seconds) so the submitting side can scrape progress.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="rayproj.job")
    ap.add_argument("--input", required=True, help="input parquet file")
    ap.add_argument("--output", required=True, help="output directory (partitioned)")
    ap.add_argument("--partitions", type=int, default=8)
    ap.add_argument("--key-col", default="doc_id")
    ap.add_argument("--lang-col", default="lang")
    ap.add_argument("--pipeline-version", default="1")
    ap.add_argument("--no-resume", action="store_true",
                    help="ignore existing lineage records and recompute all")
    args = ap.parse_args(argv)

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(address="local", include_dashboard=False)

    from rayproj.pipelines.lineage import LineageWriter, checkpointed_flagship

    if args.no_resume:
        import shutil

        shutil.rmtree(LineageWriter(args.output).lineage_dir, ignore_errors=True)

    t0 = time.time()
    records, skipped = checkpointed_flagship(
        args.input, args.output, n_partitions=args.partitions,
        key_col=args.key_col, lang_col=args.lang_col,
        pipeline_version=args.pipeline_version,
    )
    print(json.dumps({
        "computed_parts": len(records),
        "skipped_parts": len(skipped),
        "rows_written": sum(r["metrics"]["rows"] for r in records),
        "input_bytes_read": sum(r["metrics"]["input_bytes"] for r in records),
        "seconds": round(time.time() - t0, 3),
        "output": args.output,
    }))
    if owns_session:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
