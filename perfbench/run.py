"""Benchmark of rayproj's shipped paths; see perfbench/README.md.

Run from the repository root:

    python3 perfbench/run.py --workload flagship_tiles --seed 1 --seconds 8 --trace 0

One process starts a local Ray cluster with num_cpus = nproc, makes
its inputs from the seed, sets up (timed several times), then runs a
closed loop of jobs -- one in flight at a time -- for ``--seconds``
and checks every output. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the ``end_to_end`` ones of BENCHMARK.json; with
``--trace 1`` they are the ``per_layer`` ones, and the spans are
written to ``.perfbench/traces/``. The line before it records the
host facts that explain noise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import threading
import time

T_START = time.perf_counter()

SETUP_SAMPLES = 3  # set-up is timed this many times per run; the median is reported
JOB_TIMEOUT_S = 60.0  # a job running longer counts as failed and ends the loop
RUN_BUDGET_S = 150.0  # no new job starts after this much wall time
OBJECT_STORE_BYTES = 512 * 2**20
# Ray binds unix sockets under <temp>/session_<date>_<pid>/sockets/; a
# socket path may hold at most 107 bytes
RAY_SOCKET_SUFFIX = 64


class JobTimeout(Exception):
    pass


def call_with_timeout(fn, timeout_s: float):
    """Run fn() on a daemon thread; raise JobTimeout if it is still
    running after timeout_s (the thread is then abandoned)."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except Exception as e:  # handed to the caller below
            box["error"] = e

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout_s)
    if t.is_alive():
        raise JobTimeout(f"still running after {timeout_s:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiplies every input size (the smoke test uses a small one)")
    return ap.parse_args(argv)


def start_ray(ray_dir: str | None) -> None:
    import logging

    import ray

    import host

    ray.init(address="local", num_cpus=host.nproc(), include_dashboard=False,
             _temp_dir=ray_dir, object_store_memory=OBJECT_STORE_BYTES,
             log_to_driver=False, logging_level=logging.ERROR)
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def stop_ray() -> None:
    """Shut Ray down (if it is up) and wait for every process below
    this one to end, including any left by an interrupted ray.init."""
    import host

    procs = host.descendants(os.getpid())
    if "ray" in sys.modules and sys.modules["ray"].is_initialized():
        sys.modules["ray"].shutdown()
    host.wait_gone(procs)


def loop(wl, seconds: float, deadline: float, tracer=None):
    """Closed loop of timed jobs for `seconds`; with a tracer, each job
    is one span. Returns (jobs, failures)."""
    from contextlib import nullcontext

    jobs, failures = [], []
    end = time.perf_counter() + seconds
    i = 0
    while (time.perf_counter() < end or i == 0) and time.perf_counter() < deadline:
        span = tracer.span("job", f"job{i}") if tracer else nullcontext()
        try:
            with span:
                job = call_with_timeout(lambda: wl.run_job(tracer is not None),
                                        JOB_TIMEOUT_S)
            why = wl.check(job)
        except JobTimeout as e:
            failures.append(f"job {i}: {e}")
            break
        except Exception as e:  # a failed job is counted, not fatal
            why = f"{type(e).__name__}: {e}"
        if why:
            failures.append(f"job {i}: {why}")
        else:
            jobs.append(job)
        i += 1
    return jobs, failures


def end_to_end(jobs, setup_samples, peak_mb) -> dict:
    return {
        "setup_s": statistics.median(setup_samples),
        "docs_per_s": statistics.median(j.rows / j.wall_s for j in jobs),
        "job_s_p50": statistics.median(j.wall_s for j in jobs),
        "peak_rss_mb": peak_mb,
    }


def per_layer(wl, tracer, jobs, traced_jobs, untraced):
    """Per-layer metrics, and each layer's share of the end-to-end
    cost (see Workload.shares)."""
    out = wl.replay(tracer)
    stats = [wl.job_layers(j) for j in traced_jobs]
    for key in {k for s in stats for k in s}:
        out[key] = statistics.median(s.get(key, 0.0) for s in stats)
    out.update(wl.workload_layers(jobs))
    traced = statistics.median(j.wall_s for j in traced_jobs)
    out["trace.overhead_frac"] = traced / untraced["job_s_p50"] - 1.0
    return out, wl.shares(out, untraced, traced_jobs, stats)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(root, "rayproj")) or not os.path.isfile(spec_path):
        print("perfbench: run from a rayproj checkout (rayproj/ and BENCHMARK.json "
              "must be in the working directory)", file=sys.stderr)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # keep every file the run writes inside the checkout
    work_root = os.path.join(root, ".perfbench")
    work = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(work, "tmp"))
    os.makedirs(os.path.join(work_root, "traces"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    ray_dir = os.path.join(work_root, "r")
    if len(ray_dir) + RAY_SOCKET_SUFFIX > 107:
        print(f"perfbench: {ray_dir} is too long for Ray's socket paths; "
              "Ray uses its default temp dir", file=sys.stderr)
        ray_dir = None
    else:
        os.makedirs(ray_dir, exist_ok=True)
        os.environ["RAY_TMPDIR"] = ray_dir
        old_sessions = set(os.listdir(ray_dir))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, root)
    deadline = T_START + RUN_BUDGET_S
    try:
        t0 = time.perf_counter()
        import host
        import workloads
        imports_s = time.perf_counter() - t0

        wl = workloads.WORKLOADS[args.workload](work, args.seed, args.scale)
        t0 = time.perf_counter()
        wl.make_inputs()
        fixture_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        import ray  # noqa: F401
        wl.import_layers()
        imports_s += time.perf_counter() - t0

        # set-up sample 1 runs from process start; later samples restart
        # the cluster and add the import time measured in sample 1
        setup = []
        for k in range(1 if args.trace else SETUP_SAMPLES):
            if k:
                stop_ray()
            t0 = time.perf_counter()
            start_ray(ray_dir)
            wl.warm_up()
            now = time.perf_counter()
            setup.append(now - T_START - fixture_s if k == 0 else imports_s + now - t0)
        wl.prepare_checks()

        facts = host.facts(root, args.seed)
        facts["setup_samples_s"] = setup
        # the timed loops run on nproc CPUs, the cluster that num_cpus
        # describes; spread over idle CPUs, Ray's cross-process handoffs
        # slowed by up to 2x whenever other tenants loaded the host
        facts["pinned_cpus"] = host.pin_to_nproc()
        cpu0 = host.cpu_times()
        with host.RssSampler() as rss:
            jobs, failures = loop(wl, args.seconds, deadline)
        facts["steal_pct"] = host.steal_pct(cpu0, host.cpu_times())
        attempted = len(jobs) + len(failures)
        metrics = end_to_end(jobs, setup, rss.peak_mb) if jobs else {}

        if args.trace and jobs:
            import layers

            tracer = layers.Tracer()
            cpu0 = host.cpu_times()
            traced, more = loop(wl, args.seconds, deadline, tracer)
            facts["steal_pct_traced"] = host.steal_pct(cpu0, host.cpu_times())
            failures += more
            attempted += len(traced) + len(more)
            metrics, shares = (per_layer(wl, tracer, jobs, traced, metrics)
                               if traced else ({}, {}))
            dominant = {"workload": args.workload,
                        "dominant_layer": max(shares, key=shares.get, default=None),
                        "shares": shares, "residual_holds": wl.residual_holds}
            if traced:
                dominant["query_shares"] = wl.query_shares(metrics)
            tracer.dump(os.path.join(work_root, "traces",
                                     f"{args.workload}-seed{args.seed}.json"),
                        {"host": facts, "metrics": metrics, **dominant})
            print(json.dumps(dominant))
    finally:
        stop_ray()
        shutil.rmtree(work, ignore_errors=True)
        if ray_dir:
            for name in set(os.listdir(ray_dir)) - old_sessions:
                path = os.path.join(ray_dir, name)
                if os.path.islink(path):
                    os.unlink(path)
                else:
                    shutil.rmtree(path, ignore_errors=True)

    print(json.dumps({"host": facts, "failures": failures[:5]}))
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    # a per-layer metric of a layer the workload never runs reads 0
    if missing and jobs and not args.trace:
        failures.append(f"metrics not measured: {missing}")
    result = {
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": len(failures) if attempted else 1,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    code = main()
    # a job abandoned by a timeout may still hold a thread; do not wait for it
    sys.stdout.flush()
    os._exit(code)
