"""Host facts that explain run-to-run noise, plus /proc samplers.

Everything here reads Linux ``/proc``; nothing needs a third-party
module, so the facts can be recorded before Ray is imported.
"""

from __future__ import annotations

import os
import platform
import subprocess
import threading
import time


def nproc() -> int:
    """What GNU ``nproc`` prints: the CPUs this process may run on,
    overridden by OMP_NUM_THREADS and capped by OMP_THREAD_LIMIT."""
    n = len(os.sched_getaffinity(0))
    try:
        n = int(os.environ.get("OMP_NUM_THREADS", "").split(",")[0]) or n
    except ValueError:
        pass
    try:
        n = min(n, int(os.environ.get("OMP_THREAD_LIMIT", "")) or n)
    except ValueError:
        pass
    return max(1, n)


def cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat: user nice system idle
    iowait irq softirq steal (clock ticks)."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return [int(v) for v in fields[1:9]]


def steal_pct(before: list[int], after: list[int]) -> float:
    """Hypervisor steal as a percentage of all CPU time between two
    ``cpu_times()`` readings."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return 100.0 * delta[7] / total if total > 0 else 0.0


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces; fields after its ')' are fixed
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if state != "Z":
            kids.setdefault(int(ppid), []).append(int(name))
    return kids


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid`` (the local Ray cluster's
    GCS, raylet and workers are children of the driver)."""
    kids = _children_map()
    out: list[int] = []
    todo = list(kids.get(pid, []))
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(kids.get(p, []))
    return out


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def pin_to_nproc() -> list[int]:
    """Pin every thread of this process and of every process below it
    to the last ``nproc()`` CPUs this process may run on (CPU 0 takes
    most device interrupts). Threads and processes started later
    inherit the pinning. Returns the CPUs."""
    cpus = sorted(os.sched_getaffinity(0))[-nproc():]
    for pid in [os.getpid(), *descendants(os.getpid())]:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                os.sched_setaffinity(int(tid), cpus)
            except OSError:  # the thread has ended
                pass
    return cpus


class RssSampler:
    """Samples RSS summed over this process and its descendants every
    0.1 s on a background thread; ``peak_mb`` is the largest sum seen.
    The process list is re-read once a second, which keeps the
    sampler's own CPU time small."""

    PERIOD_S = 0.1
    RESCAN_EVERY = 10

    def __init__(self):
        self.peak_kb = 0
        self._pids: list[int] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self, rescan: bool = True) -> None:
        me = os.getpid()
        if rescan:
            self._pids = [me, *descendants(me)]
        self.peak_kb = max(self.peak_kb, sum(_rss_kb(p) for p in self._pids))

    def _run(self) -> None:
        i = 0
        while not self._stop.is_set():
            self._sample(rescan=i % self.RESCAN_EVERY == 0)
            i += 1
            self._stop.wait(self.PERIOD_S)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


def git_commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def facts(root: str, seed: int) -> dict:
    """Host and software facts recorded with every result."""
    import numpy
    import pyarrow
    import ray

    return {
        "nproc": nproc(),
        "cpus_online": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "ray": ray.__version__,
        "numpy": numpy.__version__,
        "pyarrow": pyarrow.__version__,
        "commit": git_commit(root),
        "seed": seed,
        "unix_time": round(time.time(), 3),
    }


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def wait_gone(pids: list[int], timeout_s: float = 10.0) -> None:
    """Wait until every pid has ended; kill any left at the deadline
    and wait for those too."""
    import signal

    deadline = time.monotonic() + timeout_s
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    for pid in pids:
        if _alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    while any(_alive(p) for p in pids):
        time.sleep(0.05)
