"""Child processes with per-child peak memory, and order statistics."""

from __future__ import annotations

import math
import os
import subprocess
import threading
import time

#: An invocation that outlives this is killed and counted as failed,
#: which keeps a whole run within its time limit.
CHILD_TIMEOUT_S = 40.0


def reap(proc: subprocess.Popen, timeout: float = CHILD_TIMEOUT_S):
    """Wait for ``proc`` with ``os.wait4``; returns ``(exit code, peak RSS
    in MB, timed out)``.

    ``wait4`` reports this child's own peak (its reaped workers
    included), unlike ``getrusage(RUSAGE_CHILDREN)``, which keeps the
    largest child this process ever reaped.
    """
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    return code, usage.ru_maxrss / 1024.0, code == -9


def run_child(argv, out_path, env, cwd):
    """Run one program invocation, stdout to ``out_path``.

    Returns ``(wall seconds from spawn to exit, exit code, peak RSS MB,
    timed out)``.
    """
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        code, rss_mb, timed_out = reap(proc)
        wall = time.perf_counter() - start
    return wall, code, rss_mb, timed_out


def tail(values):
    """The highest of p50/p75/p90/p95/p99/p99.9 that leaves at least ten
    samples above it (nearest rank), as ``(percentile, value)``; ``None``
    below twenty samples, where not even p50 has that much room."""
    ordered = sorted(values)
    n = len(ordered)
    for percentile in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        index = math.ceil(n * percentile / 100.0) - 1
        if n - index - 1 >= 10:
            return percentile, ordered[index]
    return None
