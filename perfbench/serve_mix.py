"""The ``serve-mix`` session: a fresh ``repro serve``, a closed-loop mix
from two client threads, then the output checks.

Closed loop, because service callers wait for each reply: the writer
sends ``/append`` batches back to back and the reader cycles
``/member``, ``/member``, ``/borders``, ``/mine`` until the writer has
sent its fixed number of appends.  Each thread owns one keep-alive
connection.
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import subprocess
import threading
import time

from measure import reap
from workloads import SESSION_APPENDS, serve_reference

READ_CYCLE = ("member", "member", "borders", "mine")
#: Banner wait, per-request socket timeout and shutdown wait.
TIMEOUT_S = 10.0
#: A mix still running after this counts as failed.
MIX_LIMIT_S = 30.0


class Session:
    """Outcome of one session (times in seconds)."""

    def __init__(self):
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.rss_mb = 0.0
        self.latencies = {kind: [] for kind in ("append", *READ_CYCLE)}
        self.attempted = 0
        self.failures: list[str] = []
        #: The server's ``/metrics`` counters after the checks.
        self.counters: dict = {}


def _request(conn, method, path, body=None):
    headers = {"Content-Type": "application/json"} if body else {}
    start = time.perf_counter()
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    data = response.read()
    return response.status, data, time.perf_counter() - start


def run_session(argv, env, cwd, err_path, prepared, index,
                member_masks) -> Session:
    """Spawn the server from ``argv`` (it must print the ready banner on
    stdout, its stderr goes to ``err_path``), drive one mix against it,
    check it, and shut it down."""
    session = Session()
    n_batches = len(prepared["batches"])
    batches = [
        prepared["batches"][(index * SESSION_APPENDS + i) % n_batches]
        for i in range(SESSION_APPENDS)
    ]
    tag = f"s{index}"
    start = time.perf_counter()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd
        )
    try:
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        banner = proc.stdout.readline().decode("utf-8", "replace")
        timer.cancel()
        session.setup_s = time.perf_counter() - start
        match = re.search(r"http://[^:/]+:(\d+)", banner)
        session.attempted += 1
        if match is None:
            session.failures.append(f"no ready banner: {banner!r}")
            return session
        port = int(match.group(1))
        last = _mix(session, port, batches, tag, member_masks)
        _check(session, port, prepared, batches, tag, last)
    finally:
        if proc.returncode is None:
            proc.send_signal(signal.SIGTERM)
            code, session.rss_mb, timed_out = reap(proc, TIMEOUT_S)
            if timed_out or code != 0:
                session.failures.append(f"server exit code {code}")
        proc.stdout.close()
    return session


def _mix(session, port, batches, tag, member_masks):
    """Run the closed loop; returns the last append's (body, reply)."""
    writer_done = threading.Event()
    lock = threading.Lock()
    last = {}

    def record(kind, status, seconds):
        with lock:
            session.attempted += 1
            if 200 <= status < 300:
                session.latencies[kind].append(seconds)
            else:
                session.failures.append(f"/{kind} answered {status}")

    def writer():
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
        try:
            for i, batch in enumerate(batches):
                body = json.dumps({"rows": batch, "op": f"{tag}-{i}"})
                status, data, seconds = _request(conn, "POST", "/append", body)
                record("append", status, seconds)
                last["body"], last["reply"] = body, data
        except (OSError, http.client.HTTPException) as error:
            with lock:
                session.attempted += 1
                session.failures.append(f"writer: {error!r}")
        finally:
            writer_done.set()
            conn.close()

    def reader():
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
        step = 0
        try:
            while not writer_done.is_set():
                kind = READ_CYCLE[step % len(READ_CYCLE)]
                path = f"/{kind}"
                if kind == "member":
                    path += f"?mask={member_masks[step % len(member_masks)]}"
                status, _, seconds = _request(conn, "GET", path)
                record(kind, status, seconds)
                step += 1
        except (OSError, http.client.HTTPException) as error:
            with lock:
                session.attempted += 1
                session.failures.append(f"reader: {error!r}")
        finally:
            conn.close()

    threads = [threading.Thread(target=writer, daemon=True),
               threading.Thread(target=reader, daemon=True)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(max(0.0, start + MIX_LIMIT_S - time.perf_counter()))
    session.wall_s = time.perf_counter() - start
    if any(thread.is_alive() for thread in threads):
        session.failures.append(f"mix still running after {MIX_LIMIT_S} s")
        return {}
    return last


def _check(session, port, prepared, batches, tag, last):
    """``/borders`` must equal a from-scratch eclat over every row sent,
    and re-sending the last op id must return the same seq and digest."""
    if "reply" not in last:
        return
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        session.attempted += 2
        status, data, _ = _request(conn, "GET", "/borders")
        reference = serve_reference(prepared, batches)
        borders = json.loads(data) if status == 200 else {}
        if status != 200 or borders.get("threshold") != prepared["threshold"]:
            session.failures.append(f"/borders answered {status}")
        elif (sorted(borders["maximal"]) != reference["maximal"]
              or sorted(borders["negative"]) != reference["negative"]):
            session.failures.append("/borders differs from a fresh eclat")
        status, data, _ = _request(conn, "POST", "/append", last["body"])
        first = json.loads(last["reply"])
        again = json.loads(data) if status == 200 else {}
        if (not again.get("duplicate") or again.get("seq") != first["seq"]
                or again.get("digest") != first["digest"]):
            session.failures.append(f"re-sent op {tag} is not idempotent")
        conn.request("GET", "/metrics", headers={"Accept": "application/json"})
        session.counters = json.loads(conn.getresponse().read())
    except (OSError, http.client.HTTPException, ValueError) as error:
        session.failures.append(f"checks: {error!r}")
    finally:
        conn.close()
