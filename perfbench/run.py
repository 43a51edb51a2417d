"""End-to-end benchmark of the ``repro`` CLI and service, by workload.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload mine-sparse --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py                 # every workload, seed 1

Each operation runs the real program in its own process:
``python -m repro mine|transversals ...`` for the CLI workloads, and
for ``serve-mix`` one ``repro serve`` per session with a closed-loop
request mix against it.  Every output is checked against an in-process
reference outside the timed region; a wrong output, a non-zero exit, a
non-2xx reply or a timeout counts as failed and the command exits 1.

End-to-end metrics (``--trace 0``, tracing off), each the median over
the run's invocations or sessions:

- ``wall_s``: spawn to exit of one CLI invocation, output printed; for
  ``serve-mix``, one session's mix, from its first request until both
  client threads are done.
- ``peak_rss_mb``: peak resident memory of each program process, read
  per child with ``os.wait4``.
- ``setup_s``: spawn until the program is ready for work: the ready
  banner of ``repro serve``; for the CLI, the exit of ``repro <command>
  --help`` (interpreter start, imports and parser), probed between the
  invocations.

For ``serve-mix`` the record adds ``ops_per_s`` (a session's requests over
its wall) and each endpoint's p50 and tail latency.  They are kept out of
the metrics above, which every workload reports, and the request rate
swings with which server thread holds the interpreter lock.

``--trace 1`` alternates untraced runs with traced children
(``layers.py``) and reports the per-layer metrics instead, with
``trace.overhead_frac``.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with sample counts, request-latency percentiles, failures and the
environment, is written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import time
from statistics import median

from layers import layer_metrics, unit
from measure import run_child, tail

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".perfbench")
TMP = os.path.join(WORK, "tmp")
SPANS = os.path.join(TMP, "spans.json")
NAMES = ("mine-sparse", "transversals-fd", "serve-mix")

#: ``repro <command> --help`` spawns for a CLI ``setup_s``: this many
#: before each invocation, so host drift hits probes and invocations
#: alike, and at least ``SETUP_PROBES`` per run.
PROBES_PER_STEP = 3
SETUP_PROBES = 15
#: Fewest invocations or sessions per run, even past ``--seconds``
#: (a traced run needs two of each kind).
MIN_REPEATS = 3
MIN_TRACED_REPEATS = 4

UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
FLUSH_POLICY = (
    "repro serve fsyncs every WAL record (its default); the state "
    "directory is on the benchmark host's own filesystem, so append "
    "latencies are that filesystem's, not a storage device's"
)


def _environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "available_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "flush_policy": FLUSH_POLICY,
    }


class Run:
    """Samples, layer metrics and failures of one workload run."""

    def __init__(self, prepared: dict, env: dict):
        self.prepared = prepared
        self.env = env
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.layer_runs: list[dict] = []
        self.detail: dict = {}

    def add(self, metric: str, *values: float) -> None:
        self.samples.setdefault(metric, []).extend(values)

    def outcome(self, why: str | None) -> bool:
        """Count one operation; ``why`` is ``None`` when it succeeded."""
        self.attempted += 1
        if why is not None:
            self.failures.append(why)
        return why is None


def _repeat(run, seconds: float, minimum: int, step) -> None:
    """Call ``step(i)`` until one more call would likely end past
    ``seconds``, but at least ``minimum`` times; stop at the first failure."""
    start = time.perf_counter()
    done = 0
    while not run.failures:
        step(done)
        done += 1
        elapsed = time.perf_counter() - start
        if done >= minimum and elapsed * (done + 1) / done > seconds:
            return


def _argv(args: list[str], traced: bool) -> list[str]:
    """The program's command line, or the traced child's."""
    if traced:
        return [sys.executable, os.path.join(HERE, "layers.py"), "--out",
                SPANS, "--", *args]
    return [sys.executable, "-m", "repro", *args]


# -- CLI workloads ---------------------------------------------------------


def _invoke(run, argv, check, reference=None):
    """One invocation, checked after it exits; returns whether it
    passed, its wall seconds and its peak RSS."""
    out = os.path.join(TMP, "stdout.txt")
    wall, code, rss_mb, timed_out = run_child(argv, out, run.env, ROOT)
    if timed_out:
        why = "timed out"
    elif code != 0:
        with open(out + ".err", encoding="utf-8", errors="replace") as handle:
            why = f"exit {code}: {handle.read()[-300:]}"
    else:
        with open(out, encoding="utf-8", errors="replace") as handle:
            text = handle.read()
        try:
            why = check(text, reference)
        except ValueError as error:
            why = f"unparsable output: {error}"
    return run.outcome(why), wall, rss_mb


def _usage(text, reference):
    return None if text.startswith("usage:") else "--help printed no usage"


def run_cli(run, check, seconds, trace):
    args = run.prepared["argv"]
    reference = run.prepared["reference"]
    probe = _argv([args[0], "--help"], False)

    def setup_probes(n):
        for _ in range(n):
            if not run.failures:
                run.add("setup_s", _invoke(run, probe, _usage)[1])

    def step(i):
        if not trace:
            setup_probes(PROBES_PER_STEP)
        traced = trace and i % 2 == 1
        ok, wall, rss_mb = _invoke(run, _argv(args, traced), check, reference)
        if traced and ok:
            with open(SPANS, encoding="utf-8") as handle:
                run.layer_runs.append(layer_metrics(json.load(handle), wall))
            run.add("traced_wall_s", wall)
        elif not traced:
            run.add("wall_s", wall)
            run.add("peak_rss_mb", rss_mb)

    _repeat(run, seconds, MIN_TRACED_REPEATS if trace else MIN_REPEATS, step)
    if not trace:
        setup_probes(SETUP_PROBES - len(run.samples.get("setup_s", ())))


# -- serve-mix -------------------------------------------------------------


def run_serve(run, serve_mix, seconds, seed, trace):
    prepared = run.prepared
    rng = random.Random(seed)
    n_items = len(prepared["items"])
    member_masks = [
        sum(1 << i for i in rng.sample(range(n_items), rng.randint(1, 3)))
        for _ in range(64)
    ]

    def step(i):
        state_dir = os.path.join(TMP, f"state-{i}")
        args = [*prepared["argv"], "--state-dir", state_dir, "--port", "0"]
        traced = trace and i % 2 == 1
        session = serve_mix.run_session(
            _argv(args, traced), run.env, ROOT,
            os.path.join(TMP, f"serve-{i}.err"), prepared, i, member_masks,
        )
        shutil.rmtree(state_dir, ignore_errors=True)
        run.attempted += session.attempted
        run.failures.extend(session.failures)
        if session.failures:
            return
        if traced:
            with open(SPANS, encoding="utf-8") as handle:
                metrics = layer_metrics(json.load(handle), session.setup_s,
                                        serve=True)
            counters = session.counters
            metrics["core.oracle.queries"] = counters["queries"]
            metrics["core.oracle.useful_frac"] = (
                counters["theory_size"] + counters["negative_border"]
            ) / counters["queries"]
            run.layer_runs.append(metrics)
            run.add("traced_wall_s", session.wall_s)
            return
        requests = sum(len(values) for values in session.latencies.values())
        run.add("wall_s", session.wall_s)
        run.add("ops_per_s", requests / session.wall_s)
        run.add("setup_s", session.setup_s)
        run.add("peak_rss_mb", session.rss_mb)
        for kind, values in session.latencies.items():
            run.add(f"{kind}_ms", *(v * 1000.0 for v in values))

    _repeat(run, seconds, MIN_TRACED_REPEATS if trace else MIN_REPEATS, step)


# -- metrics -------------------------------------------------------------


def end_to_end(run) -> dict:
    s = run.samples
    if not s.get("wall_s"):
        return {}
    run.detail["samples"] = {key: len(s[key]) for key in UNITS}
    run.detail["raw"] = {k: s[k] for k in ("wall_s", "setup_s", "peak_rss_mb")}
    if s.get("ops_per_s"):
        run.detail["ops_per_s"] = median(s["ops_per_s"])
    for kind in ("mine", "append", "member", "borders"):
        values = s.get(f"{kind}_ms")
        if values:
            run.detail[f"{kind}_p50_ms"] = median(values)
            run.detail[f"{kind}_tail_ms"] = tail(values)
            run.detail[f"{kind}_samples"] = len(values)
    return {key: median(s[key]) for key in UNITS}


def per_layer(run) -> dict:
    """Mean of each per-layer metric over the traced runs."""
    if not run.layer_runs or not run.samples.get("wall_s"):
        return {}
    metrics = {key: sum(r[key] for r in run.layer_runs) / len(run.layer_runs)
               for key in run.layer_runs[0]}
    metrics["trace.overhead_frac"] = (
        median(run.samples["traced_wall_s"]) / median(run.samples["wall_s"]) - 1
    )
    run.detail["traced_runs"] = len(run.layer_runs)
    return metrics


def bench(name, seed, seconds, trace, workloads, serve_mix) -> dict:
    start = time.perf_counter()
    prepared = workloads.prepare(name, seed, os.path.join(WORK, "cache"))
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"),
           "TMPDIR": TMP}
    run = Run(prepared, env)
    run.detail["input_prep_s"] = time.perf_counter() - start
    spec = workloads.WORKLOADS[name]
    if "cpus" in spec:
        # Every process of the run inherits this: the program, its
        # workers and, for serve-mix, the clients and checks here.
        cpus = sorted(os.sched_getaffinity(0))[:spec["cpus"]]
        os.sched_setaffinity(0, cpus)
    run.detail["program_cpus"] = len(os.sched_getaffinity(0))
    kind = spec["kind"]
    if kind == "serve":
        run_serve(run, serve_mix, seconds, seed, trace)
    else:
        check = (workloads.check_mine if kind == "mine"
                 else workloads.check_transversals)
        run_cli(run, check, seconds, trace)
    metrics = per_layer(run) if trace else end_to_end(run)
    units = {key: unit(key) for key in metrics} if trace else UNITS
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:20],
        "detail": run.detail,
    }


def _print(record: dict) -> None:
    detail = record["detail"]
    counts = detail.get("samples", {})
    print(f"== {record['workload']} seed={record['seed']} "
          f"trace={record['trace']}")
    for key, metric in record["metrics"].items():
        n = f"  (n={counts[key]})" if key in counts else ""
        print(f"  {key:<38} {metric['value']:>14.6g} {metric['unit']}{n}")
    for key, value in sorted(detail.items()):
        if key not in ("samples", "raw"):
            print(f"  {key:<38} {value}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"  {'failed_frac':<38} {failed / max(attempted, 1):>14.6g}  "
          f"({failed} of {attempted})")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    print(f"  environment: {json.dumps(record['environment'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "cli.py")):
        print(f"error: no repro source tree under {src}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    # Byte-compile once, so no timed invocation pays for it.
    built = subprocess.run([sys.executable, "-m", "compileall", "-q", src])
    if built.returncode != 0:
        print("error: byte-compiling src failed", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import serve_mix
    import workloads

    shutil.rmtree(TMP, ignore_errors=True)
    os.makedirs(TMP)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    environment = _environment()
    names = NAMES if args.workload == "all" else (args.workload,)
    records = []
    cpus = os.sched_getaffinity(0)
    try:
        for name in names:
            record = bench(name, args.seed, args.seconds, bool(args.trace),
                           workloads, serve_mix)
            os.sched_setaffinity(0, cpus)
            record["environment"] = dict(environment)
            if "trace.overhead_frac" in record["metrics"]:
                record["environment"]["trace.overhead_frac"] = (
                    record["metrics"]["trace.overhead_frac"]["value"]
                )
            path = os.path.join(
                WORK, "results", f"{name}-seed{args.seed}-trace{args.trace}.json"
            )
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(record, handle, indent=1)
            _print(record)
            records.append(record)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v
                   for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
