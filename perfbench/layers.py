"""Outside-in layer tracing: the traced child and its per-layer metrics.

Run as a script, this is the traced child.  It times ``import
repro.cli``, wraps the public calls into each layer where the caller
looks the name up (``repro.cli.read_fimi``,
``repro.mining.apriori.prefix_join_candidates``, ...), then runs
``repro.cli.main(argv)`` — ``repro serve`` included, which returns on
SIGTERM — keeping every span in memory and writing them to ``--out`` at
exit.  Nothing inside the program changes::

    python perfbench/layers.py --out spans.json -- mine data.dat --min-support 0.1

A span is ``[name, layer, thread, start, end, parent, counts]``.  Calls
too frequent for one record each (``Universe.label`` and ``print`` in
the CLI's output loop) are summed per parent span instead.  A layer's
self time is its spans' durations minus the time of their child spans.
Only the process that installed the wrappers records: forked workers
run the wrapped functions untraced, so time inside pool workers is not
attributed (the coordinator's waiting shows as ``parallel`` time).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

LAYERS = (
    "cli", "datasets.fimi", "datasets.transactions", "util.prefix",
    "util.antichain", "mining", "core.oracle", "parallel", "hypergraph",
    "service",
)


class Recorder:
    """In-memory span store with one call stack per thread."""

    def __init__(self):
        self.spans: list[list] = []
        self.summed: dict[tuple, list] = {}
        self._local = threading.local()
        self._pid = os.getpid()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, layer, fn, count=None):
        """``fn`` timed as span ``name`` of ``layer``; ``count(args,
        kwargs, result)`` returns the span's counters."""
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            stack = self._stack()
            span = [name, layer, threading.get_ident(), 0.0, 0.0,
                    stack[-1] if stack else -1, None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[6] = count(args, kwargs, result)
            return result

        return traced

    def wrap_summed(self, name, layer, fn):
        """Like :meth:`wrap`, but summed per parent span, not recorded."""
        def traced(*args, **kwargs):
            stack = self._stack()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                key = (name, layer, stack[-1] if stack else -1)
                with self._lock:
                    entry = self.summed.setdefault(key, [0.0, 0])
                    entry[0] += seconds
                    entry[1] += 1

        return traced

    def dump(self, path: str) -> None:
        payload = {
            "spans": self.spans,
            "summed": [[*key, *value] for key, value in self.summed.items()],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _n(value):
    return {"n": len(value)}


def _oracle(args, kwargs, theory):
    """The mining result's own query count, ``|Th|`` and ``|Bd-|``."""
    return {"queries": theory.queries, "theory": theory.theory_size() or 0,
            "negative": len(theory.negative_border)}


def _patch(recorder: Recorder) -> None:
    """Wrap each layer's public calls at the name the caller looks up."""
    # import_module, not ``import a.b as c``: ``repro.mining.apriori``
    # and ``repro.mining.eclat`` are shadowed by the functions that
    # ``repro.mining`` re-exports under the same names.
    from importlib import import_module

    (cli, fimi, hypergraph, frequent, apriori, eclat, pmmcs, pool, steal,
     admission, incremental, server, state, wal) = (
        import_module(f"repro.{name}") for name in (
            "cli", "datasets.fimi", "hypergraph.hypergraph",
            "instances.frequent_itemsets", "mining.apriori", "mining.eclat",
            "parallel.mmcs", "parallel.pool", "parallel.steal",
            "service.admission", "service.incremental", "service.server",
            "service.state", "service.wal",
        )
    )
    from repro.datasets.transactions import TransactionDatabase
    from repro.util.bitset import Universe

    def put(owner, attr, name, layer, count=None, kind=None):
        fn = owner.__dict__[attr].__func__ if kind else getattr(owner, attr)
        wrapped = recorder.wrap(name, layer, fn, count)
        setattr(owner, attr, kind(wrapped) if kind else wrapped)

    put(cli, "main", "cli.main", "cli")
    cli.print = recorder.wrap_summed("cli.output", "cli", print)
    Universe.label = recorder.wrap_summed("cli.output", "cli", Universe.label)
    put(cli, "read_fimi", "datasets.fimi.read", "datasets.fimi")
    put(fimi, "_scan_universe", "datasets.fimi.scan", "datasets.fimi")
    put(TransactionDatabase, "_build_columns", "datasets.transactions.build",
        "datasets.transactions", lambda a, k, r: {"n": len(a[0])},
        staticmethod)
    put(TransactionDatabase, "from_columnar", "datasets.transactions.build",
        "datasets.transactions", lambda a, k, r: {"n": a[3]}, classmethod)
    put(TransactionDatabase, "support_counts", "datasets.transactions.count",
        "datasets.transactions", lambda a, k, r: _n(r))
    put(TransactionDatabase, "_vertical_matrix",
        "datasets.transactions.matrix", "datasets.transactions")
    put(apriori, "prefix_join_candidates", "util.prefix.join", "util.prefix",
        lambda a, k, r: _n(r))
    put(apriori, "maximize_family", "util.antichain.maximize",
        "util.antichain", lambda a, k, r: {"in": len(a[0]), "out": len(r)})
    put(cli, "mine_frequent_itemsets", "mining.run", "mining", _oracle)
    put(frequent, "apriori", "mining.apriori", "mining")
    for owner in (frequent, incremental, state):
        put(owner, "eclat", "mining.eclat", "mining")
    for owner in (eclat, incremental):
        put(owner, "_maximal_from_supports", "mining.eclat.maximal", "mining")
    put(pmmcs, "mmcs_transversals_parallel", "parallel.mmcs", "parallel")
    put(pool.WorkerPool, "__init__", "parallel.pool.start", "parallel")
    put(steal.StealScheduler, "run", "parallel.steal.run", "parallel")
    put(hypergraph.Hypergraph, "from_sets", "hypergraph.build", "hypergraph",
        lambda a, k, r: {"n": len(r.edge_masks)}, classmethod)
    put(cli, "minimal_transversals", "hypergraph.transversals", "hypergraph",
        lambda a, k, r: _n(r))
    put(state.ServiceCore, "__init__", "service.state.init", "service")
    put(state.ServiceCore, "mine", "service.state.mine", "service")
    put(state.ServiceCore, "digest", "service.state.digest", "service")
    put(state.ServiceCore, "compact", "service.state.compact", "service")
    put(admission.AdmissionController, "acquire", "service.admission.wait",
        "service")
    put(state, "apply_append", "service.incremental.repair", "service",
        lambda a, k, r: {"n": r[1].evaluated, "remined": int(r[1].remined)})
    # ``repro serve`` prints its ready banner once this returns.
    put(server.MiningServer, "start_background", "service.server.start",
        "service")
    put(server._Handler, "_dispatch", "service.request", "service")
    put(server._Handler, "_send_json", "service.server.encode", "service")
    put(server._Handler, "_send_bytes", "service.server.send", "service",
        lambda a, k, r: {"n": len(a[2])})

    # The WAL's growth per append is its record size in bytes.
    original_append = wal.WriteAheadLog.append

    def sized_append(log, kind, tracer=None, **payload):
        before = log._file.tell() if log._file is not None else 0
        seq = original_append(log, kind, tracer=tracer, **payload)
        return seq, log._file.tell() - before

    timed_append = recorder.wrap(
        "service.wal.append", "service", sized_append,
        lambda a, k, r: {"rows": len(k.get("rows", ())), "bytes": r[1]},
    )
    wal.WriteAheadLog.append = (
        lambda log, kind, tracer=None, **payload:
        timed_append(log, kind, tracer=tracer, **payload)[0]
    )


def child_main(argv: list[str]) -> int:
    out = argv[argv.index("--out") + 1]
    program = argv[argv.index("--") + 1:]
    recorder = Recorder()
    import_start = time.perf_counter()
    import repro.cli as cli

    import_end = time.perf_counter()
    recorder.spans.append(["cli.import", "cli", threading.get_ident(),
                           import_start, import_end, -1, None])
    _patch(recorder)
    code = cli.main(program)
    sys.stdout.flush()
    recorder.dump(out)
    return code


# -- spans to per-layer metrics -------------------------------------------


def unit(metric: str) -> str:
    """The unit of a per-layer metric, from its name's suffix."""
    for suffix, name in (("_per_s", "1/s"), ("_s", "s"), ("_us", "us"),
                         ("_frac", "fraction"), ("bytes_per_row", "bytes/row"),
                         ("bytes", "bytes")):
        if metric.endswith(suffix):
            return name
    return "count"


def _serve_scope(trace: dict):
    """Only set-up (spans ended by the banner) and request handling
    (``service.request`` trees) count for ``serve``; parents re-indexed."""
    spans = trace["spans"]
    ready = max(span[4] for span in spans
                if span[0] == "service.server.start")
    keep = []
    for span in spans:
        root = span
        while root[5] >= 0:
            root = spans[root[5]]
        keep.append(root[0] == "service.request" or span[4] <= ready)
    new_index, kept = {}, []
    for index, span in enumerate(spans):
        if keep[index]:
            new_index[index] = len(kept)
            kept.append([*span[:5], new_index.get(span[5], -1), span[6]])
    summed = [[name, layer, new_index[parent], *rest]
              for name, layer, parent, *rest in trace["summed"]
              if parent in new_index]
    return kept, summed


def layer_metrics(trace: dict, wall_s: float, serve: bool = False) -> dict:
    """Per-layer metrics of one traced run.

    ``wall_s`` is the spawn-to-exit time of a traced CLI invocation, or
    the spawn-to-banner time of a traced server.  The layer self times
    plus ``trace.unattributed_s`` add up to ``trace.wall_s``: that wall,
    and for ``serve`` also the handling time of every request, summed
    over the handler threads (requests overlap, so this is thread time).
    """
    if serve:
        spans, summed = _serve_scope(trace)
        wall_s += sum(end - start for name, _, _, start, end, parent, _
                      in spans if name == "service.request" and parent < 0)
    else:
        spans, summed = trace["spans"], trace["summed"]
    child = [0.0] * len(spans)
    for span in spans:
        if span[5] >= 0:
            child[span[5]] += span[4] - span[3]
    for _, _, parent, seconds, _ in summed:
        if parent >= 0:
            child[parent] += seconds
    layer_self = dict.fromkeys(LAYERS, 0.0)
    total, own, calls, counts = {}, {}, {}, {}
    for index, span in enumerate(spans):
        name, layer, _, start, end, _, span_counts = span
        self_s = end - start - child[index]
        layer_self[layer] += self_s
        total[name] = total.get(name, 0.0) + end - start
        own[name] = own.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        for key, value in (span_counts or {}).items():
            counts[name, key] = counts.get((name, key), 0) + value
    output_s = 0.0
    for _, layer, _, seconds, _ in summed:
        layer_self[layer] += seconds
        output_s += seconds

    def t(name):
        return total.get(name, 0.0)

    def c(name, key="n"):
        return counts.get((name, key), 0)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {
        "cli.import_s": t("cli.import"),
        "cli.output_s": output_s,
        "datasets.fimi.read_s": t("datasets.fimi.read"),
        "datasets.fimi.scan_s": t("datasets.fimi.scan"),
        "datasets.fimi.parse_s": own.get("datasets.fimi.read", 0.0),
        "datasets.transactions.build_s": t("datasets.transactions.build"),
        "datasets.transactions.rows": c("datasets.transactions.build"),
        "datasets.transactions.count_s": t("datasets.transactions.count"),
        "datasets.transactions.count_calls":
            calls.get("datasets.transactions.count", 0),
        "datasets.transactions.count_masks": c("datasets.transactions.count"),
        "datasets.transactions.masks_per_s": ratio(
            c("datasets.transactions.count"), t("datasets.transactions.count")
        ),
        "datasets.transactions.matrix_s": t("datasets.transactions.matrix"),
        "util.prefix.join_s": t("util.prefix.join"),
        "util.prefix.candidates": c("util.prefix.join"),
        "util.antichain.maximize_s": t("util.antichain.maximize"),
        "util.antichain.maximize_in": c("util.antichain.maximize", "in"),
        "util.antichain.maximize_out": c("util.antichain.maximize", "out"),
        "mining.apriori_s": t("mining.apriori"),
        "mining.apriori.self_s": own.get("mining.apriori", 0.0),
        "mining.eclat.maximal_s": t("mining.eclat.maximal"),
        "core.oracle.queries": c("mining.run", "queries"),
        "core.oracle.useful_frac": ratio(
            c("mining.run", "theory") + c("mining.run", "negative"),
            c("mining.run", "queries"),
        ),
        "parallel.mmcs_s": t("parallel.mmcs"),
        "parallel.pool.start_s": t("parallel.pool.start"),
        "parallel.steal.run_s": t("parallel.steal.run"),
        "hypergraph.build_s": t("hypergraph.build"),
        "hypergraph.edges": c("hypergraph.build"),
        "hypergraph.transversals_s": t("hypergraph.transversals"),
        "hypergraph.transversals": c("hypergraph.transversals"),
        "hypergraph.per_output_us": 1e6 * ratio(
            t("hypergraph.transversals"), c("hypergraph.transversals")
        ),
        "service.state.init_s": t("service.state.init"),
        "service.admission.wait_s": t("service.admission.wait"),
        "service.wal.append_s": t("service.wal.append"),
        "service.wal.records": calls.get("service.wal.append", 0),
        "service.wal.bytes_per_row": ratio(
            c("service.wal.append", "bytes"), c("service.wal.append", "rows")
        ),
        "service.incremental.repair_s": t("service.incremental.repair"),
        "service.incremental.evaluated": c("service.incremental.repair"),
        "service.incremental.remines":
            c("service.incremental.repair", "remined"),
        "service.state.digest_s": t("service.state.digest"),
        "service.state.digests": calls.get("service.state.digest", 0),
        "service.state.compact_s": t("service.state.compact"),
        "service.state.compactions": calls.get("service.state.compact", 0),
        "service.state.mine_s": t("service.state.mine"),
        "service.server.encode_s": own.get("service.server.encode", 0.0),
        "service.server.response_bytes": ratio(
            c("service.server.send"), calls.get("service.server.send", 0)
        ),
    }
    for layer in LAYERS:
        if layer != "core.oracle":  # no timed call: its metrics are counts
            metrics[f"{layer}.self_s"] = layer_self[layer]
    metrics["trace.wall_s"] = wall_s
    metrics["trace.unattributed_s"] = wall_s - sum(layer_self.values())
    return metrics


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
