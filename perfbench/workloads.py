"""The workloads: seeded inputs, in-process references, output checks.

Every workload fixes the *shape* of its instance with a base generator
seed, so the mining work is the one measured when the workloads were
chosen (sizes below).  The run's ``--seed`` then draws
an isomorphic copy: a random relabelling of the items (attributes for
the FD hypergraph), a shuffled row order and, for ``serve-mix``, the
order of the appended rows.  Every seed therefore costs the same work
while handing the program different bytes, label orders and hash
layouts.  A fresh Quest pattern pool per seed would not: at these
parameters one seed mines in 3 s and the next in 90 s.

The program only ever sees the files and argv built here.  The
references come from in-process library calls on the generated rows,
never from the files, so an ingest defect shows as a mismatch.
"""

from __future__ import annotations

import json
import os
import random

import numpy as np
from repro.datasets.relations import Relation, generate_relation_with_keys
from repro.datasets.synthetic import QuestParameters, generate_quest_database
from repro.datasets.transactions import TransactionDatabase
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.enumeration import minimal_transversals
from repro.mining.eclat import eclat
from repro.util.bitset import Universe, iter_bits

#: Linux's limit on one argv string (MAX_ARG_STRLEN).
MAX_ARG_BYTES = 128 * 1024

#: Rows per ``/append`` request and appends per serve session.
APPEND_ROWS = 5
SESSION_APPENDS = 20
#: Rows drawn for the append stream; sessions cycle through them.
APPEND_POOL = 2000

#: Sizes hold at every seed.  Two more workloads were measured and
#: dropped because on a 2-vCPU host their run-to-run spread of wall time
#: exceeded its bound: apriori at 0.03 (Bd+ extraction dominated), and
#: ``mine --algorithm eclat --workers 2`` at 0.02, both on Quest
#: items=100 rows=20000 avg-len=12 pattern-len=6.  The parallel layer is
#: measured on ``transversals-fd`` instead, which runs MMCS on two
#: workers; three workloads leave room for longer runs.
#:
#: ``"cpus": 1`` confines a whole run (the program, its workers and the
#: serve-mix clients) to one CPU.  The two multi-process workloads have
#: it: on a 2-vCPU host a neighbour taking one vCPU stretched them by
#: 40-100% for minutes at a time, and the 10-seed spread of wall_s (0.28
#: on parallel eclat) passed its bound, while single-process workloads
#: moved by a few percent.  On one CPU, ``transversals-fd`` measures what
#: the parallel layer costs, not what it gains.
WORKLOADS = {
    # |MTh| = 8373, |Bd-| = 55685
    "mine-sparse": {
        "kind": "mine",
        "quest": {"n_items": 200, "n_transactions": 100_000,
                  "avg_transaction_length": 10},
        "base_seed": 1,
        "argv": ["--min-support", "0.005"],
        "min_support": 0.005,
    },
    # 1616 edges, 67260 minimal transversals (the relation's minimal
    # keys); the only workload on the parallel layer (pool start, work
    # stealing, ordered fold)
    "transversals-fd": {
        "cpus": 1,
        "kind": "transversals",
        "relation": {"n_attributes": 24, "n_rows": 80, "domain_size": 3},
        "base_seed": 1,
        "argv": ["--method", "mmcs", "--workers", "2"],
    },
    # |Th| = 3772 before the first append; /mine returns about 210 KB
    "serve-mix": {
        "cpus": 1,
        "kind": "serve",
        "quest": {"n_items": 60, "n_transactions": 5000,
                  "avg_transaction_length": 8},
        "base_seed": 3,
        "argv": ["--compact-every", "16", "--min-support", "0.03"],
        "min_support": 0.03,
    },
}


# -- inputs --------------------------------------------------------------


def _quest_rows(spec: dict, extra_rows: int = 0) -> tuple[list[int], int]:
    """The base instance's rows as masks over item ids ``0..n-1``."""
    params = dict(spec["quest"])
    params["n_transactions"] += extra_rows
    database = generate_quest_database(
        QuestParameters(**params), seed=spec["base_seed"]
    )
    return list(database.transaction_masks), params["n_items"]


def _relabel(rows: list[int], perm: list[int]) -> list[int]:
    out = []
    for row in rows:
        mask = 0
        for item in iter_bits(row):
            mask |= 1 << perm[item]
        out.append(mask)
    return out


def _write_dat(rows: list[int], path: str) -> None:
    with open(path, "w", encoding="ascii") as handle:
        for row in rows:
            handle.write(" ".join(map(str, iter_bits(row))))
            handle.write("\n")


def _database(rows: list[int]) -> TransactionDatabase:
    """An in-process database over the item ids the rows use, built
    without the program's FIMI reader."""
    present = 0
    for row in rows:
        present |= row
    items = list(iter_bits(present))
    if present & (present + 1):  # ids with gaps: renumber to indices
        index = {item: position for position, item in enumerate(items)}
        rows = [sum(1 << index[i] for i in iter_bits(row)) for row in rows]
    return TransactionDatabase(Universe(items), rows)


def _mine_reference(spec: dict, rows: list[int]) -> dict:
    database = _database(rows)
    threshold = database.absolute_support(spec["min_support"])
    result = eclat(database, threshold)
    universe = database.universe
    maximal = [sorted(universe.to_set(mask)) for mask in result.maximal]
    theory_size = len(result.supports)
    negative = len(result.negative_border)
    return {
        "rows": database.n_transactions,
        "items": len(universe),
        "maximal": len(result.maximal),
        "negative": negative,
        "theory": theory_size,
        # Apriori is levelwise: Theorem 10 fixes its queries at |Th ∪ Bd-|.
        "queries": theory_size + negative,
        "shown": maximal[:20],
    }


def _fd_edges(spec: dict, rng: random.Random) -> list[int]:
    shape = spec["relation"]
    base = generate_relation_with_keys(
        shape["n_attributes"], shape["n_rows"],
        domain_size=shape["domain_size"], seed=spec["base_seed"],
    )
    n = shape["n_attributes"]
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [tuple(row[perm[i]] for i in range(n)) for row in base.rows]
    rng.shuffle(rows)
    full = (1 << n) - 1
    relation = Relation(range(n), rows)
    return [full & ~mask for mask in relation.maximal_agree_set_masks()]


def _edges_arg(edges: list[int]) -> str:
    return ", ".join(" ".join(map(str, iter_bits(edge))) for edge in edges)


def prepare(name: str, seed: int, cache_root: str) -> dict:
    """Build (or load from the per-seed cache) one workload's inputs.

    Returns a dict with the program's ``argv`` tail and ``reference``;
    ``serve`` workloads also get the append ``batches``.
    """
    spec = WORKLOADS[name]
    directory = os.path.join(cache_root, name, f"seed-{seed}")
    done = os.path.join(directory, "prepared.json")
    if os.path.exists(done):
        with open(done, encoding="utf-8") as handle:
            return json.load(handle)
    os.makedirs(directory, exist_ok=True)
    rng = random.Random(seed)
    kind = spec["kind"]
    if kind == "transversals":
        edges = _fd_edges(spec, rng)
        text = _edges_arg(edges)
        if len(text.encode("ascii")) >= MAX_ARG_BYTES:
            raise RuntimeError(
                f"{name} seed {seed}: --edges is {len(text)} bytes, over "
                f"the {MAX_ARG_BYTES}-byte argv limit"
            )
        hypergraph = Hypergraph.from_sets(
            [list(iter_bits(edge)) for edge in edges]
        )
        family = minimal_transversals(hypergraph, method="mmcs")
        prepared = {
            "argv": ["transversals", "--edges", text, *spec["argv"]],
            "reference": {
                "edges": edges,
                "transversals": len(family),
                "sample_seed": seed,
            },
        }
    else:
        pool = APPEND_POOL if kind == "serve" else 0
        rows, n_items = _quest_rows(spec, pool)
        perm = list(range(n_items))
        rng.shuffle(perm)
        rows = _relabel(rows, perm)
        base, stream = rows[: len(rows) - pool], rows[len(rows) - pool:]
        rng.shuffle(base)
        dat = os.path.join(directory, "input.dat")
        _write_dat(base, dat)
        if kind == "mine":
            prepared = {
                "argv": ["mine", dat, *spec["argv"]],
                "reference": _mine_reference(spec, base),
            }
        else:
            prepared = _serve_inputs(spec, dat, base, stream, rng)
    tmp = done + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(prepared, handle)
    os.replace(tmp, done)
    return prepared


def _serve_inputs(spec, dat, base, stream, rng) -> dict:
    database = _database(base)
    universe = database.universe
    known = set(universe.items)
    rng.shuffle(stream)
    batches = []
    for start in range(0, len(stream), APPEND_ROWS):
        batch = []
        for row in stream[start:start + APPEND_ROWS]:
            items = set(iter_bits(row))
            if not items <= known:
                raise RuntimeError("append row uses an item the base lacks")
            batch.append(universe.to_mask(items))
        batches.append(batch)
    return {
        "argv": ["serve", dat, *spec["argv"]],
        "base": database.transaction_masks,
        "items": list(universe.items),
        "threshold": database.absolute_support(spec["min_support"]),
        "batches": batches,
    }


def serve_reference(prepared: dict, appended: list[list[int]]) -> dict:
    """From-scratch eclat on the base rows plus every appended row."""
    rows = list(prepared["base"])
    for batch in appended:
        rows.extend(batch)
    database = TransactionDatabase(Universe(prepared["items"]), rows)
    result = eclat(database, prepared["threshold"])
    return {
        "maximal": sorted(result.maximal),
        "negative": sorted(result.negative_border),
    }


# -- output checks -------------------------------------------------------


def check_mine(text: str, reference: dict) -> str | None:
    """``None`` when ``repro mine`` printed the reference, else why not."""
    lines = text.splitlines()
    if len(lines) < 2:
        return "output too short"
    head = lines[0].split(": ", 1)[-1]
    want_head = f"{reference['rows']} rows, {reference['items']} items"
    if not head.startswith(want_head):
        return f"header {head!r}, expected {want_head!r}"
    want = (
        f"|MTh| = {reference['maximal']}, |Bd-| = {reference['negative']}, "
        f"queries = {reference['queries']}"
    )
    if lines[1] != want:
        return f"summary {lines[1]!r}, expected {want!r}"
    shown = [sorted(map(int, line.split())) for line in lines[2:]
             if not line.lstrip().startswith("...")]
    if shown != reference["shown"]:
        return "shown maximal sets differ from the reference"
    hidden = reference["maximal"] - len(shown)
    tail = lines[-1].strip()
    if hidden > 0 and tail != f"... ({hidden} more)":
        return f"trailer {tail!r}, expected {hidden} more"
    return None


def check_transversals(text: str, reference: dict) -> str | None:
    """``None`` when ``repro transversals`` printed exactly ``Tr(H)``.

    The check needs no transversal engine: every printed set must hit
    every edge, each of its vertices must have a private edge (an edge
    it alone hits, which makes the set minimal), and the sets must be
    distinct.  Completeness rests on the count, which must equal the
    in-process serial MMCS count, and on a sample of minimal transversals
    found by greedy vertex removal in random orders, each of which must
    have been printed.  Any minimal transversal is reachable that way,
    so a family missing a sizeable share of ``Tr(H)`` fails it.
    """
    lines = text.splitlines()
    want = f"{reference['transversals']} minimal transversals (mmcs):"
    if not lines or lines[0] != want:
        return f"header {lines[:1]!r}, expected {want!r}"
    printed = [sum(1 << int(v) for v in line.split()) for line in lines[1:]]
    if len(printed) != reference["transversals"]:
        return f"{len(printed)} sets printed under {want!r}"
    if len(set(printed)) != len(printed):
        return "a transversal is printed twice"
    edges = np.array(reference["edges"], dtype=np.int32)
    family = np.array(printed, dtype=np.int32)
    for start in range(0, len(family), 2048):
        sets = family[start:start + 2048]
        hit = sets[:, None] & edges[None, :]
        if not (hit != 0).all():
            return "a printed set misses an edge"
        single = (hit != 0) & ((hit & (hit - 1)) == 0)
        private = np.bitwise_or.reduce(np.where(single, hit, 0), axis=1)
        if not (private == sets).all():
            return "a printed set is not minimal"
    known = set(printed)
    rng = random.Random(reference["sample_seed"])
    vertices = list(iter_bits(int(np.bitwise_or.reduce(edges))))
    for _ in range(256):
        rng.shuffle(vertices)
        mask = sum(1 << v for v in vertices)
        for v in vertices:
            if (((mask & ~(1 << v)) & edges) != 0).all():
                mask &= ~(1 << v)
        if mask not in known:
            return "a minimal transversal is missing from the output"
    return None
