"""Exact inference results over a seeded corpus of processes.

The digests were captured from the inference layer that spelled each head
constraint as a class of its own (`CEnd`, `CIn`, `COut`, `CSel`, `CBra`).
They pin every observable of `infer`: typability, the minimum type, the
failure text and node, the derived constraints in order, tr(C), the root
after tr, the minimum graph (init, edges, Skip, labels, node sets, sort
equations) and the sort-solved graph.  A change that keeps the answers but
reorders or renumbers constraints, fresh type variables or sort variables
fails here.

The main digest records tr(C) sorted.  The second pins tr(C) in order,
in fresh interpreters under two values of PYTHONHASHSEED: tr(C) is a set
in first-occurrence order, the links it keeps last, and a joined
variable's heads are gathered along the links in list order, never the
iteration order of a set, so neither order may depend on the hash seed.
Both digests moved when tr(C) became a set: the corpus held 246 duplicate
tr constraints in 190 processes (8,905 -> 8,659).  They moved again when
tr(C) kept the joined links in place of copying heads onto their targets
(8,659 -> 8,832: 943 links in 382 processes, 770 copied heads gone); the
list order of each minimum graph's sort equations did not move.

The third pins the answers with tr(C) as a set: the sorted set of tr(C),
the root after tr, the minimum graph with its node sets and the set of its
sort equations, the sort-solved graph, and each failure's text and node.
It moved with the links too.  The same record without tr(C) pins what
inference answers however tr(C) is spelled, and did not move.

The fourth pins each typable process's sort-solved graph quotiented by
bisimulation, every field of it, as the pipelines receive it.
"""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

from conftest import graph_record, rand_local, rand_process
from mpstk.ast import is_closed
from mpstk.inference import (
    Untypable, eliminate_transitive, gen_lcm_process, infer, show_constraint,
)
from mpstk.pipeline import synth_process
from mpstk.printer import show
from mpstk.typegraph import graph_text, quotient


def _processes():
    """1,000 random processes, 300 processes synthesised from random closed
    local types, and four points of the lcm family."""
    rng = random.Random(12)
    out = [rand_process(rng, rng.randint(2, 10)) for _ in range(1000)]
    while len(out) < 1300:
        t = rand_local(rng, rng.randint(2, 9))
        if is_closed(t):
            out.append(synth_process(t))
    out += [gen_lcm_process(d) for d in ([2, 3], [2, 3, 5], [3, 4], [4, 6])]
    return out


def _graph(g):
    return (g.init, g.skip, [[(repr(a), m) for a, m in out] for out in g.edges],
            [g.label(n) for n in range(g.node_count())])


def _failure(r):
    """The failure's text and sorted node, each None where there is none."""
    e = r.error
    return (None, None) if e is None else (str(e), sorted(e.node) if e.node else None)


def _record(p, ordered_tr=False):
    try:
        r = infer(p)
    except Untypable as e:
        return ("underivable", str(e))
    d = r.derivation
    tr = [show_constraint(c) for c in r.tr_constraints]
    rec = (r.typable, *_failure(r),
           d.root, d.judgements, [show_constraint(c) for c in d.constraints],
           eliminate_transitive(d.constraints, d.root)[1],
           tr if ordered_tr else sorted(tr))
    if not r.typable:
        return rec
    mg = r.min_graph
    return rec + (show(r.min_type), _graph(mg.graph), [sorted(s or ()) for s in mg.graph.desc],
                  [show_constraint(c) for c in mg.sort_eqs], _graph(r.graph))


def _digest(ordered_tr=False):
    records = [_record(p, ordered_tr) for p in _processes()]
    assert len(records) == 1304
    assert sum(r[0] is True for r in records) == 852  # typable
    return hashlib.sha256(repr(records).encode()).hexdigest()


def _answer(p):
    try:
        r = infer(p)
    except Untypable as e:
        return ("underivable", str(e))
    rec = (r.typable, *_failure(r),
           eliminate_transitive(r.derivation.constraints, r.derivation.root)[1],
           sorted({show_constraint(c) for c in r.tr_constraints}))
    if not r.typable:
        return rec
    mg = r.min_graph
    return rec + (_graph(mg.graph), [sorted(s or ()) for s in mg.graph.desc],
                  sorted({show_constraint(c) for c in mg.sort_eqs}), _graph(r.graph))


DUMP_SHA256 = "71322f225d42a071ac4373f937f6d2d56a2b62d8ff6e4d23083377f38ee1865f"
ORDERED_TR_SHA256 = "5d1a3bd896fe7b776f1c7832969b9669e51370d520fedf07df599070403c820e"
ANSWERS_SHA256 = "a9f92411d4ee2f688ccada3f007c3aa35c980916078a40a857f54e4e3a66f04f"
ANSWERS_WITHOUT_TR_SHA256 = "e6a4d50374862a3b4b71c0a2ff5a541ef19020595f3b20cd93eb306f6985b30c"
QUOTIENT_SHA256 = "e600d54c95bf41d449517fd1418459a21117fcafe0f826636dc38f33be4cbbce"


def test_inference_dump_is_exact():
    assert _digest() == DUMP_SHA256


def test_inference_answers_are_exact():
    records = [_answer(p) for p in _processes()]
    assert sum(r[0] is True for r in records) == 852  # typable
    assert hashlib.sha256(repr(records).encode()).hexdigest() == ANSWERS_SHA256


def test_inference_answers_without_tr_are_exact():
    records = [r if r[0] == "underivable" else r[:4] + r[5:] for r in map(_answer, _processes())]
    assert sum(r[0] is True for r in records) == 852  # typable
    assert hashlib.sha256(repr(records).encode()).hexdigest() == ANSWERS_WITHOUT_TR_SHA256


def test_quotiented_minimum_graphs_are_exact():
    """quotient(infer(p).graph), as `pipeline._minima` hands it on, for each
    typable process."""
    records = []
    for p in _processes():
        try:
            r = infer(p)
        except Untypable:
            continue
        if r.typable:
            records.append(graph_record(quotient(r.graph)))
    assert len(records) == 852
    assert hashlib.sha256(repr(records).encode()).hexdigest() == QUOTIENT_SHA256


def test_printed_minimum_graph_is_the_printed_minimum_type():
    """`mpstk infer` prints the minimum graph, never building its type."""
    typable = 0
    for p in _processes():
        try:
            r = infer(p)
        except Untypable:
            continue
        if r.typable:
            assert graph_text(r.graph, r.graph.init) == show(r.min_type)
            typable += 1
    assert typable == 852


def test_tr_order_under_a_fixed_hash_seed():
    here = Path(__file__).resolve().parent
    code = "import test_golden_inference as t; print(t._digest(ordered_tr=True))"
    for hash_seed in ("0", "123"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, cwd=here)
        assert run.returncode == 0, run.stderr[-2000:]
        assert run.stdout.strip() == ORDERED_TR_SHA256, hash_seed
