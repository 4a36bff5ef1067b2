"""Exact liveness verdicts and counterexample traces, exact safety and
deadlock-freedom verdicts on the same corpus, and the fair core against the
round-based refinement it replaced.

The digest and the explicit traces were captured from the round-based
fair-cycle refinement and pin the checker: a change to the liveness search
that keeps the verdicts but starves a different barb, picks another
component or member, or walks the cycle in another order fails here.  The
safety and deadlock-freedom digest was captured from the context LTS that
re-derived each participant's head per state, and the rendering digests
(one for trace text, one for DOT) from the LTS that built and printed a
local type per (participant, node).  The inputs are seeded, so the digests are the same
under any PYTHONHASHSEED.
"""

import hashlib
import random
from collections import Counter

import pytest

from conftest import balanced_globals, rand_context, rand_qbf
from mpstk import context
from mpstk.ast import participants, typing_context
from mpstk.context import (
    check_deadlock_freedom, check_liveness, check_safety, observations, reachable_graph,
)
from mpstk.hardness import gen_qbf_context, parse_qbf
from mpstk.parse import parse
from mpstk.projection import FULL, ProjUndefined, project_inductive
from mpstk.typegraph import sccs


@pytest.fixture(scope="module")
def contexts():
    """100 live QBF gadgets, the non-None contexts of 1,500 random draws,
    and the full projections of 200 balanced globals (where defined); built
    once for the four digests."""
    rng = random.Random(7)
    out = []
    for _ in range(100):
        f = rand_qbf(rng, rng.randint(1, 2), rng.randint(1, 2))
        out.append(gen_qbf_context(f, "live"))
    for _ in range(1500):
        ctx = rand_context(rng, 5)
        if ctx is not None:
            out.append(ctx)
    for g in balanced_globals(rng, 200, 8):
        pts = sorted(participants(g))
        if not pts:
            continue
        try:
            out.append(typing_context((p, project_inductive(g, p, FULL)) for p in pts))
        except ProjUndefined:
            continue
    return out


def _record(ctx):
    v = check_liveness(ctx)
    t = v.trace
    if t is None:
        return (v.holds, v.states, v.edges, None, None, None)
    return (v.holds, v.states, v.edges,
            [(i, str(lab)) for i, lab in t.steps], t.final, t.cycle_start)


DUMP_SHA256 = "6e2dc8571f8467b28e1d8731e73283d2e595306255e622895038ce459339dac0"


def test_liveness_dump_is_exact(contexts):
    records = [_record(ctx) for ctx in contexts]
    assert len(records) == 1710
    assert sum(r[0] for r in records) == 828  # live
    assert sum(r[5] is not None for r in records) == 25  # fair lassos
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == DUMP_SHA256


def _finite_record(v):
    t = v.trace
    if t is None:
        return (v.holds, v.states, v.edges, None, None)
    return (v.holds, v.states, v.edges, [(i, str(lab)) for i, lab in t.steps], t.final)


SAFETY_DF_SHA256 = "e773cc8aa4fd0379b14f0b20a6c94d59e68d5c0036561231c345e61d686528bf"


def test_safety_and_df_dump_is_exact(contexts):
    """Safety and deadlock-freedom verdicts and their finite traces on the
    liveness corpus, plus every reachable state's safe and stuck flags."""
    records = []
    flags = Counter()
    for ctx in contexts:
        safety, df = check_safety(ctx), check_deadlock_freedom(ctx)
        records.append((_finite_record(safety), _finite_record(df)))
        lts = safety.graph.lts
        for s in safety.graph.states:
            flags.update(states=1, unsafe=not lts.is_safe_state(s),
                         stuck=not lts.sync_steps(s) and not lts.all_end(s))
    assert sum(s[0] for s, _ in records) == 1655  # safe
    assert sum(d[0] for _, d in records) == 853  # deadlock-free
    assert flags == Counter(states=6286, unsafe=55, stuck=857)
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == SAFETY_DF_SHA256


FAIR_LASSOS = [
    ("p: rec t. q+{l2: t, l3: t}, q: rec t. p&{l2: t, l3: t}, r: p?(int); end",
     [(0, "pq:l2"), (0, "pq:l3")], 0, 0),
    ("p: rec t. q&{l1: q+{l3: q&{l1: t}}}, q: rec t. p+{l1: p&{l3: p+{l1: t}}}, "
     "r: s?(bool); end",
     [(0, "qp:l1"), (1, "pq:l3"), (2, "qp:l1"), (0, "qp:l1"), (1, "pq:l3"),
      (2, "qp:l1"), (0, "qp:l1"), (1, "pq:l3")], 2, 2),
    ("p: q&{l4: rec t. q!(bool); rec u. q&{l1: t}}, "
     "q: p+{l4: rec t. p?(bool); rec u. p+{l1: t}}, r: p?(int); end",
     [(0, "qp:l4"), (1, "pq"), (2, "qp:l1"), (1, "pq")], 2, 2),
]


@pytest.mark.parametrize("text,steps,final,cycle_start", FAIR_LASSOS)
def test_fair_lasso_trace_is_exact(text, steps, final, cycle_start):
    v = check_liveness(parse("context", text))
    assert not v.holds
    t = v.trace
    assert [(i, str(lab)) for i, lab in t.steps] == steps
    assert (t.final, t.cycle_start) == (final, cycle_start)


# ---------------------------------------------------------------------------
# Oracle: the round-based refinement


def _reference_core(rg, barb):
    """Test oracle, the refinement the checker used before the incremental
    fair core.  Restrict to the states with no enabled reduction observing
    `barb`, then rerun Tarjan on all surviving states and drop the states
    whose enabled labels their component cannot cover (and trivial
    components) until a round drops nothing.  Returns the sorted surviving
    states, (component, first member with the barb) or None, and the number
    of rounds."""
    enabled = {}
    alive = set()
    for i in range(len(rg.states)):
        labs = {lab for lab, _ in rg.edges[i]}
        enabled[i] = labs
        if not any(barb in observations(lab) for lab in labs):
            alive.add(i)
    rounds = 0
    while True:
        rounds += 1
        succ = {i: [j for lab, j in rg.edges[i] if j in alive] for i in alive}
        comps = sccs(sorted(alive), succ)
        removed = False
        for comp in comps:
            compset = set(comp)
            internal = {lab for i in comp for lab, j in rg.edges[i] if j in compset}
            trivial = len(comp) == 1 and not any(j == comp[0] for lab, j in rg.edges[comp[0]])
            for i in comp:
                if trivial or not enabled[i] <= internal:
                    alive.discard(i)
                    removed = True
        if not removed:
            break
    for comp in comps:
        for i in comp:
            if barb in rg.lts.barbs(rg.states[i]):
                return sorted(alive), (comp, i), rounds
    return sorted(alive), None, rounds


# a component that loses a state, and whose survivor then loses its cycle
RESPLIT = ("p: rec t. q+{a: t, b: rec u. q+{c: u, d: t, e: end}}, "
           "q: rec t. p&{a: t, b: rec u. p&{c: u, d: t, e: end}}, r: s?(bool); end")


def test_fair_core_equals_reference_on_every_barb():
    rng = random.Random(11)
    graphs = [reachable_graph(parse("context", RESPLIT))]
    while len(graphs) < 301:
        ctx = rand_context(rng, rng.choice([5, 6, 7, 8]))
        if ctx is not None:
            graphs.append(reachable_graph(ctx))
    for _ in range(30):
        f = rand_qbf(rng, rng.randint(1, 3), rng.randint(1, 2))
        graphs.append(reachable_graph(gen_qbf_context(f, "live")))
    seen = Counter()
    for rg in graphs:
        fair = context._FairCycles(rg)
        for barb in sorted(fair.members, key=str):
            core, found, rounds = _reference_core(rg, barb)
            assert sorted(fair.core(barb)) == core
            assert fair.starving(barb) == found
            seen.update(barbs=1, nonempty=bool(core), found=found is not None,
                        resplit=rounds > 2)
    assert seen == Counter(barbs=1651, nonempty=67, found=7, resplit=9)


def _watch_search(monkeypatch):
    """Record each `_trim` call, as {starting set: its trimmed states}
    with each set given as its states, and each `_split` group."""
    trims, groups = [], []
    trim, split = context._FairCycles._trim, context._FairCycles._split

    def watch_trim(self, starts):
        starts = list(starts)
        trim(self, starts)
        trims.append({tuple(i for i, m in enumerate(self.enabled) if m in start):
                      self._trimmed[start] for start in starts})

    monkeypatch.setattr(context._FairCycles, "_trim", watch_trim)
    monkeypatch.setattr(context._FairCycles, "_split",
                        lambda self, group: groups.append(tuple(group)) or split(self, group))
    return trims, groups


def _starting_sets(rg):
    """barb -> its starting set: the states none of whose enabled labels
    observe it."""
    barbs = set().union(*map(rg.lts.barbs, rg.states))
    return {b: tuple(i for i, row in enumerate(rg.edges)
                     if not any(b in observations(lab) for lab, _ in row)) for b in barbs}


def test_liveness_shares_labels_and_starting_sets(monkeypatch):
    """`observations` runs once per distinct label, and on a true-live
    gadget one pass trims every distinct starting set that holds a state
    offering its barb, each to nothing, so no SCC is ever split."""
    ctx = gen_qbf_context(parse_qbf("A x1. E x2. A x3. (x1 | x2 | x3) & (~x1 | ~x2 | x3)"), "live")
    observed = Counter()
    monkeypatch.setattr(context, "observations",
                        lambda lab: observed.update([lab]) or observations(lab))
    trims, groups = _watch_search(monkeypatch)
    v = check_liveness(ctx)
    assert v.holds
    rg = v.graph
    assert observed == Counter({lab for row in rg.edges for lab, _ in row})
    starts = {start for b, start in _starting_sets(rg).items()
              if any(b in rg.lts.barbs(rg.states[i]) for i in start)}
    assert len(trims) == 1 and set(trims[0]) == starts and len(starts) > 1
    assert not any(trims[0].values()) and groups == []


def test_liveness_splits_each_set_left_by_the_trim(monkeypatch):
    """On the fair loop of p and q with r left waiting, the trim keeps the
    one state in the starting set of r's barb: asked for every barb's core,
    the search trims each distinct starting set once, and splits each set
    left non-empty once, from its trimmed states."""
    ctx = parse("context", "p: rec t. q+{a: t, b: t}, q: rec u. p&{a: u, b: u}, r: s?(bool); end")
    rg = reachable_graph(ctx)
    trims, groups = _watch_search(monkeypatch)
    fair = context._FairCycles(rg)
    for barb in sorted(fair.members, key=str):
        fair.core(barb)
    trimmed = {start: kept for trim in trims for start, kept in trim.items()}
    assert sum(map(len, trims)) == len(trimmed) == len(set(_starting_sets(rg).values()))
    assert trimmed[(0,)] == [0] and groups == [tuple(k) for k in trimmed.values() if k]


def _rendering_digests(contexts):
    """Two sha256 digests: one over every `Trace.rendered()` string of the
    safety, df and live verdicts on the corpus, and one over the DOT of the
    reachable graph, with the trace's states highlighted, for every 10th
    context."""
    traces, dots = hashlib.sha256(), hashlib.sha256()
    for k, ctx in enumerate(contexts):
        for prop, check in context.CHECKERS.items():
            v = check(ctx)
            marked = set()
            if v.trace is not None:
                traces.update(f"{k} {prop}\n".encode())
                for text in v.trace.rendered():
                    traces.update(f"{text}\n".encode())
                marked = set(v.trace.states())
            if k % 10 == 0:
                dots.update(context.dot_context_graph(v.graph, marked).encode())
    return traces.hexdigest(), dots.hexdigest()


TRACES_SHA256 = "5d840933003689f8d14f1aeef7ae4ca18595b8c593912a9b860e592e2bc31399"
DOT_SHA256 = "a548d5ee3f48f7c4579601740e41728764af4b7ad9f3dec806b51ab943576fb5"


def test_rendered_traces_and_dot_are_exact(contexts):
    """Traces and DOT text, each pinned by its own digest, so a change to
    one shows that the other did not move."""
    assert _rendering_digests(contexts) == (TRACES_SHA256, DOT_SHA256)
