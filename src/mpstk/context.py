"""Typing-context transition system and the safety, deadlock-freedom and
liveness checkers.

States are tuples of type-graph node ids, one per participant (every type
reachable from T lives in the graph of T, so this interning is exact).
Reductions are the synchronised communications: a value exchange needs an
output and a matching input with the same payload sort, a label exchange
needs a selection whose label the branching side offers.

Liveness follows the counterwitness characterisation: a context is not
live iff some reachable state is stuck while not all-end (the finite
witness, which also refutes deadlock-freedom) or some barb can be starved
along a fair lasso.  A lasso is fair here in the strong, per-label sense
of the counterwitness definition: the set of labels it keeps taking must
equal the set of labels enabled anywhere along it, choice labels being
distinguished by their label.  The search builds its tables once per
check, with an index per distinct label and a set of labels as an int
mask over those indices.  A barb's starting set is the states none of
whose enabled reductions would discharge it; one bit-parallel pass trims
every distinct starting set at once, dropping the states that have no
successor or no predecessor left in the set (none lies on a cycle there).
It is the only trim: only the sets left non-empty are refined, each once,
by a worklist that keeps non-trivial SCCs covering every label enabled in
them and splits again only an SCC that lost a state, a state on no cycle
being a trivial SCC.  A brute-force enumerator of bounded paths and
lassos checks the same two counterwitness conditions literally and serves
as the oracle; one test, `_lasso_witness`, checks both, a finite maximal
path being the lasso with an empty cycle.

Each step of the checkers has one copy: `reachable_graph` is the one
breadth-first closure, `_stuck_trace` the one scan for the finite
counterwitness (deadlock-freedom and liveness share it), and `_path_to` the
one rebuild of a path from a BFS tree, the reachable graph's or the one
`_cover_walk` searches inside a component.

Two tables live for the process, and both are bounded: `_participant`, an
LRU cache of the last 16 (participant, type) entries of typing contexts,
each with its type graph and head rows, and `_TEXTS`, the state texts,
cleared whole before it passes `printer.TEXT_MEMO_BOUND` entries.  Several
LTSs share one cached graph, which nothing writes to once it is built.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import or_
from typing import NamedTuple

from .ast import BudgetExceeded, LocalT, TypingContext
from .printer import TEXT_MEMO_BOUND
from .typegraph import (
    BRA, ENDK, IN, OUT, SEL, TypeGraph, _extract_type, dot_text, graph_text, local_graph, sccs,
    text_rows, validate_type_graph,
)


class Label(NamedTuple):
    """Context LTS label.  kinds: out/in/sel/bra are single-participant
    moves (p acting toward q), comm/choice are the synchronised reductions
    (p sending to / selecting at q)."""

    kind: str
    p: str
    q: str
    arg: object = None

    def __str__(self):
        if self.kind == "comm":
            return f"{self.p}{self.q}"
        if self.kind == "choice":
            return f"{self.p}{self.q}:{self.arg}"
        if self.kind == "out":
            return f"!{self.p}{self.q}({self.arg})"
        if self.kind == "in":
            return f"?{self.p}{self.q}({self.arg})"
        op = "(+)" if self.kind == "sel" else "&"
        return f"{op}{self.p}{self.q} {self.arg}"


class Barb(NamedTuple):
    kind: str  # "out" | "in" | "sel" | "bra"
    p: str
    q: str

    def __str__(self):
        sym = {"out": "!", "in": "?", "sel": "(+)", "bra": "&"}[self.kind]
        return f"{sym}{self.p}{self.q}"


def observations(label: Label) -> frozenset[Barb]:
    """Barbs discharged by one synchronised reduction."""
    if label.kind == "comm":
        return frozenset([Barb("out", label.p, label.q), Barb("in", label.q, label.p)])
    if label.kind == "choice":
        return frozenset([Barb("sel", label.p, label.q), Barb("bra", label.q, label.p)])
    return frozenset()


State = tuple  # tuple of node ids, aligned with ContextLTS.participants
_DUAL = {OUT: IN, SEL: BRA}


class _Head(NamedTuple):
    """A participant at one node of its graph: the head kind, the peer's
    index (None if the peer is absent or the participant itself), the
    {arg: target} map, the sync edges (arg, Label, target) of an output or
    a selection, and the barb."""

    kind: str
    peer: int | None
    targets: dict
    sync: tuple
    barb: Barb | None


def _head_rows(p: str, g: TypeGraph) -> list[tuple]:
    """Participant p's `_Head` at each node of its graph g, but with the
    peer's name (None at end and Skip): no row depends on the context."""
    rows = []
    for n in range(g.node_count()):
        kind, edges = g.kind(n), g.out(n)
        if kind in (ENDK, "skip"):
            rows.append((kind, None, {}, (), None))
            continue
        q = edges[0][0].peer
        targets: dict = {}
        for a, m in edges:
            targets.setdefault(a.arg, m)
        sync = () if kind not in _DUAL else tuple(
            (a.arg, Label("comm", p, q) if kind == OUT else Label("choice", p, q, a.arg), m)
            for a, m in edges)
        rows.append((kind, q, targets, sync, Barb(kind, p, q)))
    return rows


@lru_cache(maxsize=16)
def _participant(p: str, t: LocalT) -> tuple[TypeGraph, list[tuple]]:
    """local_graph(t) and p's `_head_rows` of it, for the process, in a
    bounded LRU cache: both depend on p and t alone (t is hash-consed, so
    it is keyed by identity), and nothing writes to a graph once built."""
    g = local_graph(t)
    return g, _head_rows(p, g)


# desc[n] of a local-graph node (a hash-consed subformula) -> its graph_text,
# for the process: the text depends only on local_graph(desc[n]), the subgraph
# reachable from n up to numbering, so it is the same in every graph.
_TEXTS: dict[LocalT, str] = {}


class ContextLTS:
    """The LTS of a typing context or of {participant: local type graph}.
    Given graphs are checked here, before any is read, and their texts kept
    per LTS by (i, n), as their states name no type.  A context's graphs
    and head rows come from the per-process `_participant` cache, and its
    texts are kept in `_TEXTS`, per process too (module docstring).  A
    node's type is extracted once per LTS; `_heads[i][n]` is participant
    i's `_Head`, its peer looked up in this LTS's participants."""

    def __init__(self, ctx: TypingContext | dict[str, TypeGraph]):
        if type(ctx) is dict:
            for g in ctx.values():
                validate_type_graph(g)
            parts = [(g, _head_rows(p, g)) for p, g in ctx.items()]
            self.participants, self._texts = list(ctx), {}
        else:
            parts = [_participant(p, t) for p, t in ctx.entries]
            self.participants, self._texts = [p for p, _ in ctx.entries], _TEXTS
        self.graphs = [g for g, _ in parts]
        self.init: State = tuple(g.init for g in self.graphs)
        self._rows: dict[int, list] = {}  # participant -> text_rows of its graph
        self._types: dict[tuple[int, int], LocalT] = {}
        index = {p: i for i, p in enumerate(self.participants)}
        self._heads = [[_Head(kind, None if q == p else index.get(q), targets, sync, barb)
                        for kind, q, targets, sync, barb in rows]
                       for p, (_, rows) in zip(self.participants, parts)]

    def local_type(self, i: int, n: int) -> LocalT:
        """The local type of participant i at node n of its graph."""
        t = self._types.get((i, n))
        if t is None:
            t = self._types[i, n] = _extract_type(self.graphs[i], n)
        return t

    def context_of(self, state: State) -> TypingContext:
        return TypingContext(tuple(
            (p, self.local_type(i, n))
            for i, (p, n) in enumerate(zip(self.participants, state))
        ))

    def show_state(self, state: State) -> str:
        """show_context(self.context_of(state)), byte for byte, from the
        strings memoised in `_texts`, printed by `graph_text`; `_texts` is
        cleared whole when it is full, at `TEXT_MEMO_BOUND` entries."""
        parts = []
        for i, n in enumerate(state):
            key = self.graphs[i].desc[n] if self._texts is _TEXTS else (i, n)
            text = self._texts.get(key)
            if text is None:
                if i not in self._rows:
                    self._rows[i] = text_rows(self.graphs[i])
                if len(self._texts) >= TEXT_MEMO_BOUND:
                    self._texts.clear()
                text = self._texts[key] = graph_text(self.graphs[i], n, self._rows[i])
            parts.append(f"{self.participants[i]}: {text}")
        return ", ".join(parts)

    def single_moves(self, state: State):
        """All E-IO / E-BS moves: (Label, successor state)."""
        out = []
        for i, (p, g) in enumerate(zip(self.participants, self.graphs)):
            for a, m in g.out(state[i]):
                if a.kind != ENDK:
                    succ = state[:i] + (m,) + state[i + 1:]
                    out.append((Label(a.kind, p, a.peer, a.arg), succ))
        return out

    def sync_steps(self, state: State):
        """Synchronised reductions (comm and choice) from a state."""
        heads = self._heads
        out = []
        for i, n in enumerate(state):
            kind, j, _, sync, _ = heads[i][n]
            if not sync or j is None:
                continue
            kq, jq, targets, _, _ = heads[j][state[j]]
            if kq != _DUAL[kind] or jq != i:
                continue
            for arg, lab, m in sync:
                m2 = targets.get(arg)
                if m2 is not None:
                    succ = list(state)
                    succ[i], succ[j] = m, m2
                    out.append((lab, tuple(succ)))
        return out

    def barbs(self, state: State) -> frozenset[Barb]:
        return frozenset(filter(None, (self._heads[i][n].barb for i, n in enumerate(state))))

    def all_end(self, state: State) -> bool:
        return all(self._heads[i][n].kind == ENDK for i, n in enumerate(state))

    def is_safe_state(self, state: State) -> bool:
        """Clause 1: an output facing an input must be able to communicate.
        Clause 2: if the branching side offers anything, every label the
        selector may pick must be accepted (selection side is universal,
        branching side existential)."""
        heads = self._heads
        for i, n in enumerate(state):
            kind, j, targets, sync, _ = heads[i][n]
            if not sync or j is None:
                continue
            kq, jq, offered, _, _ = heads[j][state[j]]
            if kq == _DUAL[kind] and jq == i and not targets.keys() <= offered.keys():
                return False
        return True


def ctx_step(ctx: TypingContext):
    """One-step relation on a typing context: single-participant labels
    plus the synchronised reductions, with successor contexts."""
    lts = ContextLTS(ctx)
    out = []
    for lab, succ in lts.single_moves(lts.init) + lts.sync_steps(lts.init):
        out.append((lab, lts.context_of(succ)))
    return out


# ---------------------------------------------------------------------------
# Reachable graph


class ContextGraph(NamedTuple):
    lts: ContextLTS
    states: list[State]
    edges: list[list[tuple[Label, int]]]  # synchronised successors
    parent: list[tuple[int, Label] | None]

    def edge_count(self) -> int:
        return sum(len(e) for e in self.edges)


def reachable_graph(ctx: TypingContext | ContextLTS, budget: int = 1_000_000) -> ContextGraph:
    """Breadth-first closure under the synchronised reductions from `ctx`."""
    lts = ctx if type(ctx) is ContextLTS else ContextLTS(ctx)
    states = [lts.init]
    index = {lts.init: 0}
    edges: list[list[tuple[Label, int]]] = [[]]
    parent: list = [None]
    head = 0
    while head < len(states):
        s = states[head]
        for lab, succ in lts.sync_steps(s):
            j = index.get(succ)
            if j is None:
                if len(states) >= budget:
                    raise BudgetExceeded(f"more than {budget} reachable states")
                j = len(states)
                index[succ] = j
                states.append(succ)
                edges.append([])
                parent.append((head, lab))
            edges[head].append((lab, j))
        head += 1
    return ContextGraph(lts, states, edges, parent)


def barbs(ctx: TypingContext) -> frozenset[Barb]:
    lts = ContextLTS(ctx)
    return lts.barbs(lts.init)


def is_safe_state(ctx: TypingContext) -> bool:
    lts = ContextLTS(ctx)
    return lts.is_safe_state(lts.init)


# ---------------------------------------------------------------------------
# Verdicts and traces


# A trace's or verdict's repr and `==` leave out its graph.  object.__ne__
# inverts __eq__, where tuple.__ne__ would compare the graphs too.
def _repr_sans_graph(r) -> str:
    fields = (f"{f}={v!r}" for f, v in zip(r._fields, r) if f != "graph")
    return f"{type(r).__name__}({', '.join(fields)})"


def _eq_sans_graph(r, other) -> bool:
    return type(other) is type(r) and all(
        a == b for f, a, b in zip(r._fields, r, other) if f != "graph")


class Trace(NamedTuple):
    """A counterexample path, kept as state ids of `graph` and rendered on
    demand.

    `steps` holds (state index, label taken from that state) pairs, `final`
    the index of the state the path ends in, and `cycle_start` the index
    into `steps` where the lasso cycle begins (None for a finite path).
    A finite path is a counterwitness from the initial state on.  A lasso
    is one from `cycle_start` on: its stem only reaches the cycle, and a
    label enabled along the stem may never be taken.
    `contexts()` and `rendered()` give the typing context, or its text, of
    every state along the path, `final` last; the text is
    `graph.lts.show_state`, memoised per process by each node's state.
    `graph` is left out of the trace's repr and `==`."""

    graph: ContextGraph
    steps: list[tuple[int, Label]]
    final: int
    cycle_start: int | None = None

    __repr__, __eq__, __ne__ = _repr_sans_graph, _eq_sans_graph, object.__ne__

    def states(self) -> list[int]:
        return [i for i, _ in self.steps] + [self.final]

    def contexts(self) -> list[TypingContext]:
        rg = self.graph
        return [rg.lts.context_of(rg.states[i]) for i in self.states()]

    def rendered(self) -> list[str]:
        rg = self.graph
        return [rg.lts.show_state(rg.states[i]) for i in self.states()]


class Verdict(NamedTuple):
    """`graph` is the reachable context graph the verdict was decided on,
    left out of the verdict's repr and `==`."""

    prop: str
    holds: bool
    trace: Trace | None
    states: int
    edges: int
    graph: ContextGraph

    __repr__, __eq__, __ne__ = _repr_sans_graph, _eq_sans_graph, object.__ne__

    def __bool__(self):
        return self.holds


def _path_to(parent, target: int) -> list[tuple[int, Label]]:
    """(state index, outgoing label) pairs along a BFS tree to target, the
    tree given by `parent[i]`: (predecessor, label), or None at the root."""
    rev = []
    step = parent[target]
    while step is not None:
        rev.append(step)
        step = parent[step[0]]
    return rev[::-1]


def _verdict(prop: str, rg: ContextGraph, trace: Trace | None = None) -> Verdict:
    return Verdict(prop, trace is None, trace, len(rg.states), rg.edge_count(), rg)


def check_safety(ctx: TypingContext | ContextLTS, budget: int = 1_000_000) -> Verdict:
    rg = reachable_graph(ctx, budget)
    for i, s in enumerate(rg.states):
        if not rg.lts.is_safe_state(s):
            return _verdict("safety", rg, Trace(rg, _path_to(rg.parent, i), i))
    return _verdict("safety", rg)


def _stuck_trace(rg: ContextGraph) -> Trace | None:
    """The path to the first state in BFS order that is stuck but not
    all-end: the finite counterwitness of deadlock-freedom and liveness."""
    for i, s in enumerate(rg.states):
        if not rg.edges[i] and not rg.lts.all_end(s):
            return Trace(rg, _path_to(rg.parent, i), i)
    return None


def check_deadlock_freedom(ctx: TypingContext | ContextLTS, budget: int = 1_000_000) -> Verdict:
    rg = reachable_graph(ctx, budget)
    return _verdict("df", rg, _stuck_trace(rg))


def dot_context_graph(rg: ContextGraph, highlight: set[int] | None = None,
                      title: str = "contexts") -> str:
    """DOT rendering of the reachable context graph, a state showing each
    participant's node label (`p: q!(int), q: p?(int)`); unsafe and stuck
    states are coloured, `highlight` marks counterexample states by index."""
    highlight = highlight or set()
    lts = rg.lts
    nodes = []
    for i, s in enumerate(rg.states):
        attrs = ["shape=box"]
        if not lts.is_safe_state(s):
            attrs.append("color=red")
        if not rg.edges[i] and not lts.all_end(s):
            attrs.append("style=filled fillcolor=orange")
        elif i in highlight:
            attrs.append("style=filled fillcolor=lightblue")
        nodes.append((" ".join(attrs), ", ".join(
            f"{p}: {g.label(n)}" for p, g, n in zip(lts.participants, lts.graphs, s))))
    edges = [(i, j, str(lab)) for i, out in enumerate(rg.edges) for lab, j in out]
    return dot_text(title, None, nodes, edges)


# ---------------------------------------------------------------------------
# Liveness


class _FairCycles:
    """The fair-cycle search of one reachable graph: each distinct label has
    an index k (its `observations` taken once), and a label set is an int
    mask with bit k for each.  Each state keeps its (label index, successor)
    edges and enabled-label mask, each barb its states, and cores are
    cached by starting set (`!pq` and `?qp` share one).

    A barb's starting set is the states none of whose enabled labels
    observe it, so it is the union of the states of some distinct enabled
    masks, and those masks name it.  On the first `core` call, every
    distinct starting set that `starving` must refine is trimmed in one
    bit-parallel pass (`_trim`), and `core` refines only what is left."""

    def __init__(self, rg: ContextGraph):
        index: dict[Label, int] = {}
        self.out = [[(index.setdefault(lab, len(index)), j) for lab, j in row]
                    for row in rg.edges]
        self.enabled = [reduce(or_, (1 << k for k, _ in row), 0) for row in self.out]
        self.observed: dict[Barb, int] = {}  # barb -> the labels observing it
        for lab, k in index.items():
            for barb in observations(lab):
                self.observed[barb] = self.observed.get(barb, 0) | 1 << k
        # barb -> the states offering it, from each participant's head rows:
        # one lookup per (participant, node), made when a state first has it
        self.members: dict[Barb, list[int]] = {}
        heads = rg.lts._heads
        slots: list[list] = [[None] * len(rows) for rows in heads]
        sink: list[int] = []  # the states at a head with no barb, dropped
        for k, s in enumerate(rg.states):
            for i, n in enumerate(s):
                slot = slots[i][n]
                if slot is None:
                    barb = heads[i][n].barb
                    slot = slots[i][n] = sink if barb is None else self.members.setdefault(barb, [])
                slot.append(k)
        self._masks = sorted(set(self.enabled))  # the distinct enabled masks
        self._near: tuple[list, list] | None = None  # successors, predecessors
        self._trimmed: dict[tuple[int, ...], list[int]] = {}
        self._cores: dict[tuple[int, ...], list[int]] = {}

    def _start(self, barb: Barb) -> tuple[int, ...]:
        """The enabled masks that name the barb's starting set."""
        k = self.observed.get(barb, 0)
        return tuple(m for m in self._masks if not m & k)

    def _trim(self, starts) -> None:
        """Trim the given starting sets to a fixpoint, at once: each is one
        bit, each state carries the mask of the sets it is still in, and a
        state leaves set t when it has no successor or no predecessor left
        in t (a self-loop keeps it).  None of the states it drops lies on a
        cycle inside the set.  Each set's trimmed states go to `_trimmed`,
        in ascending order, as they are in the starting set."""
        if self._near is None:  # built by the first trim, once per check
            succ = [[j for _, j in row] for row in self.out]
            pred: list[list[int]] = [[] for _ in succ]
            for i, row in enumerate(succ):
                for j in row:
                    pred[j].append(i)
            self._near = succ, pred
        succ, pred = self._near
        named = {}  # enabled mask -> the bits of the sets holding its states
        starts = list(starts)
        for t, start in enumerate(starts):
            for m in start:
                named[m] = named.get(m, 0) | 1 << t
        mask = [named.get(m, 0) for m in self.enabled]
        work = [i for i, m in enumerate(mask) if m]
        queued = [bool(m) for m in mask]
        while work:
            i = work.pop()
            queued[i] = False
            m = mask[i]
            reach = 0
            for j in succ[i]:
                reach |= mask[j]
            keep = m & reach
            if keep:
                reach = 0
                for j in pred[i]:
                    reach |= mask[j]
                keep &= reach
            if keep != m:
                mask[i] = keep
                lost = m ^ keep
                for near in (succ[i], pred[i]):
                    for j in near:
                        if not queued[j] and mask[j] & lost:
                            queued[j] = True
                            work.append(j)
        kept: list[list[int]] = [[] for _ in starts]
        for i, m in enumerate(mask):
            while m:
                low = m & -m
                kept[low.bit_length() - 1].append(i)
                m ^= low
        self._trimmed.update(zip(starts, kept))

    def _split(self, group: list[int]) -> list[list[int]]:
        """SCCs of the edges inside `group`, in `sccs` order.  A state on no
        cycle there comes back as a trivial component, which `core` skips."""
        inside = set(group)
        return sccs(group, {i: [j for _, j in self.out[i] if j in inside] for i in group})

    def core(self, barb: Barb) -> list[int]:
        """Greatest subset of the barb's starting set whose states each lie
        in a non-trivial SCC whose internal labels cover their enabled ones.
        The first call trims every starting set `starving` must refine, and
        this one, in one pass (`_trim`); a set trimmed empty has an empty
        core at once.  Refinement starts from the trimmed set: split each
        group into SCCs and drop trivial ones and the states they cannot
        cover; a component that lost nothing is final, the rest form a new
        group.  A trimmed state lies on no cycle inside its set, and removal
        is monotone, so the fixpoint is unique and the trim does not change
        it."""
        start = self._start(barb)
        if start in self._cores:
            return self._cores[start]
        if start not in self._trimmed:
            starts = {start}
            if self._near is None:  # the first call
                starts.update(self._start(b) for b in self.members if not self._observes_all(b))
            self._trim(starts)
        trimmed = self._trimmed.pop(start)
        core = self._cores[start] = []
        work = [trimmed] if trimmed else []
        while work:
            for comp in self._split(work.pop()):
                inside = set(comp)
                internal = reduce(or_, (1 << k for i in comp for k, j in self.out[i]
                                        if j in inside), 0)
                if not internal:  # trivial: one state, no self-loop
                    continue
                keep = [i for i in comp if not self.enabled[i] & ~internal]
                if len(keep) == len(comp):
                    core.extend(comp)
                elif keep:
                    work.append(keep)
        return core

    def _observes_all(self, barb: Barb) -> bool:
        """Whether every state offering `barb` enables a label observing it,
        so no member is in its starting set and `starving` refines nothing."""
        k = self.observed.get(barb, 0)
        return all(self.enabled[i] & k for i in self.members[barb])

    def starving(self, barb: Barb):
        """(component, member with the barb) of a fair cycle that never
        observes `barb`, or None: the first member in Tarjan order over the
        sorted core.  Refines nothing if no member is in the starting set,
        and otherwise takes the core from `core`."""
        if self._observes_all(barb):
            return None
        core = self.core(barb)
        members = set(self.members[barb]).intersection(core)
        if members:
            for comp in self._split(sorted(core)):
                for i in comp:
                    if i in members:
                        return comp, i
        return None


def _cover_walk(rg: ContextGraph, comp: list[int], start: int) -> list[tuple[int, Label]]:
    """Closed walk from `start` inside `comp` taking every internal edge at
    least once (so its taken-label set covers everything enabled there)."""
    compset = set(comp)
    inner = {i: [(lab, j) for lab, j in rg.edges[i] if j in compset] for i in comp}

    def bfs_path(a, b):
        prev = {a: None}
        queue = [a]
        for u in queue:  # grows as the search goes
            if u == b:
                return _path_to(prev, b)
            for lab, v in inner[u]:
                if v not in prev:
                    prev[v] = (u, lab)
                    queue.append(v)
        raise AssertionError("component not strongly connected")

    walk: list[tuple[int, Label]] = []
    here = start
    for i in comp:
        for lab, j in inner[i]:
            walk.extend(bfs_path(here, i))
            walk.append((i, lab))
            here = j
    walk.extend(bfs_path(here, start))
    return walk


def check_liveness(ctx: TypingContext | ContextLTS, budget: int = 1_000_000) -> Verdict:
    """Not live iff a reachable stuck non-end state exists (finite
    counterwitness) or some barb admits a starving fair lasso."""
    rg = reachable_graph(ctx, budget)
    stuck = _stuck_trace(rg)
    if stuck is not None:
        return _verdict("live", rg, stuck)
    fair = _FairCycles(rg)
    for barb in sorted(fair.members, key=str):
        found = fair.starving(barb)
        if found is None:
            continue
        comp, member = found
        stem = _path_to(rg.parent, member)
        cycle = _cover_walk(rg, comp, member)
        return _verdict("live", rg, Trace(rg, stem + cycle, member, len(stem)))
    return _verdict("live", rg)


CHECKERS = {"safety": check_safety, "df": check_deadlock_freedom, "live": check_liveness}


# ---------------------------------------------------------------------------
# Brute-force liveness oracle


def _lasso_witness(labels, enabled_seq, barbs_seq, j) -> bool:
    """Literal check of both counterwitness bullets on the lasso with stem
    s_0 -l_0-> ... s_j and cycle s_j -l_j-> ... s_m = s_j.  A finite
    maximal path s_0 ... s_m is the lasso with an empty cycle, j = m."""
    m = len(labels)
    cycle_labels = set(labels[j:])
    cycle_obs = set()
    for lab in labels[j:]:
        cycle_obs |= observations(lab)
    cycle_enabled = set().union(*enabled_seq[j:m])
    for k in range(m + 1):
        taken = set(labels[k:]) | cycle_labels
        enab = set().union(*enabled_seq[k:]) | cycle_enabled
        if taken != enab:
            return False
    for k in range(m + 1):
        obs = cycle_obs.copy()
        for lab in labels[k:]:
            obs |= observations(lab)
        if barbs_seq[k] - obs:
            return True
    return False


def brute_force_liveness(ctx: TypingContext, bound: int = 8,
                         budget: int = 2_000_000) -> bool:
    """Exhaustively enumerate paths of length <= bound from every reachable
    state, testing the two counterwitness conditions literally on finite
    maximal paths and on every lasso formed by a revisited state, both by
    `_lasso_witness` (a finite maximal path is the lasso with an empty
    cycle).  Returns True (live) iff no counterwitness is found.  A bound
    below 1 sees no lasso and raises ValueError; more than `budget` path
    steps, or than min(budget, 100,000) reachable states, raise
    BudgetExceeded."""
    if bound < 1:
        raise ValueError(f"oracle bound must be at least 1, got {bound}")
    rg = reachable_graph(ctx, min(budget, 100_000))
    enabled = [
        [lab for lab, _ in rg.edges[i]] for i in range(len(rg.states))
    ]
    barbs_of = [rg.lts.barbs(s) for s in rg.states]
    steps = [0]

    def dfs(path_states, path_labels) -> bool:
        """True if a counterwitness extends the current path.  Recursive:
        one level per step, at most `bound`."""
        steps[0] += 1
        if steps[0] > budget:
            raise BudgetExceeded("brute-force liveness budget exceeded")
        cur = path_states[-1]
        enab = [enabled[i] for i in path_states]
        brb = [barbs_of[i] for i in path_states]
        if not rg.edges[cur] and _lasso_witness(path_labels, enab, brb, len(path_labels)):
            return True
        for j in range(len(path_states) - 1):
            if path_states[j] == cur:
                if _lasso_witness(path_labels, enab, brb, j):
                    return True
        if len(path_labels) >= bound:
            return False
        for lab, nxt in rg.edges[cur]:
            if dfs(path_states + [nxt], path_labels + [lab]):
                return True
        return False

    for start in range(len(rg.states)):
        if dfs([start], []):
            return False
    return True
