"""Finite labelled transition graphs for local and global types.

A local type graph has one node per (alpha-canonical) subformula reachable
from the root, a single shared Skip sink, and action-labelled edges obtained
by unfolding each node's head.  A global type graph has one node per
reachable subformula too, and keeps each node's unfolded head, so its
readers (balance, `reaching`, projection, DOT) never unfold a global type
again.  Node ids are dense ints so the product constructions elsewhere can
work on int pairs.  A `TypeGraph` from `local_graph`, `quotient`, the
minimum-graph builder or `project_subset` is well-formed by construction,
its branch edges in label order like the AST's branches; one built
elsewhere is checked once, where it enters: by `graph_to_type`, by a
`ContextLTS` given graphs, or by `subtyping.to_type_graph` for the
simulation deciders.

`explore` is the single graph builder: local and global type graphs, the
subset projection's closure states and the minimum type graph's variable
sets are all interned through it, and kept as its nodes' states.  `sccs`
is the single strongly-connected component routine, used for the balance
check and for liveness.  `dot_text` is the one DOT writer, for type, global
and context graphs; a node shows its `label`, so DOT is linear in the graph.
"""

from __future__ import annotations

from itertools import count
from typing import NamedTuple

from .ast import (
    BudgetExceeded, GChoice, GMsg, GlobalT, LocalT, SessionTypeError,
    TBra, TEnd, TIn, TOut, TRec, TSel, TVar, Done, Visit,
    alpha_canon, branches, children, fold, participants, unfold,
)

IN, OUT, SEL, BRA, ENDK = "in", "out", "sel", "bra", "end"


class Action(NamedTuple):
    """An edge label, `kind` one of IN, OUT, SEL, BRA, ENDK.  A named tuple,
    so `==` and `hash` (TypeGraph.step) run in C; it equals the plain tuple
    of its fields, and no container mixes the two."""

    kind: str
    peer: str | None = None
    arg: object = None  # payload sort for in/out, label for sel/bra

    def __str__(self):
        if self.kind == ENDK:
            return "end"
        if self.kind == IN:
            return f"?{self.peer}({self.arg})"
        if self.kind == OUT:
            return f"!{self.peer}({self.arg})"
        op = "(+)" if self.kind == SEL else "&"
        return f"{op}{self.peer} {self.arg}"


END_ACT = Action(ENDK)


class MalformedGraph(SessionTypeError):
    pass


def show_head(a: Action) -> str:
    """A node's printed head, from its action `a`: p!(S), p?(S), p+, p& or end."""
    if a.kind == ENDK:
        return "end"
    if a.kind in (IN, OUT):
        return f"{a.peer}{'?' if a.kind == IN else '!'}({a.arg})"
    return f"{a.peer}{'+' if a.kind == SEL else '&'}"


class TypeGraph:
    """Deterministic local type graph, well-formed (module docstring), so a
    node's branch edges are in label order.  `edges[n]` lists (Action,
    target); `skip` is the sink for end actions; `desc[n]` is the state
    `explore` interned as node n (None for Skip): a subformula, a set of
    global-graph nodes (subset) or of type variables.  Slotted, as the
    product walks read its fields at each step: a named tuple reads slower."""

    __slots__ = ("init", "edges", "skip", "desc")

    def __init__(self, init: int, edges: list, skip: int | None, desc: list | tuple = ()):
        self.init, self.edges, self.skip, self.desc = init, edges, skip, desc

    def label(self, n: int) -> str:
        """A set state's sorted members, else node n's head, or Skip."""
        if n < len(self.desc) and isinstance(self.desc[n], frozenset):
            return "{" + ", ".join(map(str, sorted(self.desc[n]))) + "}"
        return "Skip" if n == self.skip else show_head(self.edges[n][0][0])

    def node_count(self) -> int:
        return len(self.edges)

    def real_nodes(self) -> list[int]:
        return [n for n in range(len(self.edges)) if n != self.skip]

    def kind(self, n: int) -> str:
        if n == self.skip:
            return "skip"
        return self.edges[n][0][0].kind

    def out(self, n: int) -> list[tuple[Action, int]]:
        return self.edges[n]

    def step(self, n: int, act: Action) -> int | None:
        for a, m in self.edges[n]:
            if a == act:
                return m
        return None


def validate_type_graph(g: TypeGraph) -> None:
    """Well-formedness of a local type graph: every non-Skip node has edges
    all of one kind (one input / one output / selections to one peer /
    branchings to one peer / a single end edge into Skip), deterministically
    labelled, with the edges of a selection or branching in label order, as
    the AST keeps its branches."""
    for n in range(len(g.edges)):
        if n == g.skip:
            if g.edges[n]:
                raise MalformedGraph("Skip must be a sink")
            continue
        out = g.edges[n]
        if not out:
            raise MalformedGraph(f"node {n} has no outgoing edges")
        kinds = {a.kind for a, _ in out}
        if len(kinds) != 1:
            raise MalformedGraph(f"node {n} mixes edge kinds {sorted(kinds)}")
        kind = kinds.pop()
        if kind == ENDK:
            if len(out) != 1 or out[0][1] != g.skip:
                raise MalformedGraph(f"node {n}: end edge must target Skip")
        elif kind in (IN, OUT):
            if len(out) != 1:
                raise MalformedGraph(f"node {n}: {kind} node must have one edge")
        else:
            peers = {a.peer for a, _ in out}
            labs = [a.arg for a, _ in out]
            if len(peers) != 1:
                raise MalformedGraph(f"node {n}: several peers {sorted(peers)}")
            if len(set(labs)) != len(labs):
                raise MalformedGraph(f"node {n}: duplicate labels")
            if labs != sorted(labs):
                raise MalformedGraph(f"node {n}: labels out of order")


def head_actions(t: LocalT) -> list[tuple[Action, LocalT]]:
    """Transitions of a closed local type per the type graph rules."""
    h = unfold(t)
    if isinstance(h, TEnd):
        return [(END_ACT, None)]
    if isinstance(h, TIn):
        return [(Action(IN, h.peer, h.payload), h.cont)]
    if isinstance(h, TOut):
        return [(Action(OUT, h.peer, h.payload), h.cont)]
    if isinstance(h, TSel):
        return [(Action(SEL, h.peer, l), b) for l, b in h.branches]
    if isinstance(h, TBra):
        return [(Action(BRA, h.peer, l), b) for l, b in h.branches]
    raise SessionTypeError(f"open local type in graph construction: {h!r}")


def explore(start, expand, key=None, budget: int | None = None):
    """Intern every state reachable from `start` as a dense node id.

    `expand(n, s)` yields the (Action, successor) pairs of state `s`, which
    is node `n`.  Nodes are numbered in the order they are first seen from a
    last-in first-out worklist; every END_ACT edge goes to one shared Skip
    sink, created on first use, whose state is None.  States are interned by
    `key(s)` (alpha-canonical form for types), or by themselves when `key`
    is None.  More than `budget` nodes, Skip included, raise BudgetExceeded.
    Returns (init, edges, states, skip)."""
    ids: dict = {}
    edges: list[list[tuple[Action, int]]] = []
    states: list = []
    todo: list = []
    skip = None

    def new(s) -> int:
        if budget is not None and len(states) >= budget:
            raise BudgetExceeded(f"more than {budget} graph nodes")
        states.append(s)
        edges.append([])
        return len(states) - 1

    def nid(s) -> int:
        k = s if key is None else key(s)
        n = ids.get(k)
        if n is None:
            n = ids[k] = new(s)
            todo.append((n, s))
        return n

    init = nid(start)
    while todo:
        n, s = todo.pop()
        out = edges[n]
        for act, succ in expand(n, s):
            if act is END_ACT:
                if skip is None:
                    skip = new(None)
                out.append((act, skip))
            else:
                out.append((act, nid(succ)))
    return init, edges, states, skip


def local_graph(t: LocalT) -> TypeGraph:
    """G(T): the graph reachable from T by the transition rules.  Nodes are
    interned by alpha-canonical form, so |nodes| <= |Sub(T)| <= |T|."""
    init, edges, states, skip = explore(t, lambda n, u: head_actions(u), alpha_canon)
    return TypeGraph(init, edges, skip, states)


def quotient(g: TypeGraph) -> TypeGraph:
    """`g` with its bisimilar nodes merged: Hopcroft's refinement (1971) of the
    partition by enabled actions.  Blocks are sets, a split costs the nodes it
    moves, and queues only the smaller part of a block not waiting: O(m log n).
    A block is numbered by, and keeps the edges and `desc` of, its first node;
    no block mixes action sets, so the result is well-formed if `g` is.
    Refinement runs only if the nodes of some block reach different blocks
    by one action.  So `g` is returned as it is when no two nodes enable the
    same actions, and nodes that reach the same blocks, `end` nodes say,
    merge at once."""
    edges = g.edges
    first: dict = {}  # a node's actions are the keys of dict(out)
    block_of = [first.setdefault(frozenset(dict(out)), len(first)) for out in edges]
    if len(first) == len(edges):
        return g
    moves = {(block_of[n], a, block_of[m]) for n, out in enumerate(edges) for a, m in out}
    if len(moves) > sum(map(len, first)):  # a block reaches two blocks by one action
        preds: list[list[tuple[Action, int]]] = [[] for _ in edges]
        blocks: list[set[int]] = [set() for _ in first]
        for n, out in enumerate(edges):
            blocks[block_of[n]].add(n)
            for a, m in out:
                preds[m].append((a, n))
        work, waiting = list(range(len(blocks))), set(range(len(blocks)))
        while work:
            splitter = work.pop()
            waiting.discard(splitter)
            by_action: dict = {}
            for m in blocks[splitter]:
                for a, n in preds[m]:
                    by_action.setdefault(a, []).append(n)
            for sources in by_action.values():
                hit: dict[int, list[int]] = {}
                for n in sources:
                    hit.setdefault(block_of[n], []).append(n)
                for b, moved in hit.items():
                    if len(moved) < len(blocks[b]):
                        new = len(blocks)
                        blocks.append(set(moved))
                        blocks[b].difference_update(moved)
                        for n in moved:
                            block_of[n] = new
                        work.append(new if b in waiting or len(moved) <= len(blocks[b]) else b)
                        waiting.add(work[-1])
    reps: dict = {}  # block -> its first node
    for n, b in enumerate(block_of):
        reps.setdefault(b, n)
    ids = dict(zip(reps, range(len(reps))))
    node = list(map(ids.__getitem__, block_of))
    return TypeGraph(node[g.init], [[(a, node[m]) for a, m in edges[r]] for r in reps.values()],
                     None if g.skip is None else node[g.skip], [g.desc[r] for r in reps.values()])


def graph_to_type(g: TypeGraph, root: int | None = None) -> LocalT:
    """Extract a syntactic local type from a well-formed type graph, using
    rec binders for back edges.  local_graph(result) is graph-equivalent to
    g restricted to what is reachable from `root`."""
    validate_type_graph(g)
    return _extract_type(g, g.init if root is None else root)


def _extract_type(g: TypeGraph, root: int) -> LocalT:
    """graph_to_type without the well-formedness check, for a graph known
    to be well-formed (module docstring).  A depth-first walk in
    edge order; a node reached again while open is a back edge, named
    t0, t1, ... in the order they are found, and bound where it opened."""
    binders = count()
    active: dict[int, str | None] = {}  # open node -> its binder name, once used

    def enter(n: int, env):
        if n in active:
            if active[n] is None:
                active[n] = f"t{next(binders)}"
            return Done(TVar(active[n]))
        active[n] = None
        out = g.out(n)
        return Visit(() if out[0][0].kind == ENDK else tuple([m for _, m in out]), env)

    def leave(n: int, kids, env) -> LocalT:
        out = g.out(n)
        a = out[0][0]
        if a.kind == ENDK:
            body: LocalT = TEnd()
        elif a.kind in (IN, OUT):
            body = (TIn if a.kind == IN else TOut)(a.peer, a.arg, kids[0])
        else:
            pairs = zip((b.arg for b, _ in out), kids)
            body = (TSel if a.kind == SEL else TBra)(a.peer, branches(pairs))
        name = active.pop(n)
        return body if name is None else TRec(name, body)

    return fold(root, leave, enter)


def text_rows(g: TypeGraph) -> list:
    """The text `graph_text` joins at each node of a well-formed graph:
    (head, (prefix, successor) pairs in edge order, closing text)."""
    rows: list = [None] * len(g.edges)  # Skip has no row
    for n in g.real_nodes():
        out = g.edges[n]
        a, m = out[0]
        head = show_head(a)
        if a.kind == ENDK:
            rows[n] = (head, (), "")
        elif a.kind in (IN, OUT):
            rows[n] = (head + "; ", (("", m),), "")
        else:
            succ = tuple((f"{', ' if k else ''}{b.arg}: ", t) for k, (b, t) in enumerate(out))
            rows[n] = (head + "{", succ, "}")
    return rows


def graph_text(g: TypeGraph, root: int, rows: list | None = None) -> str:
    """show_local(_extract_type(g, root)), byte for byte, with no type built:
    the same depth-first walk, in edge order, which is label order, with the
    same rec binders, joining the rows of `text_rows(g)` (computed here if
    not given).

    The walk keeps its own stack of open nodes rather than going through
    `ast.fold`: it is the hottest walk of trace rendering, and two hook
    calls per node would double its time."""
    rows = text_rows(g) if rows is None else rows
    binders = count()
    active: dict[int, str | None] = {}  # open node -> its binder name, once used
    text: list[str] = []
    stack: list[list] = []  # per open node: [node, where its head is, its next edge]

    pre, m = "", root  # the next node to reach, if m is not None
    while True:
        if m is not None:
            if m in active:  # a back edge
                if active[m] is None:
                    active[m] = f"t{next(binders)}"
                text.append(pre + active[m])
            else:
                active[m] = None
                text.append(pre)
                stack.append([m, len(text), 0])
                text.append(rows[m][0])
        if not stack:
            break
        top = stack[-1]
        n, at, i = top
        head, succ, close = rows[n]
        if i < len(succ):
            top[2] = i + 1
            pre, m = succ[i]
            continue
        m = None
        stack.pop()
        text.append(close)
        name = active.pop(n)
        if name is not None:
            text[at] = f"rec {name}. {head}"
    return "".join(text)


# ---------------------------------------------------------------------------
# Global type graphs


class GlobalGraph:
    """Transition graph over the reachable subformulas of G: `nodes[n]` is
    node n's subformula, `heads[n]` its unfolded head (a GMsg or GChoice, or
    None for end), and `succ[n]` the head's continuations, in its order."""

    __slots__ = ("init", "succ", "nodes", "heads")

    def __init__(self, init: int, succ: list, nodes: list, heads: list):
        self.init, self.succ, self.nodes, self.heads = init, succ, nodes, heads

    def node_count(self) -> int:
        return len(self.succ)

    def acts(self, n: int, p: str) -> bool:
        """Whether p takes part in the head of node n."""
        h = self.heads[n]
        return h is not None and p in (h.frm, h.to)

    def arcs(self, n: int) -> list[tuple[object, int]]:
        """The (payload sort or label, successor) pairs of node n's head."""
        h = self.heads[n]
        args = () if h is None else [h.payload] if type(h) is GMsg else [l for l, _ in h.branches]
        return list(zip(args, self.succ[n]))


def global_graph(g: GlobalT) -> GlobalGraph:
    """The graph of G; each node's head is unfolded here, once."""
    heads: dict = {}

    def expand(n: int, u: GlobalT):
        h = unfold(u)
        heads[n] = h if type(h) in (GMsg, GChoice) else None
        return [(None, c) for c in children(h)]

    init, edges, states, _ = explore(g, expand, alpha_canon)
    return GlobalGraph(init, [[m for _, m in out] for out in edges], states,
                       [heads[n] for n in range(len(states))])


def sccs(nodes: list[int], succ: dict[int, list[int]]) -> list[list[int]]:
    """Strongly connected components of the graph `succ` restricted to the
    nodes reachable from `nodes` (Tarjan, iterative), in completion order."""
    indexof: dict[int, int] = {}
    low: dict[int, int] = {}
    onstack: set[int] = set()
    stack: list[int] = []
    out: list[list[int]] = []
    counter = [0]
    for root in nodes:
        if root in indexof:
            continue
        work = [(root, iter(succ.get(root, [])))]
        indexof[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        onstack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in indexof:
                    indexof[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(succ.get(w, []))))
                    advanced = True
                    break
                if w in onstack:
                    low[v] = min(low[v], indexof[w])
            if not advanced:
                work.pop()
                if work:
                    pv = work[-1][0]
                    low[pv] = min(low[pv], low[v])
                if low[v] == indexof[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        onstack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    out.append(comp)
    return out


def reaching(gg: GlobalGraph, p: str) -> set[int]:
    """The nodes of `gg` from which a node whose head involves p can still
    be reached, those nodes included: a backward search from them."""
    preds: list[list[int]] = [[] for _ in gg.succ]
    for u, out in enumerate(gg.succ):
        for v in out:
            preds[v].append(u)
    found = {u for u in range(gg.node_count()) if gg.acts(u, p)}
    stack = list(found)
    while stack:
        for w in preds[stack.pop()]:
            if w not in found:
                found.add(w)
                stack.append(w)
    return found


def is_balanced(g: GlobalT) -> bool:
    """Balanced check: G is unbalanced iff for some participant p there is a
    cycle of nodes not involving p from which a p-involving node is still
    reachable.  Per-participant backward reachability plus an SCC search for
    a cycle among the candidates, O(|G|^2) overall."""
    return _balanced(global_graph(g), participants(g)) is not None


def _balanced(gg: GlobalGraph, pts) -> dict[str, set[int]] | None:
    """is_balanced on the global graph `gg` of a type with participants
    `pts`: None if unbalanced, else `reaching(gg, p)` for each p in `pts`."""
    reach = {}
    for p in sorted(pts):
        reach[p] = reaching(gg, p)
        candidates = {u for u in reach[p] if not gg.acts(u, p)}
        sub = {u: [v for v in gg.succ[u] if v in candidates] for u in candidates}
        if any(len(c) > 1 or c[0] in sub[c[0]] for c in sccs(sorted(candidates), sub)):
            return None
    return reach


# ---------------------------------------------------------------------------
# DOT export


def dot_type_graph(g: TypeGraph, title: str = "typegraph") -> str:
    shapes = ["doublecircle" if n == g.skip else "box" for n in range(len(g.edges))]
    return dot_text(title, g.init, [(f"shape={s}", g.label(n)) for n, s in enumerate(shapes)],
                    [(n, m, str(a)) for n, out in enumerate(g.edges) for a, m in out])


def dot_global_graph(gg: GlobalGraph, title: str = "globalgraph") -> str:
    """One box per node, showing its head `p->q` or `end`; each edge shows
    its label, or its message's sort as `(S)`."""
    nodes = [("shape=box", "end" if h is None else f"{h.frm}->{h.to}") for h in gg.heads]
    edges = [(n, m, f"({a})" if type(h) is GMsg else a)
             for n, h in enumerate(gg.heads) for a, m in gg.arcs(n)]
    return dot_text(title, gg.init, nodes, edges)


def dot_text(title: str, init: int | None, nodes, edges) -> str:
    """The one DOT writer: (attributes, label) `nodes`, node `init` in bold,
    and (source, target, label) `edges`."""
    lines = [f'digraph "{title}" {{', "  rankdir=LR;"]
    for n, (attrs, label) in enumerate(nodes):
        lines.append(f'  n{n} [{attrs}{" style=bold" if n == init else ""} label="{_esc(label)}"];')
    lines += [f'  n{n} -> n{m} [label="{_esc(label)}"];' for n, m, label in edges]
    lines.append("}")
    return "\n".join(lines)


def _esc(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')
