"""End-point projections of global types.

Four algorithms:

* inductive projection with plain merging (branches must be equal),
* inductive projection with full merging (external choices are unioned);
  the merge runs over a branch representation backed by balanced search
  trees so the smaller operand is always inserted into the larger one,
* the candidate-projection check in the style of Tirore et al.: compute
  ptrans (inductive projection whose merge keeps the left operand), then
  verify it against the global type over the product graph,
* the subset construction: a determinised local type graph whose states are
  p-closures of sets of global subformulas; sound and complete for the
  coinductive projection with full merging on balanced global types.

The three inductive projections, and the naive-merge oracle of the bench
harness, are one recursion, `_project`, which differs between them only in
the constructors it builds with and the merge it folds the branches of a
choice with when p takes no part in that choice.

`project_inductive`/`project_tirore` raise ProjUndefined when the
projection does not exist; `project_subset` additionally raises NotBalanced
when its precondition fails.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import partial

from .ast import (
    GChoice, GEnd, GMsg, GRec, GVar, GlobalT,
    LocalT, SessionTypeError, Sort,
    TBra, TEnd, TIn, TOut, TRec, TSel, TVar, TypingContext,
    alpha_canon, check_guarded, is_closed, participants, size, subst, unfold,
)
from .printer import show_global, show_local
from .subtyping import subtype_sim
from .typegraph import (
    Action, BRA, END_ACT, ENDK, IN, OUT, SEL, TypeGraph,
    explore, global_graph, involves, is_balanced, local_graph, reaching, validate_type_graph,
)

PLAIN, FULL = "plain", "full"


class ProjUndefined(SessionTypeError):
    def __init__(self, participant, reason, where=None):
        loc = f" at {where}" if where else ""
        super().__init__(f"projection onto {participant} undefined: {reason}{loc}")
        self.participant = participant
        self.reason = reason
        self.where = where


class NotBalanced(SessionTypeError):
    pass


@dataclass
class WorkCounter:
    ops: int = 0

    def tick(self, n: int = 1):
        self.ops += n


# ---------------------------------------------------------------------------
# Plain merge


def merge_plain(t1: LocalT, t2: LocalT, counter: WorkCounter | None = None) -> LocalT:
    """T |_| T = T; operands must be equal up to alpha-renaming."""
    if counter is not None:
        counter.tick(min(size(t1), size(t2)))
    if alpha_canon(t1) is not alpha_canon(t2):
        raise _merge_fail(t1, t2, "plain merge requires equal branches")
    return t1


def _merge_fail(t1, t2, why):
    return SessionTypeError(f"{why}: {show_local(t1)}  vs  {show_local(t2)}")


# ---------------------------------------------------------------------------
# Full merge, naive recursion on plain ASTs


def merge_full_naive(t1: LocalT, t2: LocalT) -> LocalT:
    """Inductive full merge: identical prefixes merge pointwise, selections
    need identical label sets, branchings take the union of their labels.
    Recursions merge by congruence after aligning the binders."""
    if isinstance(t1, TEnd) and isinstance(t2, TEnd):
        return t1
    if isinstance(t1, TVar) and isinstance(t2, TVar) and t1.var == t2.var:
        return t1
    if (
        isinstance(t1, (TIn, TOut))
        and type(t1) is type(t2)
        and t1.peer == t2.peer
        and t1.payload == t2.payload
    ):
        return type(t1)(t1.peer, t1.payload, merge_full_naive(t1.cont, t2.cont))
    if isinstance(t1, TSel) and isinstance(t2, TSel) and t1.peer == t2.peer:
        if [l for l, _ in t1.branches] != [l for l, _ in t2.branches]:
            raise _merge_fail(t1, t2, "selection merge needs equal label sets")
        b2 = dict(t2.branches)
        return TSel(
            t1.peer, tuple((l, merge_full_naive(b, b2[l])) for l, b in t1.branches)
        )
    if isinstance(t1, TBra) and isinstance(t2, TBra) and t1.peer == t2.peer:
        b1, b2 = dict(t1.branches), dict(t2.branches)
        labels = sorted(set(b1) | set(b2))
        out = []
        for l in labels:
            if l in b1 and l in b2:
                out.append((l, merge_full_naive(b1[l], b2[l])))
            else:
                out.append((l, b1.get(l, b2.get(l))))
        return TBra(t1.peer, tuple(out))
    if isinstance(t1, TRec) and isinstance(t2, TRec):
        body2 = t2.body if t2.var == t1.var else subst(t2.body, t2.var, TVar(t1.var))
        return TRec(t1.var, merge_full_naive(t1.body, body2))
    raise _merge_fail(t1, t2, "incompatible heads in full merge")


# ---------------------------------------------------------------------------
# Full merge, optimised: branchings as balanced trees (treaps keyed by the
# fixed label order), merged small-to-large.


@dataclass(frozen=True)
class _Treap:
    key: str
    prio: int
    value: object
    left: object
    right: object
    size: int


def _prio(label: str) -> int:
    return zlib.crc32(label.encode())


def _tsz(n) -> int:
    return 0 if n is None else n.size


def _mk(key, prio, value, left, right):
    return _Treap(key, prio, value, left, right, 1 + _tsz(left) + _tsz(right))


def treap_insert(n, key, value, combine, counter=None):
    """Insert or combine; O(log n) expected, counted as one tree op per
    visited node."""
    if counter is not None:
        counter.tick()
    if n is None:
        return _mk(key, _prio(key), value, None, None)
    if key == n.key:
        return _mk(n.key, n.prio, combine(n.value, value), n.left, n.right)
    if key < n.key:
        child = treap_insert(n.left, key, value, combine, counter)
        if child.prio > n.prio:
            return _mk(child.key, child.prio, child.value, child.left,
                       _mk(n.key, n.prio, n.value, child.right, n.right))
        return _mk(n.key, n.prio, n.value, child, n.right)
    child = treap_insert(n.right, key, value, combine, counter)
    if child.prio > n.prio:
        return _mk(child.key, child.prio, child.value,
                   _mk(n.key, n.prio, n.value, n.left, child.left), child.right)
    return _mk(n.key, n.prio, n.value, n.left, child)


def treap_items(n):
    if n is None:
        return
    yield from treap_items(n.left)
    yield (n.key, n.value)
    yield from treap_items(n.right)


class MTree:
    __slots__ = ()


@dataclass(frozen=True)
class MEnd(MTree):
    pass


@dataclass(frozen=True)
class MVar(MTree):
    var: str


@dataclass(frozen=True)
class MIO(MTree):
    kind: str  # "in" | "out"
    peer: str
    payload: object
    cont: MTree


@dataclass(frozen=True)
class MSel(MTree):
    peer: str
    branches: tuple  # ordered (label, MTree) pairs


@dataclass(frozen=True)
class MBra(MTree):
    peer: str
    tree: object  # treap label -> MTree
    size: int


@dataclass(frozen=True)
class MRec(MTree):
    var: str
    body: MTree


def _mbra(peer: str, pairs) -> MBra:
    """A treap-backed branching on (label, MTree) pairs."""
    tree = None
    for l, b in pairs:
        tree = treap_insert(tree, l, b, lambda old, new: new)
    return MBra(peer, tree, _tsz(tree))


def mt_of_local(t: LocalT) -> MTree:
    if isinstance(t, TEnd):
        return MEnd()
    if isinstance(t, TVar):
        return MVar(t.var)
    if isinstance(t, TIn):
        return MIO(IN, t.peer, t.payload, mt_of_local(t.cont))
    if isinstance(t, TOut):
        return MIO(OUT, t.peer, t.payload, mt_of_local(t.cont))
    if isinstance(t, TRec):
        return MRec(t.var, mt_of_local(t.body))
    if isinstance(t, TSel):
        return MSel(t.peer, tuple((l, mt_of_local(b)) for l, b in t.branches))
    return _mbra(t.peer, tuple((l, mt_of_local(b)) for l, b in t.branches))


def mt_to_local(m: MTree) -> LocalT:
    if isinstance(m, MEnd):
        return TEnd()
    if isinstance(m, MVar):
        return TVar(m.var)
    if isinstance(m, MIO):
        ctor = TIn if m.kind == IN else TOut
        return ctor(m.peer, m.payload, mt_to_local(m.cont))
    if isinstance(m, MRec):
        return TRec(m.var, mt_to_local(m.body))
    if isinstance(m, MSel):
        return TSel(m.peer, tuple((l, mt_to_local(b)) for l, b in m.branches))
    return TBra(m.peer, tuple((l, mt_to_local(b)) for l, b in treap_items(m.tree)))


def _mt_rename(m: MTree, old: str, new: str) -> MTree:
    if isinstance(m, MVar):
        return MVar(new) if m.var == old else m
    if isinstance(m, MRec):
        return m if m.var == old else MRec(m.var, _mt_rename(m.body, old, new))
    if isinstance(m, MIO):
        return MIO(m.kind, m.peer, m.payload, _mt_rename(m.cont, old, new))
    if isinstance(m, MSel):
        return MSel(m.peer, tuple((l, _mt_rename(b, old, new)) for l, b in m.branches))
    if isinstance(m, MBra):
        return _mbra(m.peer, tuple((l, _mt_rename(b, old, new)) for l, b in treap_items(m.tree)))
    return m


def merge_full_opt(m1: MTree, m2: MTree, counter: WorkCounter | None = None) -> MTree:
    """Optimised full merge; the smaller branch map is inserted into the
    larger one so each branch moves O(log n) times overall."""
    if counter is not None:
        counter.tick()
    if isinstance(m1, MEnd) and isinstance(m2, MEnd):
        return m1
    if isinstance(m1, MVar) and isinstance(m2, MVar) and m1.var == m2.var:
        return m1
    if (
        isinstance(m1, MIO)
        and isinstance(m2, MIO)
        and (m1.kind, m1.peer, m1.payload) == (m2.kind, m2.peer, m2.payload)
    ):
        return MIO(m1.kind, m1.peer, m1.payload, merge_full_opt(m1.cont, m2.cont, counter))
    if isinstance(m1, MSel) and isinstance(m2, MSel) and m1.peer == m2.peer:
        if [l for l, _ in m1.branches] != [l for l, _ in m2.branches]:
            raise SessionTypeError("selection merge needs equal label sets")
        b2 = dict(m2.branches)
        return MSel(m1.peer, tuple((l, merge_full_opt(b, b2[l], counter)) for l, b in m1.branches))
    if isinstance(m1, MBra) and isinstance(m2, MBra) and m1.peer == m2.peer:
        big, small = (m1, m2) if m1.size >= m2.size else (m2, m1)
        # merging is symmetric on shared labels, so operand order is free
        tree = big.tree
        for l, b in treap_items(small.tree):
            tree = treap_insert(
                tree, l, b, lambda old, new: merge_full_opt(old, new, counter), counter
            )
        return MBra(m1.peer, tree, _tsz(tree))
    if isinstance(m1, MRec) and isinstance(m2, MRec):
        body2 = m2.body if m2.var == m1.var else _mt_rename(m2.body, m2.var, m1.var)
        return MRec(m1.var, merge_full_opt(m1.body, body2, counter))
    raise SessionTypeError("incompatible heads in full merge")


def merge_full_optimized(t1: LocalT, t2: LocalT, counter: WorkCounter | None = None) -> LocalT:
    """Convenience wrapper on plain ASTs; equals merge_full_naive."""
    return mt_to_local(merge_full_opt(mt_of_local(t1), mt_of_local(t2), counter))


# ---------------------------------------------------------------------------
# Inductive projection: one recursion, parameterised by the result's
# constructors and by the merge of the branches p takes no part in.

# (end, var, out, in, sel, bra, rec); sel and bra take (peer, pairs)
_LOCAL_MK = (TEnd, TVar, TOut, TIn, TSel, TBra, TRec)
_MTREE_MK = (MEnd, MVar, partial(MIO, OUT), partial(MIO, IN), MSel, _mbra, MRec)


def _project(g: GlobalT, p: str, mk, merge):
    """Project `g` onto `p`, building the result with the constructors `mk`.

    Where p takes no part in a choice, the projections of all its branches
    are computed, then folded left to right with the binary `merge`; a
    failing merge raises ProjUndefined.  `merge=None` keeps the first
    branch without projecting the others, so shared subterms of the
    dropped branches cost nothing.
    """
    end, var, out, inp, sel, bra, rec = mk

    def go(g):
        if isinstance(g, GEnd):
            return end()
        if isinstance(g, GVar):
            return var(g.var)
        if isinstance(g, GMsg):
            cont = go(g.cont)
            if p == g.frm:
                return out(g.to, g.payload, cont)
            if p == g.to:
                return inp(g.frm, g.payload, cont)
            return cont
        if isinstance(g, GChoice):
            if p == g.frm:
                return sel(g.to, tuple((l, go(b)) for l, b in g.branches))
            if p == g.to:
                return bra(g.frm, tuple((l, go(b)) for l, b in g.branches))
            if merge is None:
                return go(g.branches[0][1])
            parts = [go(b) for _, b in g.branches]
            acc = parts[0]
            for t in parts[1:]:
                try:
                    acc = merge(acc, t)
                except SessionTypeError as e:
                    raise ProjUndefined(p, str(e), show_global(g))
            return acc
        if isinstance(g, GRec):
            if p not in participants(g.body) and is_closed(g):
                return end()
            return rec(g.var, go(g.body))
        raise TypeError(f"project: {g!r}")

    return go(g)


def project_inductive(
    g: GlobalT, p: str, kind: str = FULL, counter: WorkCounter | None = None
) -> LocalT:
    """Inductive projection of `g` onto `p` with plain or full merging."""
    if kind == PLAIN:
        out = _project(g, p, _LOCAL_MK, lambda a, b: merge_plain(a, b, counter))
    elif kind == FULL:
        m = _project(g, p, _MTREE_MK, lambda a, b: merge_full_opt(a, b, counter))
        out = mt_to_local(m)
    else:
        raise ValueError(f"unknown merge kind {kind!r}")
    try:
        check_guarded(out)
    except SessionTypeError as e:
        raise ProjUndefined(p, f"projection is unguarded ({e})", show_global(g))
    return out


# ---------------------------------------------------------------------------
# Tirore-style candidate projection


def ptrans(g: GlobalT, p: str) -> LocalT:
    """Candidate projection: inductive projection whose merge keeps the left
    operand.  Always total; the result may be unguarded, which the check
    below rejects."""
    return _project(g, p, _LOCAL_MK, None)


def project_tirore(g: GlobalT, p: str) -> LocalT:
    """ptrans followed by the product-graph check: every reachable pair of a
    global node and the candidate's local node must agree on its head.

    Per node (G', T'): if p occurs nowhere in G', T' must be end; if the
    head of G' involves p, the head of T' must match it exactly (same
    direction, peer, payload, and identical label sets); otherwise T' waits
    while G' branches.  Passing the check at every node is precisely the
    coinductive projection with plain merging of the candidate.
    """
    cand = ptrans(g, p)
    try:
        check_guarded(cand)
    except SessionTypeError:
        raise ProjUndefined(p, "candidate does not unravel (unguarded)", show_global(g))
    gg = global_graph(g)
    lg = local_graph(cand)
    live = reaching(gg, p)  # nodes where p still takes part

    start = (gg.init, lg.init)
    seen = {start}
    stack = [start]
    while stack:
        u, v = stack.pop()
        node = gg.nodes[u]
        h = unfold(node)
        if u not in live:
            if lg.kind(v) != ENDK:
                raise ProjUndefined(
                    p, "participant absent but local type is not end", show_global(node)
                )
            continue
        if isinstance(h, GMsg) and p in (h.frm, h.to):
            want = Action(OUT, h.to, h.payload) if p == h.frm else Action(IN, h.frm, h.payload)
            v2 = lg.step(v, want)
            if v2 is None:
                raise ProjUndefined(p, f"head mismatch, wanted {want}", show_global(node))
            pair = (gg.succ[u][0], v2)
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
            continue
        if isinstance(h, GChoice) and p in (h.frm, h.to):
            kind = SEL if p == h.frm else BRA
            peer = h.to if p == h.frm else h.frm
            glabels = [l for l, _ in h.branches]
            tlabels = sorted(a.arg for a, _ in lg.out(v) if a.kind == kind and a.peer == peer)
            if lg.kind(v) != kind or tlabels != glabels:
                raise ProjUndefined(
                    p, f"label sets differ ({glabels} vs {tlabels})", show_global(node)
                )
            for i, l in enumerate(glabels):
                v2 = lg.step(v, Action(kind, peer, l))
                pair = (gg.succ[u][i], v2)
                if pair not in seen:
                    seen.add(pair)
                    stack.append(pair)
            continue
        # head does not involve p: the candidate waits on every branch
        for u2 in gg.succ[u]:
            pair = (u2, v)
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return cand


# ---------------------------------------------------------------------------
# Subset construction


def p_closure(gg, ids: frozenset[int], p: str) -> frozenset[int]:
    """gcl_p: close a set of global-graph nodes under continuations of heads
    that do not involve p."""
    out = set(ids)
    stack = list(ids)
    while stack:
        u = stack.pop()
        if involves(gg.nodes[u], p):
            continue
        for v in gg.succ[u]:
            if v not in out:
                out.add(v)
                stack.append(v)
    return frozenset(out)


def project_subset(g: GlobalT, p: str, budget: int = 1_000_000) -> TypeGraph:
    """Subset construction: the determinised local view of `g` from `p`.

    States are p-closures; on each state the heads of all p-involving
    members must agree (same direction and peer; equal payload for values,
    identical label sets for selections, unioned label sets for
    branchings).  Undefined when some state mixes incompatible heads.
    More than `budget` graph nodes, Skip included, raise BudgetExceeded.
    """
    if not is_balanced(g):
        raise NotBalanced(f"global type is not balanced: {show_global(g)}")
    if p not in participants(g):
        raise ProjUndefined(p, "participant does not occur in the global type")
    gg = global_graph(g)

    def describe(s: frozenset[int]) -> str:
        return "{" + ", ".join(show_global(gg.nodes[u]) for u in sorted(s)) + "}"

    def expand(n: int, s: frozenset[int]):
        inv = [u for u in sorted(s) if involves(gg.nodes[u], p)]
        if not inv:
            yield END_ACT, None
            return
        heads = [unfold(gg.nodes[u]) for u in inv]
        if all(isinstance(h, GMsg) for h in heads):
            outgoing = {p == h.frm for h in heads}
            peers = {h.to if p == h.frm else h.frm for h in heads}
            payloads = {h.payload for h in heads}
            if len(outgoing) != 1 or len(peers) != 1 or len(payloads) != 1:
                raise ProjUndefined(p, "mixed message heads", describe(s))
            act = Action(OUT if outgoing.pop() else IN, peers.pop(), payloads.pop())
            yield act, p_closure(gg, frozenset(gg.succ[u][0] for u in inv), p)
            return
        if all(isinstance(h, GChoice) for h in heads):
            selecting = {p == h.frm for h in heads}
            peers = {h.to if p == h.frm else h.frm for h in heads}
            if len(selecting) != 1 or len(peers) != 1:
                raise ProjUndefined(p, "mixed choice heads", describe(s))
            sel = selecting.pop()
            peer = peers.pop()
            per_label: dict[str, set[int]] = {}
            label_sets = []
            for u, h in zip(inv, heads):
                labs = [l for l, _ in h.branches]
                label_sets.append(labs)
                for i, l in enumerate(labs):
                    per_label.setdefault(l, set()).add(gg.succ[u][i])
            if sel:
                # selections must carry identical label sets (merge on
                # internal choice never widens)
                if any(ls != label_sets[0] for ls in label_sets):
                    raise ProjUndefined(p, "selection label sets differ", describe(s))
                labs = label_sets[0]
            else:
                labs = sorted(per_label)
            for l in labs:
                act = Action(SEL if sel else BRA, peer, l)
                yield act, p_closure(gg, frozenset(per_label[l]), p)
            return
        raise ProjUndefined(p, "mixed communication heads", describe(s))

    init, edges, states, skip = explore(p_closure(gg, frozenset([gg.init]), p), expand,
                                        budget=budget)
    graph = TypeGraph(init, edges, skip, ["Skip" if s is None else describe(s) for s in states])
    try:
        validate_type_graph(graph)
    except SessionTypeError as e:
        raise ProjUndefined(p, f"invalid local type graph ({e})")
    return graph


# ---------------------------------------------------------------------------
# Association


def check_association(ctx: TypingContext, g: GlobalT, kind: str = FULL) -> bool:
    """dom(ctx) = pt(g) and ctx(p) <= projection(g, p) for every p.

    kind is "plain", "full" or "subset"; the projection must be defined for
    every participant (ProjUndefined propagates otherwise).
    """
    pts = participants(g)
    if set(ctx.participants()) != set(pts):
        return False
    for p, t in ctx.entries:
        if kind == "subset":
            target = project_subset(g, p)
        else:
            target = project_inductive(g, p, kind)
        if not subtype_sim(t, target):
            return False
    return True


# ---------------------------------------------------------------------------
# Lower-bound families


def gen_lowerbound_family(name: str, n) -> GlobalT:
    """Worst-case global type families, one per lower-bound proof."""
    if name == "plain_nlogn":
        # alternate a choice r does not see with a choice r receives, so the
        # plain merge at depth k compares branchy trees of size ~2^k
        g: GlobalT = GEnd()
        for _ in range(n):
            h = GChoice("r", "s", (("a", g), ("b", g)))
            g = GChoice("p", "q", (("l1", h), ("l2", h)))
        return g
    if name == "fullmerge_quadratic":
        g = GChoice("q", "p", (("k0", GEnd()),))
        for i in range(1, n + 1):
            g = GChoice("q", "r", (("l1", g), ("l2", GChoice("q", "p", ((f"k{i}", GEnd()),)))))
        return g
    if name == "fullmerge_nlog2":

        def build(k, j):
            if k == 0:
                return GChoice("p", "r", ((f"m{j:06d}", GEnd()),))
            return GChoice("p", "q", (("l1", build(k - 1, 2 * j)), ("l2", build(k - 1, 2 * j + 1))))

        return build(n, 0)
    if name == "cf_primes":
        periods = list(n)
        branches = []
        for i, ni in enumerate(periods):
            body: GlobalT = GVar("t")
            for _ in range(ni - 1):
                body = GChoice("p", "q", (("a", body),))
            loop = GRec("t", GChoice("p", "q", (("a", body), ("b", GEnd()))))
            branches.append((f"l{i}", loop))
        return GChoice("p", "r", tuple(branches))
    if name == "tirore_quadratic":

        def chain(k, var):
            g: GlobalT = GVar(var)
            for _ in range(k):
                g = GMsg("p", "q", Sort("int"), g)
            return GRec(var, g)

        return GChoice("q", "r", (("l1", chain(n, "u")), ("l2", chain(n + 1, "v"))))
    raise ValueError(f"unknown family {name!r}")
