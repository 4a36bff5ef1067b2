"""Synchronous multiparty session subtyping.

Two deciders for T1 <= T2 (covariant selection, contravariant branching,
equal payload sorts):

* subtype_sim: quadratic simulation check over the product of the two type
  graphs.  A product node is inconsistent when it immediately violates the
  simulation clauses; closure edges follow matched actions, selections from
  the left and branchings from the right.  The walk is `_product_walk`,
  which subtype_sim_matching shares with payload-unifying steps.
* subtype_inductive: the Gay-Hole style assumption-set algorithm, worst-case
  exponential, with Alg-RecL given priority over Alg-RecR and no memoisation
  beyond the assumption set.  Each Alg-Rec step is `ast.unfold1`, whose
  table is the only unfolding memo: this module keeps no memo of its own.

Plus generators for the worst-case families used by the benchmarks.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .ast import (
    INT, BudgetExceeded, LocalT, SortVar, TBra, TEnd, TIn, TOut, TRec, TSel, TVar, unfold1,
)
from .typegraph import BRA, ENDK, IN, OUT, SEL, TypeGraph, local_graph, validate_type_graph


class SimResult(NamedTuple):
    result: bool
    nodes_visited: int
    edges_visited: int

    def __bool__(self):
        return self.result


class InductiveResult(NamedTuple):
    result: bool
    judgements: int

    def __bool__(self):
        return self.result


def to_type_graph(t) -> TypeGraph:
    """The graph of local type t, or t itself, checked, if it is a graph."""
    if isinstance(t, TypeGraph):
        validate_type_graph(t)
        return t
    return local_graph(t)


# Left-driven actions must be matched by the right graph; right-driven
# actions by the left graph.  This is the direct reading of the simulation
# definition (selection/end/in/out forward, branching/end backward).
_LEFT_KINDS = (SEL, ENDK, IN, OUT)
_RIGHT_KINDS = (BRA, ENDK)


def _product_walk(g1: TypeGraph, g2: TypeGraph, step1, step2, budget: int):
    """Walk the product of g1 and g2 depth first from the pair of initial
    nodes, stopping at the first inconsistent node.  `step2(n2, a)` matches
    a left-driven action of g1 in g2 and `step1(n1, a)` a right-driven
    action of g2 in g1; each returns the successor node or None.  More than
    `budget` product nodes, Skip pairs included, raise BudgetExceeded.

    Returns (ok, visited product nodes, edges followed)."""
    start = (g1.init, g2.init)
    visited = {start}
    stack = [start]
    edges = 0
    e1, e2, skip1, skip2 = g1.edges, g2.edges, g1.skip, g2.skip
    while stack:
        n1, n2 = stack.pop()
        # a branching node is only consistent facing another branching:
        # neither simulation clause constrains it against an active head
        if (n1 != skip1 and e1[n1][0][0].kind == BRA
                and (n2 == skip2 or e2[n2][0][0].kind != BRA)):
            return False, visited, edges
        succs = []
        for a, m1 in e1[n1]:
            if a.kind in _LEFT_KINDS:
                m2 = step2(n2, a)
                if m2 is None:
                    return False, visited, edges
                succs.append((m1, m2))
        for a, m2 in e2[n2]:
            if a.kind in _RIGHT_KINDS:
                m1 = step1(n1, a)
                if m1 is None:
                    return False, visited, edges
                succs.append((m1, m2))
        for pair in succs:
            edges += 1
            if pair not in visited:
                if len(visited) >= budget:
                    raise BudgetExceeded(f"more than {budget} product nodes")
                visited.add(pair)
                stack.append(pair)
    return True, visited, edges


def subtype_sim(t1, t2, budget: int = 1_000_000) -> SimResult:
    """Decide t1 <= t2 by exploring the product graph, rejecting as soon as
    an inconsistent node is reached.  nodes_visited <= |t1| * |t2|."""
    g1, g2 = to_type_graph(t1), to_type_graph(t2)
    ok, visited, edges = _product_walk(g1, g2, g1.step, g2.step, budget)
    real = sum(1 for a, _ in visited if a != g1.skip)
    return SimResult(ok, real, edges)


def graph_equiv(t1, t2) -> bool:
    """Type graph equivalence: t1 <= t2 and t2 <= t1."""
    return bool(subtype_sim(t1, t2)) and bool(subtype_sim(t2, t1))


def subtype_sim_matching(t1, t2, budget: int = 1_000_000) -> tuple[bool, dict]:
    """Like subtype_sim, but sort variables on the left unify with the
    right-hand payload sorts during the walk (consistently across the whole
    graph).  Decides whether some sort substitution pi gives t1 pi <= t2;
    used to compare inferred minimum types against concrete candidates."""
    g1, g2 = to_type_graph(t1), to_type_graph(t2)
    binding: dict = {}

    def match_payload(a, b) -> bool:
        if isinstance(a, SortVar):
            a = binding.get(a, a)
        if isinstance(a, SortVar):
            binding[a] = b
            return True
        return a == b

    def step2(n2, act):
        """A left-driven action of g1 matched in g2, unifying payloads."""
        if act.kind in (IN, OUT):
            for a, m in g2.out(n2):
                if a.kind == act.kind and a.peer == act.peer and match_payload(act.arg, a.arg):
                    return m
            return None
        return g2.step(n2, act)

    ok, _, _ = _product_walk(g1, g2, g1.step, step2, budget)
    return ok, binding


# ---------------------------------------------------------------------------
# Inductive algorithm


def subtype_inductive(t1: LocalT, t2: LocalT, budget: int = 10_000_000) -> InductiveResult:
    """Build the proof tree of {} |- t1 <= t2 bottom-up.  The tree is fully
    deterministic; the judgement count is the number of tree nodes explored
    before success or the first failing node."""
    judgements = 0
    stack: list[tuple[frozenset, LocalT, LocalT]] = [(frozenset(), t1, t2)]
    while stack:
        theta, a, b = stack.pop()
        judgements += 1
        if judgements > budget:
            raise BudgetExceeded(f"inductive subtyping exceeded {budget} judgements")
        if (a, b) in theta:
            continue
        if isinstance(a, TRec):
            stack.append((theta | {(a, b)}, unfold1(a), b))
            continue
        if isinstance(b, TRec):
            stack.append((theta | {(a, b)}, a, unfold1(b)))
            continue
        if isinstance(a, TEnd) and isinstance(b, TEnd):
            continue
        if type(a) is type(b) and type(a) in (TIn, TOut):
            if a.peer == b.peer and a.payload == b.payload:
                stack.append((theta, a.cont, b.cont))
                continue
            return InductiveResult(False, judgements)
        if isinstance(a, TSel) and isinstance(b, TSel) and a.peer == b.peer:
            bb = dict(b.branches)
            if all(l in bb for l, _ in a.branches):
                for l, ac in a.branches:
                    stack.append((theta, ac, bb[l]))
                continue
            return InductiveResult(False, judgements)
        if isinstance(a, TBra) and isinstance(b, TBra) and a.peer == b.peer:
            aa = dict(a.branches)
            if all(l in aa for l, _ in b.branches):
                for l, bc in b.branches:
                    stack.append((theta, aa[l], bc))
                continue
            return InductiveResult(False, judgements)
        return InductiveResult(False, judgements)
    return InductiveResult(True, judgements)


# ---------------------------------------------------------------------------
# Worst-case families


def gen_coprime_pair(n1: int, n2: int) -> tuple[LocalT, LocalT]:
    """Cycle types mu t. p?(int); ...; p?(int); t with n_i inputs; for
    coprime lengths the product walk visits all n1*n2 nodes."""

    def cycle(n):
        body: LocalT = TVar("t")
        for _ in range(n):
            body = TIn("p", INT, body)
        return TRec("t", body)

    if n1 < 1 or n2 < 1:
        raise ValueError("cycle lengths must be >= 1")
    return cycle(n1), cycle(n2)


def gen_exponential_pair(k: int) -> tuple[LocalT, LocalT]:
    """(T_k, T_{k+1}) of the factorial blow-up family: both sides are nested
    binary selections over labels l1/l2, T_k <= T_{k+1} holds, and the
    inductive algorithm revisits a distinct judgement per descent sequence."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _exp_family(k), _exp_family(k + 1)


def _exp_family(k: int) -> LocalT:
    names = (f"w{i}" for i in itertools.count())

    def t_c() -> LocalT:
        v = next(names)
        return TRec(v, TSel("p", (("l1", TVar(v)), ("l2", TVar(v)))))

    def t_bf(r: int) -> LocalT:
        t: LocalT = TVar("t")
        for _ in range(r):
            t = TSel("p", (("l1", t), ("l2", t_c())))
        return t

    def t_af(r: int) -> LocalT:
        t: LocalT = TVar("t")
        for j in range(1, r + 1):
            # binder u_{j-1} never occurs bound in its body, as in the family
            t = TSel("p", (("l1", t), ("l2", TRec(f"u{j - 1}", t_bf(j - 1)))))
        return t

    return TRec("t", t_af(k))
