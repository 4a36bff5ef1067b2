"""Minimum type inference for processes.

Pipeline: derive subtype/sort constraints from the process, rename away
lone variable-to-variable links (tr, a set in first-occurrence order),
build the minimum type graph over sets of type variables, where a joined
variable reads the heads that reach it through the links left, solve the
sort equalities with a union-find, and read the minimum type off the
graph.  Roles are small, so each stage keeps its fixed cost low: a state
with one head is expanded without the general rules, and a named tuple is
built through `tuple.__new__`.

A head constraint `T <= x` (`CHead`) is one type-graph node of x whose
successors are type variables: it carries typegraph's kind (ENDK, IN, OUT,
SEL or BRA), the peer, the payload sort variable of an input or output, and
the (label, type variable) successors, the one successor of an input or
output having label None.  The minimum graph turns heads into edges as they
are.  `CVarLe` links two type variables and `CSortEq` equates two sorts.

The graph rules capture the variance of choices: a node stands for a type
that must be a supertype of every dependency, so selections take the union
of the dependency labels while branchings take the intersection.
"""

from __future__ import annotations

import heapq
import itertools
import string
from operator import itemgetter
from typing import NamedTuple

from .ast import (
    BOOL, INT, NAT,
    Done, EAdd, EInt, ENat, ENeg, ENonDet, ENot, EOr, ETrue, EFalse, EVar,
    LocalT, PBra, PCond, PInact, PRec, PRecv, PSel, PSend, PVar, Proc,
    SessionTypeError, SortVar, Visit, bind, fold, unbind, uniquify_binders,
)
from .ast import _EXPRS
from .typegraph import Action, END_ACT, ENDK, IN, OUT, SEL, BRA, TypeGraph, explore
from .typegraph import _extract_type


class Untypable(SessionTypeError):
    def __init__(self, reason, node=None):
        suffix = f" at node {{{', '.join(sorted(node))}}}" if node else ""
        super().__init__(f"untypable: {reason}{suffix}")
        self.reason = reason
        self.node = node


# ---------------------------------------------------------------------------
# Constraints (exactly the shapes the inference rules can produce)


class CHead(NamedTuple):
    kind: str  # typegraph's ENDK, IN, OUT, SEL or BRA
    peer: str | None
    payload: SortVar | None  # of an input or output
    succ: tuple[tuple[str | None, str], ...]  # (label, type variable)
    rhs: str  # head <= rhs


class CVarLe(NamedTuple):
    lhs: str
    rhs: str  # lhs <= rhs, both type variables


class CSortEq(NamedTuple):
    a: object  # Sort | SortVar
    b: object


_OP = {IN: "?", OUT: "!", SEL: "+", BRA: "&"}


def show_constraint(c) -> str:
    if type(c) is CSortEq:
        return f"{c.a} = {c.b}"
    if type(c) is CVarLe:
        return f"{c.lhs} <= {c.rhs}"
    if c.kind == ENDK:
        return f"end <= {c.rhs}"
    if c.kind in (IN, OUT):
        return f"{c.peer}{_OP[c.kind]}({c.payload}); {c.succ[0][1]} <= {c.rhs}"
    inner = ", ".join(f"{l}: {v}" for l, v in c.succ)
    return f"{c.peer}{_OP[c.kind]}{{{inner}}} <= {c.rhs}"


# ---------------------------------------------------------------------------
# Constraint derivation


_new = tuple.__new__  # builds a named tuple without its Python-level __new__
_first, _second = itemgetter(0), itemgetter(1)
_LITERALS = {ETrue: BOOL, EFalse: BOOL, ENat: NAT, EInt: INT}


class Derivation(NamedTuple):
    root: str
    constraints: list
    judgements: int


def derive_constraints(p: Proc) -> Derivation:
    """Run the constraint inference rules on a closed process.  Fresh
    variables are numbered deterministically; the judgement count is the
    number of rule applications (bounded by |P|).

    One fold: a process node takes its type variable when it is reached,
    an input its payload's sort variable too; a literal or an operator
    takes its sort variable once its operands are done.  Process and value
    variables are in scope in two maps, `procs` and `values` (`ast.bind`).
    The env of a node is (the type variable its binder forces on it, its
    own type variable, the binding it hides)."""
    tvars = map("x{}".format, itertools.count(1))
    svars = map(SortVar, map("s{}".format, itertools.count(1)))
    out: list = []
    add = out.append
    judgements = 0
    procs, values = {}, {}

    def enter(u, env):
        nonlocal judgements
        judgements += 1
        t = type(u)
        if t in _EXPRS:
            if t in _LITERALS:
                a = next(svars)
                add(_new(CSortEq, (a, _LITERALS[t])))
                return Done(a)
            if t is not EVar:
                return env
            if u.name not in values:
                raise Untypable(f"free value variable {u.name}")
            return Done(values[u.name])
        xi = env[0] or next(tvars)
        if t is PSend:
            return Visit((u.cont, u.expr), (None, xi, None))
        if t is PSel or t is PBra:
            return None, xi, None
        if t is PInact:
            add(_new(CHead, (ENDK, None, None, (), xi)))
            return Done(xi)
        if t is PRecv:
            return None, xi, bind(values, u.var, next(svars))
        if t is PCond:
            return Visit((u.then, u.orelse, u.cond), (None, xi, None))
        if t is PRec:
            return xi, xi, bind(procs, u.var, xi)
        if t is PVar:
            if u.var not in procs:
                raise Untypable(f"free process variable {u.var}")
            add(_new(CVarLe, (procs[u.var], xi)))
            return Done(xi)
        raise TypeError(f"proc constraints: {u!r}")

    def leave(u, vals, env) -> str | SortVar:
        t = type(u)
        if t in _EXPRS:
            if t is ENot or t is ENeg:
                add(_new(CSortEq, (vals[0], BOOL if t is ENot else INT)))
                return vals[0]
            a1, a2 = vals
            b = next(svars)
            if t is EOr:
                out.extend((CSortEq(a1, BOOL), CSortEq(a2, BOOL), CSortEq(b, BOOL)))
            elif t is EAdd:
                out.extend((CSortEq(a1, b), CSortEq(a2, b), CSortEq(b, INT)))
            elif t is ENonDet:
                out.extend((CSortEq(a1, b), CSortEq(a2, b)))
            else:
                raise TypeError(f"expr constraints: {u!r}")
            return b
        xi = env[1]
        if t is PSend:
            add(_new(CHead, (OUT, u.peer, vals[1], ((None, vals[0]),), xi)))
        elif t is PSel:
            add(_new(CHead, (SEL, u.peer, None, ((u.label, vals[0]),), xi)))
        elif t is PRecv:
            add(_new(CHead, (IN, u.peer, values[u.var], ((None, vals[0]),), xi)))
            unbind(values, u.var, env[2])
        elif t is PBra:
            add(_new(CHead, (BRA, u.peer, None, tuple(zip(map(_first, u.branches), vals)), xi)))
        elif t is PCond:
            add(_new(CSortEq, (vals[2], BOOL)))
            add(_new(CVarLe, (vals[0], xi)))
            add(_new(CVarLe, (vals[1], xi)))
        elif t is PRec:
            unbind(procs, u.var, env[2])
        return xi

    root = fold(p, leave, enter, (None,))
    # a set: C-True and C-Cond, or two operators, may give one sort
    # equation twice; a head or link has a fresh variable
    return Derivation(root, list(dict.fromkeys(out)), judgements)


# ---------------------------------------------------------------------------
# tr(C): eliminate variable-to-variable constraints


def _find(parent: dict, v):
    """v's root in the union-find `parent`, which lists non-roots only."""
    while v in parent:  # path halving
        parent[v] = v = parent.get(parent[v], parent[v])
    return v


def eliminate_transitive(constraints: list, root: str) -> tuple[list, str]:
    """Rename away each variable-to-variable constraint xi <= psi that is
    all that defines psi.  Given a set, as `derive_constraints` makes, the
    result is a set, in first-occurrence order, the links left last.

    psi is renamed to xi (the paper's substitution), earliest link in the
    list first; a link the renaming turns into x <= x goes, which may leave
    another variable with one link.  A variable with several incoming links
    (a conditional joining two behaviours) keeps them, their sources
    renamed: renaming would merge two independently defined variables and
    lose the relative phase of their recursions.  `MinGraphBuilder`
    resolves them by transitivity.
    """
    links = [c for c in constraints if type(c) is CVarLe and c.lhs != c.rhs]
    if not links:
        return list(constraints), root
    heads = [c.rhs for c in constraints if type(c) is CHead]
    headed = set(heads)
    ins: dict[str, list[int]] = {}  # the links into each variable, by index
    for i, c in enumerate(links):
        ins.setdefault(c.rhs, []).append(i)
    single = sorted(ls[0] for v, ls in ins.items() if len(ls) == 1 and v not in headed)
    dead: set[int] = set()  # the links renamed away or turned into x <= x
    parent: dict[str, str] = {}  # union-find of renamings
    while single:
        i = heapq.heappop(single)
        if i in dead:
            continue
        dead.add(i)  # rename rhs to lhs: this link is all that defines rhs
        new = parent[links[i].rhs] = _find(parent, links[i].lhs)
        loops = {j for j in ins.get(new, ())
                 if j not in dead and _find(parent, links[j].lhs) == new}
        dead |= loops
        left = [j for j in ins.get(new, ()) if j not in dead]
        if loops and len(left) == 1 and new not in headed:
            heapq.heappush(single, left[0])

    def rename(c):  # a head with a renamed successor
        if type(c) is CHead and not parent.keys().isdisjoint(map(_second, c.succ)):
            return _new(CHead, (*c[:3], tuple([(l, _find(parent, v)) for l, v in c.succ]), c.rhs))
        return c

    out = [c for c in constraints if type(c) is not CVarLe]
    if parent:
        out = list(map(rename, out))
    if len(headed) < len(heads):  # a renaming may have made two heads of one variable equal
        out = list(dict.fromkeys(out))
    out += dict.fromkeys(_new(CVarLe, (_find(parent, c.lhs), c.rhs))  # two sources may now be one
                         for i, c in enumerate(links) if i not in dead)
    return out, _find(parent, root)


# ---------------------------------------------------------------------------
# Minimum type graph


class MinGraph(NamedTuple):
    graph: TypeGraph  # desc[n]: node n's set of type variables (None for Skip)
    sort_eqs: list[CSortEq]


class MinGraphBuilder:
    """Builds the reachable part of the minimum type graph from a set of
    type variables, generating fresh payload sort variables per M-IO edge
    and accumulating their equalities.  The graph is well-formed: `expand`
    raises Untypable on a missing definition, mixed kinds, mixed peers or an
    empty branching intersection, and else yields one or more edges of one
    kind and peer, labelled from a set (an input or output: the one None).
    A state with one dependency, one head, takes that head's edges as they
    are, in label order; the general rules give the same edges and fail in
    the same way (`general`).  A variable tr(C) leaves joined by links
    depends on the heads that reach it through them, gathered once a state
    reads it (`_joined`)."""

    def __init__(self, tr_constraints: list):
        self.heads: dict[str, list] = {}  # each variable's own heads
        self.preds: dict[str, list[str]] = {}  # the sources of the links into each variable
        self.base_eqs: list[CSortEq] = []
        self._alpha = 0
        for c in tr_constraints:
            if type(c) is CSortEq:
                self.base_eqs.append(c)
            elif type(c) is CVarLe:
                self.preds.setdefault(c.rhs, []).append(c.lhs)
            else:
                self.heads.setdefault(c.rhs, []).append(c)
        # each variable's dependencies; a joined one's once `_joined` gives them
        self.by_rhs = self.heads if not self.preds else {
            v: cs for v, cs in self.heads.items() if v not in self.preds}

    def _joined(self, v: str) -> list:
        """The distinct heads of v and of every variable that reaches v
        through links, depth first in link order, kept in `by_rhs`."""
        deps: dict = {}  # by the head without its rhs
        todo, seen = [v], set()
        while todo:
            u = todo.pop()
            if u not in seen:
                seen.add(u)
                for c in self.heads.get(u, ()):
                    deps.setdefault(c[:4], c)
                todo += reversed(self.preds.get(u, ()))
        cs = self.by_rhs[v] = list(deps.values())
        return cs

    def _fresh_alpha(self) -> SortVar:
        self._alpha += 1
        return SortVar(f"a{self._alpha}")

    def build(self, start: frozenset[str], budget: int = 1_000_000) -> MinGraph:
        """More than `budget` graph nodes, Skip included, raise BudgetExceeded."""
        eqs = list(self.base_eqs)
        by_rhs = self.by_rhs

        def expand(n: int, s: frozenset[str]):
            deps = []
            for v in sorted(s) if len(s) > 1 else s:
                cs = by_rhs.get(v) or self._joined(v)
                if not cs:
                    raise Untypable(f"variable {v} has no defining constraint", s)
                deps += cs
            if len(deps) > 1:
                return general(s, deps)
            kind, peer, payload, succ, _ = deps[0]  # one head: its edges as they are
            if kind == ENDK:
                return ((END_ACT, None),)
            if kind == IN or kind == OUT:
                alpha = self._fresh_alpha()
                eqs.append(_new(CSortEq, (alpha, payload)))
                return ((_new(Action, (kind, peer, alpha)), frozenset((succ[0][1],))),)
            if not succ:
                return general(s, deps)
            return [(_new(Action, (kind, peer, l)), frozenset((v,)))
                    for l, v in (sorted(succ) if len(succ) > 1 else succ)]

        def general(s, deps):
            kinds = {c.kind for c in deps}
            if len(kinds) != 1:
                raise Untypable("mixed dependency heads", s)
            kind = kinds.pop()
            if kind == ENDK:
                return [(END_ACT, None)]
            peers = {c.peer for c in deps}
            if len(peers) != 1:
                raise Untypable("mixed peers in dependencies", s)
            peer = peers.pop()
            if kind in (IN, OUT):
                alpha = self._fresh_alpha()
                eqs.extend(CSortEq(alpha, c.payload) for c in deps)
            # selections union their labels, branchings intersect them; an
            # input or output has the one label None, which carries alpha
            succ: dict = {}
            for c in deps:
                for l, v in c.succ:
                    succ.setdefault(l, set()).add(v)
            labels = (set.intersection(*({l for l, _ in c.succ} for c in deps))
                      if kind == BRA else succ)
            if not labels:
                raise Untypable("branching dependencies share no label", s)
            return [(Action(kind, peer, alpha if l is None else l), frozenset(succ[l]))
                    for l in sorted(labels)]

        init, edges, states, skip = explore(start, expand, budget=budget)
        return MinGraph(TypeGraph(init, edges, skip, states), eqs)


# ---------------------------------------------------------------------------
# Sort constraint solving (union-find)


class SortUnsat(Untypable):
    pass


def solve_sorts(eqs: list[CSortEq]) -> dict[SortVar, object]:
    """Most general solution of the sort equalities: each class maps to its
    concrete sort if it has one (two distinct concrete sorts are
    unsatisfiable), else to a canonical representative variable."""
    parent: dict = {}  # union-find; sorts are interned, so `is` compares them
    for a, b in eqs:
        if a in parent:
            a = _find(parent, a)
        if b in parent:
            b = _find(parent, b)
        if a is not b:
            parent[a] = b
    concrete: dict = {}
    members: dict = {}
    for x in dict.fromkeys(itertools.chain.from_iterable(eqs)):
        r = _find(parent, x) if x in parent else x
        if type(x) is SortVar:
            members.setdefault(r, []).append(x)
        elif concrete.setdefault(r, x) is not x:
            raise SortUnsat(f"sorts {concrete[r]} and {x} forced equal")
    subst: dict[SortVar, object] = {}
    for r, vs in members.items():
        subst.update(dict.fromkeys(vs, concrete.get(r) or min(vs, key=lambda v: v.name)))
    return subst


def apply_sort_subst(graph: TypeGraph, subst: dict) -> TypeGraph:
    """Rewrite edge payloads through the sort substitution and rename the
    surviving sort variables canonically (a, b, ...) in edge order."""
    canon: dict[SortVar, SortVar] = {}

    def conv(payload):
        payload = subst.get(payload, payload)
        if type(payload) is SortVar:
            if payload not in canon:
                i = len(canon)  # a..z, then a0, a1, ...
                canon[payload] = SortVar(string.ascii_lowercase[i] if i < 26 else f"a{i - 26}")
            return canon[payload]
        return payload

    edges = []
    for out in graph.edges:  # a node with no payload keeps its list
        if out and out[0][0].kind in (IN, OUT):
            out = [(_new(Action, (a.kind, a.peer, conv(a.arg))), m) for a, m in out]
        edges.append(out)
    return TypeGraph(graph.init, edges, graph.skip, list(graph.desc))


# ---------------------------------------------------------------------------
# Full pipeline


class InferResult(NamedTuple):
    typable: bool
    graph: TypeGraph | None = None
    min_graph: MinGraph | None = None
    derivation: Derivation | None = None
    tr_constraints: list | tuple = ()
    error: Untypable | None = None  # what `infer` caught, node included

    @property
    def min_type(self) -> LocalT | None:
        """Read off `graph`, well-formed by construction, on each use."""
        return None if self.graph is None else _extract_type(self.graph, self.graph.init)


def infer(p: Proc, budget: int = 1_000_000) -> InferResult:
    """More than `budget` minimum-graph nodes, Skip included, raise
    BudgetExceeded."""
    d = derive_constraints(p)
    tr, root = eliminate_transitive(d.constraints, d.root)
    try:
        mg = MinGraphBuilder(tr).build(frozenset([root]), budget)
        subst = solve_sorts(mg.sort_eqs)
    except Untypable as e:
        return InferResult(False, derivation=d, tr_constraints=tr, error=e)
    graph = apply_sort_subst(mg.graph, subst)
    return InferResult(
        True, graph=graph, min_graph=mg,
        derivation=d, tr_constraints=tr,
    )


def infer_min_type(p: Proc) -> LocalT:
    """The minimum type of `p`; else the failure `infer` caught, raised."""
    r = infer(p)
    if not r.typable:
        raise r.error
    return r.min_type


# ---------------------------------------------------------------------------
# Worst-case family: lcm of branch cycles


def branch_cycle_process(d: int) -> Proc:
    """mu X. &p{l1: ... &p{l1: X, l2: X} ...} with d branch constructs in
    total, whose minimum type graph is a branch cycle of length exactly d."""
    if d < 1:
        raise ValueError("cycle length must be >= 1")
    inner: Proc = PBra("p", (("l1", PVar("X")), ("l2", PVar("X"))))
    for _ in range(d - 1):
        inner = PBra("p", (("l1", inner),))
    return PRec("X", inner)


def gen_lcm_process(divisors: list[int]) -> Proc:
    """Nested conditionals over branch cycles; the inferred minimum type
    graph has a branch cycle of length lcm(divisors)."""
    if not divisors:
        raise ValueError("need at least one divisor")
    p: Proc = branch_cycle_process(divisors[0])
    for d in divisors[1:]:
        p = PCond(ENonDet(ETrue(), EFalse()), branch_cycle_process(d), p)
    return uniquify_binders(p)


def branch_cycle_length(graph: TypeGraph, label: str = "l1", peer: str = "p") -> int:
    """Length of the cycle reached by following &peer label edges from the
    initial node."""
    seen: dict[int, int] = {}
    n, i = graph.init, 0
    while n not in seen:
        seen[n] = i
        step = graph.step(n, Action(BRA, peer, label))
        if step is None:
            return 0
        n, i = step, i + 1
    return i - seen[n]
