"""Minimum type inference for processes.

Pipeline: derive subtype/sort constraints from the process, eliminate the
variable-to-variable constraints (tr, a set in first-occurrence order),
build the minimum type graph over sets of type variables, solve the sort
equalities with a union-find, and read the minimum type off the graph.

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
from typing import NamedTuple

from .ast import (
    BOOL, INT, NAT,
    Done, EAdd, EInt, ENat, ENeg, ENonDet, ENot, EOr, ETrue, EFalse, EVar, Expr,
    LocalT, PBra, PCond, PInact, PRec, PRecv, PSel, PSend, PVar, Proc,
    SessionTypeError, Sort, SortVar, Visit, bind, fold, unbind, uniquify_binders,
)
from .typegraph import Action, END_ACT, ENDK, IN, OUT, SEL, BRA, TypeGraph, explore, sccs
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
    seen: set = set()
    count = [0]
    procs, values = {}, {}

    def emit(*cs):
        # constraint sets are sets: C-True and C-Cond may both contribute
        # the same sort equation
        for c in cs:
            if c not in seen:
                seen.add(c)
                out.append(c)

    def enter(u, env):
        count[0] += 1
        if type(u) is EVar:
            if u.name not in values:
                raise Untypable(f"free value variable {u.name}")
            return Done(values[u.name])
        if isinstance(u, Expr):
            return env
        xi = env[0] if env[0] is not None else next(tvars)
        if type(u) is PRec:
            return xi, xi, bind(procs, u.var, xi)
        if type(u) is PInact:
            emit(CHead(ENDK, None, None, (), xi))
            return Done(xi)
        if type(u) is PVar:
            if u.var not in procs:
                raise Untypable(f"free process variable {u.var}")
            emit(CVarLe(procs[u.var], xi))
            return Done(xi)
        if type(u) is PRecv:
            return None, xi, bind(values, u.var, next(svars))
        if type(u) is PSend:
            return Visit((u.cont, u.expr), (None, xi, None))
        if type(u) is PCond:
            return Visit((u.then, u.orelse, u.cond), (None, xi, None))
        if type(u) in (PSel, PBra):
            return None, xi, None
        raise TypeError(f"proc constraints: {u!r}")

    def leave(u, vals, env) -> str | SortVar:
        if isinstance(u, Expr):
            if type(u) in (ETrue, EFalse, ENat, EInt):
                a = next(svars)
                emit(CSortEq(a, BOOL if type(u) in (ETrue, EFalse) else
                             NAT if type(u) is ENat else INT))
                return a
            if type(u) in (ENot, ENeg):
                emit(CSortEq(vals[0], BOOL if type(u) is ENot else INT))
                return vals[0]
            a1, a2 = vals
            b = next(svars)
            if type(u) is EOr:
                emit(CSortEq(a1, BOOL), CSortEq(a2, BOOL), CSortEq(b, BOOL))
            elif type(u) is EAdd:
                emit(CSortEq(a1, b), CSortEq(a2, b), CSortEq(b, INT))
            elif type(u) is ENonDet:
                emit(CSortEq(a1, b), CSortEq(a2, b))
            else:
                raise TypeError(f"expr constraints: {u!r}")
            return b
        xi = env[1]
        if type(u) is PRecv:
            emit(CHead(IN, u.peer, values[u.var], ((None, vals[0]),), xi))
            unbind(values, u.var, env[2])
        elif type(u) is PSend:
            emit(CHead(OUT, u.peer, vals[1], ((None, vals[0]),), xi))
        elif type(u) is PSel:
            emit(CHead(SEL, u.peer, None, ((u.label, vals[0]),), xi))
        elif type(u) is PBra:
            emit(CHead(BRA, u.peer, None, tuple(zip([l for l, _ in u.branches], vals)), xi))
        elif type(u) is PCond:
            emit(CSortEq(vals[2], BOOL), CVarLe(vals[0], xi), CVarLe(vals[1], xi))
        elif type(u) is PRec:
            unbind(procs, u.var, env[2])
        return xi

    root = fold(p, leave, enter, (None,))
    return Derivation(root, out, count[0])


# ---------------------------------------------------------------------------
# tr(C): eliminate variable-to-variable constraints


def eliminate_transitive(constraints: list, root: str) -> tuple[list, str]:
    """Remove every variable-to-variable constraint xi <= psi.  Given a set,
    as `derive_constraints` makes, the result is a set, in first-occurrence
    order.

    When the link is the only constraint defining psi, psi is renamed to xi
    (the paper's substitution), earliest link in the list first; a link the
    renaming turns into x <= x goes, which may leave another variable with
    one link.  A variable with several incoming links (a conditional
    joining two behaviours) must keep the link sources apart:
    renaming would merge two independently defined variables and lose the
    relative phase of their recursions, so such links are resolved by
    transitivity instead: the target gets the distinct heads of every
    variable that flows into it, once per SCC of the links, sources first.
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

    def find(v):
        while v in parent:  # path halving
            parent[v] = v = parent.get(parent[v], parent[v])
        return v

    while single:
        i = heapq.heappop(single)
        if i in dead:
            continue
        dead.add(i)  # rename rhs to lhs: this link is all that defines rhs
        new = parent[links[i].rhs] = find(links[i].lhs)
        loops = {j for j in ins.get(new, ()) if j not in dead and find(links[j].lhs) == new}
        dead |= loops
        left = [j for j in ins.get(new, ()) if j not in dead]
        if loops and len(left) == 1 and new not in headed:
            heapq.heappush(single, left[0])

    def rename(c):
        succ = tuple((l, find(v)) for l, v in c.succ)
        return c if succ == c.succ else CHead(c.kind, c.peer, c.payload, succ, c.rhs)

    out = [rename(c) if type(c) is CHead else c for c in constraints if type(c) is not CVarLe]
    preds: dict[str, list[str]] = {}
    for i, c in enumerate(links):
        if i not in dead:
            preds.setdefault(c.rhs, []).append(find(c.lhs))
    if preds:
        # a variable's heads without rhs; once its SCC is done, every head
        # that flows into it
        flows: dict[str, dict] = {}
        for c in out:
            if type(c) is CHead:
                flows.setdefault(c.rhs, {})[c.kind, c.peer, c.payload, c.succ] = None
        for comp in sccs(list(preds), preds):
            if comp[0] in preds:  # else a source, which keeps its own heads
                into: dict = {}
                for v in comp:
                    into.update(flows.get(v, ()))
                    for u in preds[v]:
                        into.update(flows.get(u, ()))
                out.extend(CHead(*h, v) for v in comp for h in into if h not in flows.get(v, ()))
                flows.update(dict.fromkeys(comp, into))
    if len(headed) < len(heads):  # a renaming may have made two heads of one variable equal
        out = list(dict.fromkeys(out))
    return out, find(root)


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
    kind and peer, labelled from a set (an input or output: the one None)."""

    def __init__(self, tr_constraints: list):
        self.by_rhs: dict[str, list] = {}
        self.base_eqs = [c for c in tr_constraints if isinstance(c, CSortEq)]
        for c in tr_constraints:
            if not isinstance(c, CSortEq):
                self.by_rhs.setdefault(c.rhs, []).append(c)
        self._alpha = 0

    def _fresh_alpha(self) -> SortVar:
        self._alpha += 1
        return SortVar(f"a{self._alpha}")

    def build(self, start: frozenset[str], budget: int = 1_000_000) -> MinGraph:
        """More than `budget` graph nodes, Skip included, raise BudgetExceeded."""
        eqs = list(self.base_eqs)

        def expand(n: int, s: frozenset[str]):
            deps = []
            for v in sorted(s):
                cs = self.by_rhs.get(v)
                if not cs:
                    raise Untypable(f"variable {v} has no defining constraint", s)
                deps.extend(cs)
            kinds = {c.kind for c in deps}
            if len(kinds) != 1:
                raise Untypable("mixed dependency heads", s)
            kind = kinds.pop()
            if kind == ENDK:
                yield END_ACT, None
                return
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
            for l in sorted(labels):
                yield Action(kind, peer, alpha if l is None else l), frozenset(succ[l])

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
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for eq in eqs:
        union(eq.a, eq.b)
    concrete: dict = {}
    for x in list(parent):
        if isinstance(x, Sort):
            r = find(x)
            if r in concrete and concrete[r] != x:
                raise SortUnsat(f"sorts {concrete[r]} and {x} forced equal")
            concrete.setdefault(r, x)
    members: dict = {}
    for x in list(parent):
        if isinstance(x, SortVar):
            members.setdefault(find(x), []).append(x)
    subst: dict[SortVar, object] = {}
    for r, vs in members.items():
        rep = concrete.get(r) or min(vs, key=lambda v: v.name)
        for v in vs:
            subst[v] = rep
    return subst


def apply_sort_subst(graph: TypeGraph, subst: dict) -> TypeGraph:
    """Rewrite edge payloads through the sort substitution and rename the
    surviving sort variables canonically (a, b, ...) in edge order."""
    canon: dict[SortVar, SortVar] = {}

    def conv(payload):
        if isinstance(payload, SortVar):
            payload = subst.get(payload, payload)
        if isinstance(payload, SortVar):
            if payload not in canon:
                i = len(canon)  # a..z, then a0, a1, ...
                canon[payload] = SortVar(string.ascii_lowercase[i] if i < 26 else f"a{i - 26}")
            return canon[payload]
        return payload

    edges = [
        [
            (Action(a.kind, a.peer, conv(a.arg)) if a.kind in (IN, OUT) else a, m)
            for a, m in out
        ]
        for out in graph.edges
    ]
    return TypeGraph(graph.init, edges, graph.skip, list(graph.desc))


# ---------------------------------------------------------------------------
# Full pipeline


class InferResult(NamedTuple):
    typable: bool
    graph: TypeGraph | None = None
    min_graph: MinGraph | None = None
    derivation: Derivation | None = None
    tr_constraints: list | tuple = ()
    failure: str | None = None
    failure_node: frozenset | None = None

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
        return InferResult(False, derivation=d, tr_constraints=tr,
                           failure=str(e), failure_node=e.node)
    graph = apply_sort_subst(mg.graph, subst)
    return InferResult(
        True, graph=graph, min_graph=mg,
        derivation=d, tr_constraints=tr,
    )


def infer_min_type(p: Proc) -> LocalT:
    """The minimum type of `p`; else its failure's reason and node, raised."""
    r = infer(p)
    if not r.typable:
        reason = r.failure.removeprefix("untypable: ")
        raise Untypable(reason.rpartition(" at node ")[0] if r.failure_node else reason,
                        r.failure_node)
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
