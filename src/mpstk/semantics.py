"""Operational semantics of multiparty sessions.

Expression evaluation follows the evaluation table (nondeterministic choice
yields either operand); session reduction implements r-comm, r-bra, the
conditional rules and the two error rules, with recursion unfolded during
redex search.  Exploration is an exhaustive breadth-first search in which
every value of a nondeterministic expression is a branch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast import (
    EAdd, EInt, ENat, ENeg, ENonDet, ENot, EOr, ETrue, EFalse, EVar, Expr,
    BudgetExceeded, Done, PBra, PCond, PInact, PRecv, PSel, PSend, Proc,
    Session, SessionTypeError, fold, rebuild, session, unfold,
)


class EvalStuck(SessionTypeError):
    pass


def _as_bool(v: Expr) -> bool:
    if isinstance(v, ETrue):
        return True
    if isinstance(v, EFalse):
        return False
    raise EvalStuck(f"boolean expected, got {v!r}")


def _as_num(v: Expr) -> tuple[int, bool]:
    """value, is_int"""
    if isinstance(v, ENat):
        return v.value, False
    if isinstance(v, EInt):
        return v.value, True
    raise EvalStuck(f"number expected, got {v!r}")


def eval_all(e: Expr, env: dict[str, Expr] | None = None) -> frozenset[Expr]:
    """All values an expression may evaluate to (nondeterminism expands)."""
    env = env or {}

    def values(e, vals, _) -> frozenset:
        if type(e) in (ETrue, EFalse, ENat, EInt):
            return frozenset([e])
        if type(e) is EVar:
            try:
                return frozenset([env[e.name]])
            except KeyError:
                raise EvalStuck(f"unbound variable {e.name}") from None
        if type(e) is ENonDet:
            return vals[0] | vals[1]
        # operand values in one fixed order, so that an EvalStuck names the
        # same value in every run (a frozenset iterates in address order)
        ops = [sorted(v, key=repr) for v in vals]
        if type(e) is ENot:
            return frozenset(ETrue() if not _as_bool(v) else EFalse() for v in ops[0])
        if type(e) is ENeg:
            return frozenset(EInt(-_as_num(v)[0]) for v in ops[0])
        if type(e) is EOr:
            out = set()
            for v1 in ops[0]:
                for v2 in ops[1]:
                    out.add(ETrue() if _as_bool(v1) or _as_bool(v2) else EFalse())
            return frozenset(out)
        if type(e) is EAdd:
            out = set()
            for v1 in ops[0]:
                for v2 in ops[1]:
                    a, i1 = _as_num(v1)
                    b, i2 = _as_num(v2)
                    s = a + b
                    out.add(EInt(s) if i1 or i2 else ENat(s))
            return frozenset(out)
        raise TypeError(f"eval: {e!r}")

    return fold(e, values)


# ---------------------------------------------------------------------------
# Process plumbing


def subst_value(p: Proc, var: str, value: Expr) -> Proc:
    """Substitute a value for a free value variable (shadowed by inputs that
    rebind the same name)."""

    def enter(u, env):
        if type(u) is EVar:
            return Done(value if u.name == var else u)
        if type(u) is PRecv and u.var == var:
            return Done(u)
        return env

    return fold(p, rebuild, enter)


proc_head = unfold  # the structural rule: unfold top-level recursions


@dataclass(frozen=True)
class SessionState:
    sess: Session
    error: bool = False


def _with(sess: Session, updates: dict[str, Proc]) -> Session:
    return session(
        (n, updates.get(n, q)) for n, q in sess.roles
    )


def session_step(state: SessionState) -> list[SessionState]:
    """All one-step successors, one for each value an expression may take.
    Label mismatches, non-boolean conditions and expressions that cannot
    be evaluated step to the error state."""
    if state.error:
        return []
    sess = state.sess
    heads = {n: proc_head(q) for n, q in sess.roles}
    out: list[SessionState] = []

    def values(e):
        return sorted(eval_all(e), key=repr)

    for a, pa in heads.items():
        if isinstance(pa, PCond):
            try:
                for v in values(pa.cond):
                    if isinstance(v, ETrue):
                        out.append(SessionState(_with(sess, {a: pa.then})))
                    elif isinstance(v, EFalse):
                        out.append(SessionState(_with(sess, {a: pa.orelse})))
                    else:
                        out.append(SessionState(sess, error=True))  # v-err
            except EvalStuck:
                out.append(SessionState(sess, error=True))
            continue
        if isinstance(pa, PSend):
            b = pa.peer
            pb = heads.get(b)
            if isinstance(pb, PRecv) and pb.peer == a:
                try:
                    for v in values(pa.expr):
                        out.append(SessionState(_with(sess, {
                            a: pa.cont,
                            b: subst_value(pb.cont, pb.var, v),
                        })))
                except EvalStuck:
                    out.append(SessionState(sess, error=True))
        elif isinstance(pa, PSel):
            b = pa.peer
            pb = heads.get(b)
            if isinstance(pb, PBra) and pb.peer == a:
                bb = dict(pb.branches)
                if pa.label in bb:
                    out.append(SessionState(_with(sess, {a: pa.cont, b: bb[pa.label]})))
                else:
                    out.append(SessionState(sess, error=True))  # c-err
    return out


@dataclass
class ExploreReport:
    error_reached: bool = False
    stuck_nonterminal: bool = False
    states: int = 0
    steps: int = 0


def _all_inact(sess: Session) -> bool:
    return all(isinstance(proc_head(q), PInact) for _, q in sess.roles)


def explore_session(sess: Session, depth: int = 12, budget: int = 200_000) -> ExploreReport:
    """Exhaustive BFS to `depth`; reports whether an error state or a stuck
    non-inact state was reached.  Raises BudgetExceeded once the BFS has
    taken more than `budget` steps, and ValueError when `depth` < 1, which
    would explore nothing."""
    if depth < 1:
        raise ValueError(f"exploration depth must be at least 1, got {depth}")
    report = ExploreReport()
    start = SessionState(sess)
    seen = {start}
    frontier = [start]
    d = 0
    while frontier and d < depth:
        nxt = []
        for st in frontier:
            succs = session_step(st)
            report.steps += len(succs)
            if report.steps > budget:
                raise BudgetExceeded("exploration budget exceeded")
            if not succs and not st.error and not _all_inact(st.sess):
                report.stuck_nonterminal = True
            for s2 in succs:
                if s2.error:
                    report.error_reached = True
                if s2 not in seen:
                    seen.add(s2)
                    nxt.append(s2)
        frontier = nxt
        d += 1
    report.states = len(seen)
    return report
