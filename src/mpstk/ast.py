"""AST definitions for sorts, local/global types, expressions, processes,
sessions and typing contexts, plus the structural metrics used everywhere
else (size, subformulas, unfolding, free variables, guardedness).

All nodes are immutable and hash-consed: constructing a node equal to a
live one returns the live one, so equality and hashing are object identity.
Alpha-insensitive comparison goes through :func:`alpha_canon`.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass


class SessionTypeError(Exception):
    """Ill-formed input: duplicate labels, unguarded recursion, p -> p, ..."""


class BudgetExceeded(Exception):
    """A search exceeded its budget of states, judgements or steps."""


# ---------------------------------------------------------------------------
# Hash-consing (Filliatre & Conchon, Type-Safe Modular Hash-Consing, 2006)


_live = weakref.WeakValueDictionary()  # (class, *fields) -> the live node


class _Interned(type):
    """Metaclass of the AST roots: a node is keyed by its class and its
    positional fields, and a live node with that key is returned instead of
    a new one.  Children are interned already, so the key hashes and
    compares them by identity."""

    def __call__(cls, *args, **kwargs):
        if kwargs:
            raise TypeError(f"{cls.__name__} takes its fields positionally")
        key = (cls, *args)
        node = _live.get(key)
        if node is None:
            node = _live[key] = super().__call__(*args)
        return node


# ---------------------------------------------------------------------------
# Sorts


@dataclass(frozen=True, eq=False)
class Sort(metaclass=_Interned):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True, eq=False)
class SortVar(metaclass=_Interned):
    """Sort variable; produced only by inference, never by the parser."""

    name: str

    def __str__(self):
        return "'" + self.name


BOOL = Sort("bool")
NAT = Sort("nat")
INT = Sort("int")

SORTS = {"bool": BOOL, "nat": NAT, "int": INT}


# ---------------------------------------------------------------------------
# Local types


class LocalT(metaclass=_Interned):
    __slots__ = ()


@dataclass(frozen=True, eq=False)
class TEnd(LocalT):
    pass


@dataclass(frozen=True, eq=False)
class TOut(LocalT):
    peer: str
    payload: Sort | SortVar
    cont: LocalT


@dataclass(frozen=True, eq=False)
class TIn(LocalT):
    peer: str
    payload: Sort | SortVar
    cont: LocalT


@dataclass(frozen=True, eq=False)
class TSel(LocalT):
    peer: str
    branches: tuple[tuple[str, LocalT], ...]


@dataclass(frozen=True, eq=False)
class TBra(LocalT):
    peer: str
    branches: tuple[tuple[str, LocalT], ...]


@dataclass(frozen=True, eq=False)
class TRec(LocalT):
    var: str
    body: LocalT


@dataclass(frozen=True, eq=False)
class TVar(LocalT):
    var: str


END = TEnd()


def branches(pairs) -> tuple[tuple[str, object], ...]:
    """Normalise a branch mapping: sorted by label, labels distinct."""
    pairs = sorted(pairs, key=lambda kv: kv[0])
    labels = [l for l, _ in pairs]
    if not labels:
        raise SessionTypeError("empty branch set")
    if len(set(labels)) != len(labels):
        raise SessionTypeError(f"duplicate labels {labels}")
    return tuple(pairs)


def tsel(peer, pairs):
    return TSel(peer, branches(pairs))


def tbra(peer, pairs):
    return TBra(peer, branches(pairs))


# ---------------------------------------------------------------------------
# Global types


class GlobalT(metaclass=_Interned):
    __slots__ = ()


@dataclass(frozen=True, eq=False)
class GEnd(GlobalT):
    pass


@dataclass(frozen=True, eq=False)
class GMsg(GlobalT):
    frm: str
    to: str
    payload: Sort | SortVar
    cont: GlobalT


@dataclass(frozen=True, eq=False)
class GChoice(GlobalT):
    frm: str
    to: str
    branches: tuple[tuple[str, GlobalT], ...]


@dataclass(frozen=True, eq=False)
class GRec(GlobalT):
    var: str
    body: GlobalT


@dataclass(frozen=True, eq=False)
class GVar(GlobalT):
    var: str


GEND = GEnd()


def gmsg(frm, to, payload, cont):
    if frm == to:
        raise SessionTypeError(f"self-communication {frm}->{to}")
    return GMsg(frm, to, payload, cont)


def gchoice(frm, to, pairs):
    if frm == to:
        raise SessionTypeError(f"self-communication {frm}->{to}")
    return GChoice(frm, to, branches(pairs))


# ---------------------------------------------------------------------------
# Expressions


class Expr(metaclass=_Interned):
    __slots__ = ()


@dataclass(frozen=True, eq=False)
class ETrue(Expr):
    pass


@dataclass(frozen=True, eq=False)
class EFalse(Expr):
    pass


@dataclass(frozen=True, eq=False)
class ENat(Expr):
    value: int


@dataclass(frozen=True, eq=False)
class EInt(Expr):
    value: int


@dataclass(frozen=True, eq=False)
class EVar(Expr):
    name: str


@dataclass(frozen=True, eq=False)
class EOr(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True, eq=False)
class ENot(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False)
class EAdd(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True, eq=False)
class ENonDet(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True, eq=False)
class ENeg(Expr):
    arg: Expr


TRUE = ETrue()
FALSE = EFalse()


# ---------------------------------------------------------------------------
# Processes and sessions


class Proc(metaclass=_Interned):
    __slots__ = ()


@dataclass(frozen=True, eq=False)
class PInact(Proc):
    pass


@dataclass(frozen=True, eq=False)
class PSend(Proc):
    peer: str
    expr: Expr
    cont: Proc


@dataclass(frozen=True, eq=False)
class PRecv(Proc):
    peer: str
    var: str
    cont: Proc


@dataclass(frozen=True, eq=False)
class PSel(Proc):
    peer: str
    label: str
    cont: Proc


@dataclass(frozen=True, eq=False)
class PBra(Proc):
    peer: str
    branches: tuple[tuple[str, Proc], ...]


@dataclass(frozen=True, eq=False)
class PCond(Proc):
    cond: Expr
    then: Proc
    orelse: Proc


@dataclass(frozen=True, eq=False)
class PRec(Proc):
    var: str
    body: Proc


@dataclass(frozen=True, eq=False)
class PVar(Proc):
    var: str


INACT = PInact()


@dataclass(frozen=True, eq=False)
class Session(metaclass=_Interned):
    """Parallel composition as a map participant -> process."""

    roles: tuple[tuple[str, Proc], ...]

    def __post_init__(self):
        names = [n for n, _ in self.roles]
        if len(set(names)) != len(names):
            raise SessionTypeError(f"duplicate participants {names}")
        if not names:
            raise SessionTypeError("empty session")

    def mapping(self) -> dict[str, Proc]:
        return dict(self.roles)


def session(pairs) -> Session:
    return Session(tuple(sorted(pairs, key=lambda kv: kv[0])))


@dataclass(frozen=True, eq=False)
class TypingContext(metaclass=_Interned):
    """Map participant -> closed local type; the state of the context LTS."""

    entries: tuple[tuple[str, LocalT], ...]

    def __post_init__(self):
        names = [n for n, _ in self.entries]
        if len(set(names)) != len(names):
            raise SessionTypeError(f"duplicate participants {names}")
        if not names:
            raise SessionTypeError("empty typing context")

    def mapping(self) -> dict[str, LocalT]:
        return dict(self.entries)

    def participants(self) -> list[str]:
        return [n for n, _ in self.entries]


def typing_context(pairs) -> TypingContext:
    return TypingContext(tuple(sorted(pairs, key=lambda kv: kv[0])))


# ---------------------------------------------------------------------------
# Size


def size(t) -> int:
    """Inductive size |t| of a local type, global type, process, expression
    or session, following the per-category definitions."""
    if isinstance(t, (TEnd, TVar, GEnd, GVar, PInact, PVar)):
        return 1
    if isinstance(t, (TRec, GRec, PRec)):
        return 1 + size(t.body)
    if isinstance(t, (TOut, TIn, GMsg)):
        return 1 + size(t.cont)
    if isinstance(t, (TSel, TBra, GChoice, PBra)):
        return 1 + sum(size(b) for _, b in t.branches)
    if isinstance(t, PSend):
        return 1 + size(t.expr) + size(t.cont)
    if isinstance(t, PRecv):
        return 1 + size(t.cont)
    if isinstance(t, PSel):
        return 1 + size(t.cont)
    if isinstance(t, PCond):
        return 1 + size(t.cond) + size(t.then) + size(t.orelse)
    if isinstance(t, (ETrue, EFalse, ENat, EInt, EVar)):
        return 1
    if isinstance(t, (ENot, ENeg)):
        return 1 + size(t.arg)
    if isinstance(t, (EOr, EAdd, ENonDet)):
        return 1 + size(t.lhs) + size(t.rhs)
    if isinstance(t, Session):
        return sum(size(p) + 1 for _, p in t.roles) + max(0, len(t.roles) - 1)
    raise TypeError(f"size: unsupported node {t!r}")


# ---------------------------------------------------------------------------
# Free variables, substitution, unfolding

_LOCAL_COMM = (TOut, TIn, TSel, TBra)
_GLOBAL_COMM = (GMsg, GChoice)


_fv_memo: dict = {}


def free_vars(t) -> frozenset[str]:
    out = _fv_memo.get(t)
    if out is not None:
        return out
    if isinstance(t, (TVar, GVar)):
        out = frozenset([t.var])
    elif isinstance(t, (TRec, GRec)):
        out = free_vars(t.body) - {t.var}
    elif isinstance(t, (TOut, TIn, GMsg)):
        out = free_vars(t.cont)
    elif isinstance(t, (TSel, TBra, GChoice)):
        out = frozenset().union(*(free_vars(b) for _, b in t.branches))
    else:
        out = frozenset()
    _fv_memo[t] = out
    return out


def is_closed(t) -> bool:
    return not free_vars(t)


def subst(t, var: str, repl):
    """Capture-avoiding substitution of `repl` for the free variable `var`.

    All substitutions performed here plug in closed recursions, so a free
    variable of `repl` can never be captured; we only respect shadowing.
    A node none of whose children changed is returned itself, so only the
    spine down to each occurrence of `var` is copied.
    """
    if isinstance(t, (TVar, GVar)):
        return repl if t.var == var else t
    if isinstance(t, (TRec, GRec)):
        body = t.body if t.var == var else subst(t.body, var, repl)
        return t if body is t.body else type(t)(t.var, body)
    if isinstance(t, (TOut, TIn, GMsg)):
        cont = subst(t.cont, var, repl)
        if cont is t.cont:
            return t
        if isinstance(t, GMsg):
            return GMsg(t.frm, t.to, t.payload, cont)
        return type(t)(t.peer, t.payload, cont)
    if isinstance(t, (TSel, TBra, GChoice)):
        pairs = tuple((l, subst(b, var, repl)) for l, b in t.branches)
        if all(b is b0 for (_, b), (_, b0) in zip(pairs, t.branches)):
            return t
        if isinstance(t, GChoice):
            return GChoice(t.frm, t.to, pairs)
        return type(t)(t.peer, pairs)
    return t


_unfold_memo: dict = {}


def unfold(t):
    """unfold(mu t.T) = unfold(T[mu t.T / t]); identity on other heads.

    Terminates on guarded types only.
    """
    out = _unfold_memo.get(t)
    if out is not None:
        return out
    u = t
    steps = 0
    while isinstance(u, (TRec, GRec)):
        u = subst(u.body, u.var, u)
        steps += 1
        if steps > 10_000:
            raise SessionTypeError("unguarded recursion in unfold")
    _unfold_memo[t] = u
    return u


# ---------------------------------------------------------------------------
# Guardedness

def check_guarded(t) -> None:
    """Reject recursion binders whose variable occurs without an intervening
    communication prefix.  mu t.t is out; mu t.mu u.p!(int);t is fine."""

    def walk(u, pending: frozenset[str]):
        if isinstance(u, (TVar, GVar)):
            if u.var in pending:
                raise SessionTypeError(f"unguarded recursion variable {u.var}")
        elif isinstance(u, (TRec, GRec)):
            walk(u.body, pending | {u.var})
        elif isinstance(u, (TOut, TIn, GMsg)):
            walk(u.cont, frozenset())
        elif isinstance(u, (TSel, TBra, GChoice)):
            for _, b in u.branches:
                walk(b, frozenset())

    walk(t, frozenset())


def check_guarded_proc(p) -> None:
    """Process recursion variables must occur under a communication prefix.

    Conditionals do not count as guards: mu X. if e then X else X would
    reduce forever without communicating and yields an unconstrained
    inference variable, so it is rejected as input.
    """

    def walk(u, pending: frozenset[str]):
        if isinstance(u, PVar):
            if u.var in pending:
                raise SessionTypeError(f"unguarded process variable {u.var}")
        elif isinstance(u, PRec):
            walk(u.body, pending | {u.var})
        elif isinstance(u, (PSend, PRecv, PSel)):
            walk(u.cont, frozenset())
        elif isinstance(u, PBra):
            for _, b in u.branches:
                walk(b, frozenset())
        elif isinstance(u, PCond):
            walk(u.then, pending)
            walk(u.orelse, pending)

    walk(p, frozenset())


# ---------------------------------------------------------------------------
# Subformulas


def subformulas(t) -> frozenset:
    """Sub(t) for closed local or global types.  The Rec clause substitutes
    the whole binder into each body subformula, so members are closed."""
    if isinstance(t, (TEnd, TVar, GEnd, GVar)):
        return frozenset([t])
    if isinstance(t, (TOut, TIn, GMsg)):
        return frozenset([t]) | subformulas(t.cont)
    if isinstance(t, (TSel, TBra, GChoice)):
        out = frozenset([t])
        for _, b in t.branches:
            out |= subformulas(b)
        return out
    if isinstance(t, (TRec, GRec)):
        inner = subformulas(t.body)
        return frozenset([t]) | frozenset(subst(s, t.var, t) for s in inner)
    raise TypeError(f"subformulas: unsupported node {t!r}")


# ---------------------------------------------------------------------------
# Participants


def participants(g) -> frozenset[str]:
    """pt(G): participants of a global type (pt(end) = pt(t) = {})."""
    if isinstance(g, (GEnd, GVar)):
        return frozenset()
    if isinstance(g, GRec):
        return participants(g.body)
    if isinstance(g, GMsg):
        return participants(g.cont) | {g.frm, g.to}
    if isinstance(g, GChoice):
        out = frozenset([g.frm, g.to])
        for _, b in g.branches:
            out |= participants(b)
        return out
    raise TypeError(f"participants: unsupported node {g!r}")


# ---------------------------------------------------------------------------
# Alpha handling


_canon_memo: dict = {}


def alpha_canon(t):
    """De Bruijn style canonical form: every binder is renamed to "%" and
    every variable to its binding distance, so two types are
    alpha-equivalent iff their canonical forms are one object.

    Distances are context-free, which lets subtree canonicalisation be
    memoised on (subtree, relative offsets of its free variables); graph
    interning over heavily shared subformulas stays near-linear.
    """

    def walk(u, env: dict, depth: int):
        if isinstance(u, (TVar, GVar)):
            off = env.get(u.var)
            return type(u)(u.var if off is None else f"%{depth - off}")
        key = (u, tuple(sorted(
            (v, depth - env[v]) for v in free_vars(u) if v in env)) if env else ())
        hit = _canon_memo.get(key)
        if hit is not None:
            return hit
        if isinstance(u, (TRec, GRec)):
            out = type(u)("%", walk(u.body, {**env, u.var: depth}, depth + 1))
        elif isinstance(u, (TOut, TIn)):
            out = type(u)(u.peer, u.payload, walk(u.cont, env, depth))
        elif isinstance(u, GMsg):
            out = GMsg(u.frm, u.to, u.payload, walk(u.cont, env, depth))
        elif isinstance(u, (TSel, TBra)):
            out = type(u)(u.peer, tuple((l, walk(b, env, depth)) for l, b in u.branches))
        elif isinstance(u, GChoice):
            out = GChoice(u.frm, u.to, tuple((l, walk(b, env, depth)) for l, b in u.branches))
        else:
            out = u
        _canon_memo[key] = out
        return out

    return walk(t, {}, 0)


def alpha_eq(a, b) -> bool:
    return alpha_canon(a) is alpha_canon(b)


def uniquify_binders(t, taken: set[str] | None = None):
    """Rename recursion binders so every binder in the term is distinct.
    Keeps user names when possible; applied once at parse time."""
    taken = set() if taken is None else taken

    def fresh(name):
        if name not in taken:
            taken.add(name)
            return name
        for i in itertools.count(1):
            cand = f"{name}_{i}"
            if cand not in taken:
                taken.add(cand)
                return cand

    def walk(u, env):
        if isinstance(u, (TVar, GVar, PVar)):
            return type(u)(env.get(u.var, u.var))
        if isinstance(u, (TRec, GRec, PRec)):
            name = fresh(u.var)
            return type(u)(name, walk(u.body, {**env, u.var: name}))
        if isinstance(u, (TOut, TIn)):
            return type(u)(u.peer, u.payload, walk(u.cont, env))
        if isinstance(u, GMsg):
            return GMsg(u.frm, u.to, u.payload, walk(u.cont, env))
        if isinstance(u, (TSel, TBra)):
            return type(u)(u.peer, tuple((l, walk(b, env)) for l, b in u.branches))
        if isinstance(u, GChoice):
            return GChoice(u.frm, u.to, tuple((l, walk(b, env)) for l, b in u.branches))
        if isinstance(u, PSend):
            return PSend(u.peer, u.expr, walk(u.cont, env))
        if isinstance(u, PRecv):
            return PRecv(u.peer, u.var, walk(u.cont, env))
        if isinstance(u, PSel):
            return PSel(u.peer, u.label, walk(u.cont, env))
        if isinstance(u, PBra):
            return PBra(u.peer, tuple((l, walk(b, env)) for l, b in u.branches))
        if isinstance(u, PCond):
            return PCond(u.cond, walk(u.then, env), walk(u.orelse, env))
        return u

    return walk(t, {})


def validate_local(t: LocalT, require_closed: bool = True) -> LocalT:
    check_guarded(t)
    if require_closed and not is_closed(t):
        raise SessionTypeError(f"free type variables {sorted(free_vars(t))}")
    return t


def validate_global(g: GlobalT, require_closed: bool = True) -> GlobalT:
    check_guarded(g)
    if require_closed and not is_closed(g):
        raise SessionTypeError(f"free type variables {sorted(free_vars(g))}")
    return g
