"""AST definitions for sorts, local/global types, expressions, processes,
sessions and typing contexts, plus the structural metrics used everywhere
else (size, subformulas, unfolding, free variables, guardedness).

All nodes are immutable and hash-consed: constructing a node equal to a
live one returns the live one, so equality and hashing are object identity.
Alpha-insensitive comparison goes through :func:`alpha_canon`.  Nodes are
slotted dataclasses with no `__dict__`, and the intern table `_live` holds
each by a weak reference, so it keeps no node alive.

Identity is equality only on a canonical representation, so `_check`
enforces one invariant once per node, when it is made: the labels of a
selection, branching or choice, and the participants of a session or
typing context, are non-empty, sorted and distinct (`branches` sorts
them), and a message or choice has two distinct participants.  Process
branchings keep the order of their text, with distinct labels.

`CHILDREN` names the child fields of each class, and is the only place
that does.  `fold` is the one walk over ASTs that computes a result per
node: a post-order fold with an explicit stack, so no input is too deep for
it, with a pre-order hook for walks that carry an environment or choose the
children they visit.  Two printers keep a stack of their own, because they
only append text left to right and a fold's hook calls per node would cost
more than their work: `printer._text` and `typegraph.graph_text`.  Every
walk with binders, the parser's included, keeps one scope map per call: a
binder's pre hook `bind`s its name, keeping the binding it hides in its env,
and its post hook `unbind`s it.  A copy of the map per binder would stay
alive on the fold's stack, memory quadratic in the depth of binders.

Three process-wide tables memoise the metrics, keyed by node: `_fv_memo`
holds free variables, `_canon_memo` alpha-canonical forms, and
`_unfold_memo` the one-step unfolding (`unfold1`) of each type recursion
unfolded so far.  `unfold` loops over `unfold1` and keeps nothing of its
own, and no other module keeps an unfolding memo.

`subst` visits only the subterms in which its variable is free, as the
`free_vars` memo tells, so unfolding a recursion copies the spine down to
each occurrence of its variable and nothing else.  `unfold` takes one step
per leading binder of its term: a guarded term then has a head that is not
a recursion, so a term still headed by one is unguarded.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, fields
from itertools import count
from operator import attrgetter, is_, itemgetter

_first, _second = itemgetter(0), itemgetter(1)


class SessionTypeError(Exception):
    """Ill-formed input: duplicate labels, unguarded recursion, p -> p, ..."""


class BudgetExceeded(Exception):
    """A search exceeded its budget of states, judgements or steps."""


# ---------------------------------------------------------------------------
# Hash-consing (Filliatre & Conchon, Type-Safe Modular Hash-Consing, 2006)


class _Ref(weakref.ref):
    """A weak reference to a node that carries the node's key."""

    __slots__ = ("key",)


def _drop(ref: _Ref) -> None:
    """The callback of a dead node's reference: remove its entry, unless
    the key has been interned again since (the entry is another ref)."""
    if _live.get(ref.key) is ref:
        del _live[ref.key]


_live: dict = {}  # (class, *fields) -> a `_Ref` to the live node
_CHECKED: dict = {}  # the classes `_check` constrains, filled in below


class _Interned(type):
    """Metaclass of the AST roots: a node is keyed by its class and its
    positional fields, and a live node with that key is returned instead of
    a new one.  Children are interned already, so the key hashes and
    compares them by identity.  A new node is checked by `_check` before it
    is made, so a node that breaks the invariant never enters the table,
    and a hit costs no check."""

    def __call__(cls, *args, **kwargs):
        if kwargs:
            raise TypeError(f"{cls.__name__} takes its fields positionally")
        key = (cls, *args)
        ref = _live.get(key)
        node = None if ref is None else ref()
        if node is None:
            if cls in _CHECKED:
                _check(cls, args)
            node = super().__call__(*args)
            ref = _live[key] = _Ref(node, _drop)
            ref.key = key
        return node


class _Node(metaclass=_Interned):
    """The root of every AST class.  Nodes are slotted dataclasses, with no
    `__dict__`; this root gives them the one slot a weak reference needs."""

    __slots__ = ("__weakref__",)


# ---------------------------------------------------------------------------
# Sorts


@dataclass(frozen=True, eq=False, slots=True)
class Sort(_Node):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True, eq=False, slots=True)
class SortVar(_Node):
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


class LocalT(_Node):
    __slots__ = ()


@dataclass(frozen=True, eq=False, slots=True)
class TEnd(LocalT):
    pass


@dataclass(frozen=True, eq=False, slots=True)
class TOut(LocalT):
    peer: str
    payload: Sort | SortVar
    cont: LocalT


@dataclass(frozen=True, eq=False, slots=True)
class TIn(LocalT):
    peer: str
    payload: Sort | SortVar
    cont: LocalT


@dataclass(frozen=True, eq=False, slots=True)
class TSel(LocalT):
    peer: str
    branches: tuple[tuple[str, LocalT], ...]


@dataclass(frozen=True, eq=False, slots=True)
class TBra(LocalT):
    peer: str
    branches: tuple[tuple[str, LocalT], ...]


@dataclass(frozen=True, eq=False, slots=True)
class TRec(LocalT):
    var: str
    body: LocalT


@dataclass(frozen=True, eq=False, slots=True)
class TVar(LocalT):
    var: str


END = TEnd()


def branches(pairs) -> tuple[tuple[str, object], ...]:
    """(name, child) pairs in name order, the order nodes keep them in."""
    return tuple(sorted(pairs, key=_first))


# ---------------------------------------------------------------------------
# Global types


class GlobalT(_Node):
    __slots__ = ()


@dataclass(frozen=True, eq=False, slots=True)
class GEnd(GlobalT):
    pass


@dataclass(frozen=True, eq=False, slots=True)
class GMsg(GlobalT):
    frm: str
    to: str
    payload: Sort | SortVar
    cont: GlobalT


@dataclass(frozen=True, eq=False, slots=True)
class GChoice(GlobalT):
    frm: str
    to: str
    branches: tuple[tuple[str, GlobalT], ...]


@dataclass(frozen=True, eq=False, slots=True)
class GRec(GlobalT):
    var: str
    body: GlobalT


@dataclass(frozen=True, eq=False, slots=True)
class GVar(GlobalT):
    var: str


# ---------------------------------------------------------------------------
# Expressions


class Expr(_Node):
    __slots__ = ()


@dataclass(frozen=True, eq=False, slots=True)
class ETrue(Expr):
    pass


@dataclass(frozen=True, eq=False, slots=True)
class EFalse(Expr):
    pass


@dataclass(frozen=True, eq=False, slots=True)
class ENat(Expr):
    value: int


@dataclass(frozen=True, eq=False, slots=True)
class EInt(Expr):
    value: int


@dataclass(frozen=True, eq=False, slots=True)
class EVar(Expr):
    name: str


@dataclass(frozen=True, eq=False, slots=True)
class EOr(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True, eq=False, slots=True)
class ENot(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False, slots=True)
class EAdd(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True, eq=False, slots=True)
class ENonDet(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True, eq=False, slots=True)
class ENeg(Expr):
    arg: Expr


TRUE = ETrue()
FALSE = EFalse()


# ---------------------------------------------------------------------------
# Processes and sessions


class Proc(_Node):
    __slots__ = ()


@dataclass(frozen=True, eq=False, slots=True)
class PInact(Proc):
    pass


@dataclass(frozen=True, eq=False, slots=True)
class PSend(Proc):
    peer: str
    expr: Expr
    cont: Proc


@dataclass(frozen=True, eq=False, slots=True)
class PRecv(Proc):
    peer: str
    var: str
    cont: Proc


@dataclass(frozen=True, eq=False, slots=True)
class PSel(Proc):
    peer: str
    label: str
    cont: Proc


@dataclass(frozen=True, eq=False, slots=True)
class PBra(Proc):
    peer: str
    branches: tuple[tuple[str, Proc], ...]


@dataclass(frozen=True, eq=False, slots=True)
class PCond(Proc):
    cond: Expr
    then: Proc
    orelse: Proc


@dataclass(frozen=True, eq=False, slots=True)
class PRec(Proc):
    var: str
    body: Proc


@dataclass(frozen=True, eq=False, slots=True)
class PVar(Proc):
    var: str


INACT = PInact()


@dataclass(frozen=True, eq=False, slots=True)
class Session(_Node):
    """Parallel composition as a map participant -> process."""

    roles: tuple[tuple[str, Proc], ...]

    def mapping(self) -> dict[str, Proc]:
        return dict(self.roles)


def session(pairs) -> Session:
    return Session(branches(pairs))


@dataclass(frozen=True, eq=False, slots=True)
class TypingContext(_Node):
    """Map participant -> closed local type; the state of the context LTS."""

    entries: tuple[tuple[str, LocalT], ...]

    def mapping(self) -> dict[str, LocalT]:
        return dict(self.entries)

    def participants(self) -> list[str]:
        return [n for n, _ in self.entries]


def typing_context(pairs) -> TypingContext:
    return TypingContext(branches(pairs))


# ---------------------------------------------------------------------------
# The invariant of every node

# class -> (what its names are, the error when it has none)
_LABELS = ("labels", "empty branch set")
_CHECKED.update({GMsg: None, PBra: None, TSel: _LABELS, TBra: _LABELS, GChoice: _LABELS,
                 Session: ("participants", "empty session"),
                 TypingContext: ("participants", "empty typing context")})


def _check(cls, args) -> None:
    """Raise SessionTypeError unless the fields `args` of a new `cls` node
    keep the invariant (see the module docstring)."""
    if (cls is GMsg or cls is GChoice) and args[0] == args[1]:
        raise SessionTypeError(f"self-communication {args[0]}->{args[1]}")
    if cls is GMsg:
        return
    if cls is PBra:  # text order stays: distinct labels only
        names = [n for n, _ in args[-1]]
        if len(set(names)) < len(names):
            raise SessionTypeError(f"duplicate labels {names}")
        return
    what, empty = _CHECKED[cls]
    pairs = args[-1]
    if not pairs:
        raise SessionTypeError(empty)
    prev = None
    for name, _ in pairs:  # a plain loop: this runs for every new node
        if prev is not None and name <= prev:
            names = [n for n, _ in pairs]
            why = f"duplicate {what}" if len(set(names)) < len(names) else f"{what} out of order"
            raise SessionTypeError(f"{why} {names}")
        prev = name


# ---------------------------------------------------------------------------
# The child table and the one walk over it

# class -> its positional fields that hold children, in order.  A field
# named in _PAIRS holds (name, child) pairs; any other holds one child.
CHILDREN = {
    TOut: ("cont",), TIn: ("cont",), TSel: ("branches",), TBra: ("branches",),
    TRec: ("body",),
    GMsg: ("cont",), GChoice: ("branches",), GRec: ("body",),
    ENot: ("arg",), ENeg: ("arg",),
    EOr: ("lhs", "rhs"), EAdd: ("lhs", "rhs"), ENonDet: ("lhs", "rhs"),
    PSend: ("expr", "cont"), PRecv: ("cont",), PSel: ("cont",), PBra: ("branches",),
    PCond: ("cond", "then", "orelse"), PRec: ("body",),
    Session: ("roles",), TypingContext: ("entries",),
}
_PAIRS = {"branches", "roles", "entries"}


def _accessors(cls, names):
    """(the children of a node, the node with new children) for class `cls`,
    read off its dataclass fields."""
    all_fields = [f.name for f in fields(cls)]
    at = [all_fields.index(n) for n in names]
    get = attrgetter(*names)
    if names[0] in _PAIRS:
        def kids(t):
            return tuple(map(_second, get(t)))
    elif len(names) == 1:
        def kids(t):
            return (get(t),)
    else:
        kids = get

    def make(t, new):
        args = [getattr(t, f) for f in all_fields]
        if names[0] in _PAIRS:
            new = [tuple(zip([l for l, _ in args[at[0]]], new))]
        for i, k in zip(at, new):
            args[i] = k
        return cls(*args)

    return kids, make


_KIDS, _MAKE = {}, {}
for _cls, _names in CHILDREN.items():
    _KIDS[_cls], _MAKE[_cls] = _accessors(_cls, _names)
# class -> the getter of its only child, for the classes that have one
_ONLY_CHILD = {c: attrgetter(n[0]) for c, n in CHILDREN.items() if len(n) == 1 and n[0] not in _PAIRS}


def children(t) -> tuple:
    """The children of node t, in the order of its fields."""
    kids = _KIDS.get(type(t))
    return kids(t) if kids else ()


def rebuild(t, new, env=None):
    """Node t with its children replaced by `new`, or t itself if none
    changed (hash-consing would find t again; this skips the lookup).  As a
    fold's post, it copies the spine down to the children that changed."""
    if all(map(is_, new, children(t))):
        return t
    return _MAKE[type(t)](t, new)


class Done:
    """A pre hook's answer: `value` is the node's result, and its children
    are not visited."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Visit:
    """A pre hook's answer: fold `kids`, in this order, in `env`, in place
    of the node's children."""

    __slots__ = ("kids", "env")

    def __init__(self, kids, env):
        self.kids = kids
        self.env = env


def bind(scope: dict, name: str, value):
    """Bind `name` to `value` in `scope`; return the binding it hides."""
    old = scope.get(name)
    scope[name] = value
    return old


def unbind(scope: dict, name: str, old) -> None:
    """Restore the binding of `name` that `bind` returned."""
    if old is None:
        del scope[name]
    else:
        scope[name] = old


def fold(t, post, pre=None, env=None, memo=None):
    """The walk over ASTs that computes a result per node (module docstring):
    a post-order fold with an explicit stack, so no depth of input reaches
    the interpreter's recursion limit.

    `post(node, results, env)` gives a node's result from the results of
    its children, in order.  `pre(node, env)`, if given, runs when the node
    is reached and returns the env its children are folded in (which post
    receives too), or a Done or a Visit.  `memo` maps nodes to results: a
    node found there is not visited again, and every result is stored.
    A node's pre and post run before and after its whole subtree (`bind`)."""
    # A node waiting for its children: (node, env) if it has one, else
    # [node, env, kids, the next kid's index, where its results start].
    frames: list = []
    out: list = []  # results of the children before the one being folded
    push, pop = frames.append, frames.pop
    node = t
    while True:
        # reach `node` in `env`: r is its result, unless it has children
        if memo is not None and node in memo:
            r = memo[node]
        else:
            if pre is not None:
                env = pre(node, env)
            if type(env) is Done:
                r = env.value
            else:
                if type(env) is Visit:
                    kids, env = env.kids, env.env
                elif type(node) in _ONLY_CHILD:
                    push((node, env))
                    node = _ONLY_CHILD[type(node)](node)
                    continue
                else:
                    kids = _KIDS.get(type(node))
                    kids = kids(node) if kids else ()
                if kids:
                    push((node, env) if len(kids) == 1 else [node, env, kids, 1, len(out)])
                    node = kids[0]
                    continue
                r = post(node, (), env)
                if memo is not None:
                    memo[node] = r
        # hand r to the innermost frame: visit its next child, or finish it
        while frames:
            f = frames[-1]
            if type(f) is tuple:
                pop()
                vals = (r,)
            else:
                kids, i = f[2], f[3]
                if i < len(kids):
                    out.append(r)
                    f[3] = i + 1
                    node, env = kids[i], f[1]
                    break
                pop()
                vals = out[f[4]:]
                del out[f[4]:]
                vals.append(r)
            r = post(f[0], vals, f[1])
            if memo is not None:
                memo[f[0]] = r
        else:
            return r
# ---------------------------------------------------------------------------
# Size

# AST classes are never subclassed, so walks test `type(u) in` these sets
_VARS = {TVar, GVar, PVar}
_RECS = {TRec, GRec, PRec}
_EXPRS = set(Expr.__subclasses__())


def size(t, memo: dict | None = None) -> int:
    """Inductive size |t| of a local type, global type, process, expression,
    session or typing context, following the per-category definitions: a
    session or context counts each entry plus one, and the separators.
    `memo`, if given, is a size table the caller keeps across calls."""
    return fold(t, _size, memo={} if memo is None else memo)


def _size(u, vals, env):
    if type(u) is Session or type(u) is TypingContext:
        return sum(vals) + 2 * len(vals) - 1
    return 1 + sum(vals)


# ---------------------------------------------------------------------------
# Free variables, substitution, unfolding


_fv_memo: dict = {}


def free_vars(t) -> frozenset[str]:
    out = _fv_memo.get(t)
    return out if out is not None else fold(t, _free, memo=_fv_memo)


_NONE: frozenset[str] = frozenset()


def _free(u, vals, env):
    if type(u) in _VARS:
        return frozenset([u.var])
    out = vals[0].union(*vals[1:]) if vals else _NONE
    return out - {u.var} if type(u) in _RECS else out


def is_closed(t) -> bool:
    return not free_vars(t)


def subst(t, var: str, repl):
    """Capture-avoiding substitution of `repl` for the free recursion
    variable `var` of a type or process.

    All substitutions performed here plug in closed recursions, so a free
    variable of `repl` can never be captured.  A subterm in which `var` is
    not free (a closed one, an expression, or one under a binder of `var`)
    is returned itself, unvisited, as the `free_vars` memo tells; so only
    the spine down to each occurrence of `var` is visited and copied.
    """

    def enter(u, env):
        if var not in free_vars(u):
            return Done(u)
        return Done(repl) if type(u) in _VARS else env

    return fold(t, rebuild, enter)


_unfold_memo: dict = {}  # type recursion -> its one-step unfolding


def unfold1(t):
    """mu t.T -> T[mu t.T / t]: one unfolding step of the recursion t.
    Type recursions are memoised in `_unfold_memo`, as graph building and
    the inductive proof search unfold the same ones again and again.
    Process recursions are not: a process is unfolded as it runs."""
    if type(t) is PRec:
        return subst(t.body, t.var, t)
    u = _unfold_memo.get(t)
    if u is None:
        u = _unfold_memo[t] = subst(t.body, t.var, t)
    return u


def unfold(t):
    """unfold(mu t.T) = unfold(T[mu t.T / t]); identity on other heads.

    On a guarded term each step strips one of the leading binders, so as
    many steps as it has leading binders reach a head that is not a
    recursion; a term still headed by one then, such as mu t.t or
    mu t.mu u.t, is unguarded and raises SessionTypeError.
    """
    steps, u = 0, t
    while type(u) in _RECS:
        steps, u = steps + 1, u.body
    for _ in range(steps):
        t = unfold1(t)
    if type(t) in _RECS:
        raise SessionTypeError(
            "unguarded process recursion" if isinstance(t, Proc)
            else "unguarded recursion in unfold")
    return t


# ---------------------------------------------------------------------------
# Guardedness

_PREFIXES = {TOut, TIn, TSel, TBra, GMsg, GChoice, PSend, PRecv, PSel, PBra}


def check_guarded(t) -> None:
    """Reject recursion binders whose variable occurs without an intervening
    communication prefix.  mu t.t is out; mu t.mu u.p!(int);t is fine.

    The parser's rule: each prefix takes a fresh guard number, and a
    variable is unguarded while its binder's number is in force.  A
    conditional is no prefix: mu X. if e then X else X would reduce
    forever without communicating, leaving an inference variable unconstrained.
    """
    scope: dict = {}  # binder name -> its guard number
    guards = count(1)

    def enter(u, env):  # env: (the guard number in force, the hidden binding)
        if type(u) in _VARS:
            if scope.get(u.var) == env[0]:
                kind = "process" if type(u) is PVar else "recursion"
                raise SessionTypeError(f"unguarded {kind} variable {u.var}")
            return _DONE
        if type(u) in _RECS:
            return env[0], bind(scope, u.var, env[0])
        if type(u) in _EXPRS:
            return _DONE
        return (next(guards), None) if type(u) in _PREFIXES else env

    def leave(u, vals, env):
        if type(u) in _RECS:
            unbind(scope, u.var, env[1])

    fold(t, leave, enter, (0, None))


_DONE = Done(None)


# ---------------------------------------------------------------------------
# Subformulas


def subformulas(t) -> frozenset:
    """Sub(t) for closed local or global types.  The Rec clause substitutes
    the whole binder into each body subformula, so members are closed."""
    return fold(t, _subformulas)


def _subformulas(u, vals, env):
    if type(u) in _RECS:
        return frozenset([u]) | frozenset(subst(s, u.var, u) for s in vals[0])
    return frozenset([u]).union(*vals)


# ---------------------------------------------------------------------------
# Participants


def participants(g) -> frozenset[str]:
    """pt(G): participants of a global type (pt(end) = pt(t) = {})."""
    return fold(g, _participants, memo={})


def _participants(u, vals, env):
    out = vals[0].union(*vals[1:]) if vals else _NONE
    return out | {u.frm, u.to} if type(u) is GMsg or type(u) is GChoice else out


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
    hit = _canon_memo.get((t, ()))
    return hit if hit is not None else fold(t, _canon, _canon_enter, ({}, 0, None, None))


def _canon_enter(u, env):
    """The env of a node: (binder depths, its depth, memo key, hidden depth)."""
    names, depth, _, _ = env
    if type(u) in _VARS:
        off = names.get(u.var)
        return Done(type(u)(u.var if off is None else f"%{depth - off}"))
    key = (u, tuple(sorted(
        (v, depth - names[v]) for v in free_vars(u) if v in names)) if names else ())
    hit = _canon_memo.get(key)
    if hit is not None:
        return Done(hit)
    if type(u) in _RECS:
        return names, depth + 1, key, bind(names, u.var, depth)
    return names, depth, key, None


def _canon(u, vals, env):
    if type(u) in _RECS:
        unbind(env[0], u.var, env[3])
    out = _canon_memo[env[2]] = type(u)("%", vals[0]) if type(u) in _RECS else rebuild(u, vals)
    return out


def alpha_eq(a, b) -> bool:
    return alpha_canon(a) is alpha_canon(b)


class Renaming:
    """Fresh recursion-binder names for one term.  A binder keeps its name
    if no earlier binder of the term has it; otherwise it gets the first of
    name_1, name_2, ... that is neither an identifier of the input nor given
    already, so a renamed binder never captures a free variable."""

    def __init__(self, idents):
        self.taken = set(idents)  # every binder name is an identifier too
        self.bound: set[str] = set()
        self.suffix: dict[str, int] = {}  # name -> the last suffix given

    def fresh(self, name: str) -> str:
        if name not in self.bound:
            self.bound.add(name)
            return name
        i = self.suffix.get(name, 0) + 1
        while f"{name}_{i}" in self.taken:
            i += 1
        self.suffix[name] = i
        self.taken.add(f"{name}_{i}")
        return f"{name}_{i}"


def uniquify_binders(t):
    """Rename the recursion binders of a type or process built by hand so
    that every binder in it is distinct, by `Renaming` over its variable
    names (the parser renames as it reads)."""
    idents = set()

    def name(u, vals, env):
        if type(u) in _VARS or type(u) in _RECS:
            idents.add(u.var)

    fold(t, name)
    fresh = Renaming(idents).fresh
    scope: dict = {}  # binder name -> its new name

    def enter(u, env):  # env: the binding a binder hides
        if type(u) in _VARS:
            return Done(type(u)(scope.get(u.var, u.var)))
        if type(u) in _RECS:
            return bind(scope, u.var, fresh(u.var))
        return Done(u) if type(u) in _EXPRS else None

    def leave(u, vals, env):
        if type(u) not in _RECS:
            return rebuild(u, vals)
        new = scope[u.var]
        unbind(scope, u.var, env)
        return type(u)(new, vals[0])

    return fold(t, leave, enter)
