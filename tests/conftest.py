"""Shared random generators for the property tests.

Everything is seeded; generators construct well-formed (guarded, closed,
distinct-label) ASTs by construction.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import settings

from mpstk.ast import (
    BOOL, INT, NAT, TRUE, FALSE,
    EInt, ENat, ENonDet, EVar,
    GChoice, GEnd, GMsg, GRec, GVar,
    PBra, PCond, PInact, PRec, PRecv, PSel, PSend, PVar,
    TBra, TEnd, TIn, TOut, TRec, TSel, TVar,
    check_guarded, is_closed,
)

# one profile for every property test: the same examples on every run and
# every machine, and no example database left in the checkout
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")

SORTS = [BOOL, NAT, INT]
LABELS = ["l1", "l2", "l3", "l4"]
PEERS = ["p", "q", "r"]


def rand_local(rng: random.Random, fuel: int, peers=PEERS, rec_vars=()):
    """Random closed guarded local type of size <= fuel + small constant."""
    if fuel <= 1:
        if rec_vars and rng.random() < 0.5:
            return TVar(rng.choice(rec_vars))
        return TEnd()
    kind = rng.choice(["in", "out", "sel", "bra", "rec", "leaf"])
    if kind == "leaf":
        return rand_local(rng, 1, peers, rec_vars)
    if kind == "rec":
        var = f"v{rng.randrange(10_000)}"
        body = _rand_local_comm(rng, fuel - 1, peers, tuple(rec_vars) + (var,))
        return TRec(var, body)
    return _rand_local_comm(rng, fuel, peers, rec_vars, kind)


def _rand_local_comm(rng, fuel, peers, rec_vars, kind=None):
    kind = kind or rng.choice(["in", "out", "sel", "bra"])
    peer = rng.choice(peers)
    if kind == "in":
        return TIn(peer, rng.choice(SORTS), rand_local(rng, fuel - 1, peers, rec_vars))
    if kind == "out":
        return TOut(peer, rng.choice(SORTS), rand_local(rng, fuel - 1, peers, rec_vars))
    n = rng.randint(1, min(3, max(1, fuel - 1)))
    labels = rng.sample(LABELS, n)
    share = max(1, (fuel - 1) // n)
    pairs = tuple(sorted((l, rand_local(rng, share, peers, rec_vars)) for l in labels))
    return (TSel if kind == "sel" else TBra)(peer, pairs)


def mutate_local(rng: random.Random, t):
    """A structurally related type: tweak branches, sorts or labels."""

    def go(t, budget):
        if budget <= 0:
            return t
        roll = rng.random()
        if isinstance(t, (TSel, TBra)):
            pairs = list(t.branches)
            if roll < 0.25 and len(pairs) > 1:
                pairs.pop(rng.randrange(len(pairs)))
            elif roll < 0.5:
                free = [l for l in LABELS if l not in dict(pairs)]
                if free:
                    pairs.append((rng.choice(free), TEnd()))
            else:
                i = rng.randrange(len(pairs))
                pairs[i] = (pairs[i][0], go(pairs[i][1], budget - 1))
            return type(t)(t.peer, tuple(sorted(pairs)))
        if isinstance(t, (TIn, TOut)):
            if roll < 0.15:
                return type(t)(t.peer, rng.choice(SORTS), t.cont)
            return type(t)(t.peer, t.payload, go(t.cont, budget - 1))
        if isinstance(t, TRec):
            return TRec(t.var, go(t.body, budget - 1))
        return t

    return go(t, 3)


def rand_local_pair(rng: random.Random, fuel: int):
    """Pairs biased toward relatedness so subtyping holds reasonably often."""
    t1 = rand_local(rng, fuel)
    roll = rng.random()
    if roll < 0.4:
        return t1, mutate_local(rng, t1)
    if roll < 0.55:
        return t1, t1
    return t1, rand_local(rng, fuel)


def rand_global(rng: random.Random, fuel: int, parts=("p", "q", "r"), rec_vars=()):
    """Random closed guarded global type; branch bodies are sometimes
    duplicated so plain merging succeeds now and then."""
    if fuel <= 1:
        if rec_vars and rng.random() < 0.5:
            return GVar(rng.choice(rec_vars))
        return GEnd()
    kind = rng.choice(["msg", "msg", "choice", "choice", "rec", "leaf"])
    if kind == "leaf":
        return rand_global(rng, 1, parts, rec_vars)
    if kind == "rec":
        var = f"v{rng.randrange(10_000)}"
        body = _rand_global_comm(rng, fuel - 1, parts, tuple(rec_vars) + (var,))
        return GRec(var, body)
    return _rand_global_comm(rng, fuel, parts, rec_vars, kind)


def _rand_global_comm(rng, fuel, parts, rec_vars, kind=None):
    kind = kind or rng.choice(["msg", "choice"])
    frm, to = rng.sample(list(parts), 2)
    if kind == "msg":
        return GMsg(frm, to, rng.choice(SORTS), rand_global(rng, fuel - 1, parts, rec_vars))
    n = rng.randint(1, min(3, max(1, fuel - 1)))
    labels = rng.sample(LABELS, n)
    share = max(1, (fuel - 1) // n)
    if rng.random() < 0.4:
        body = rand_global(rng, share, parts, rec_vars)
        pairs = tuple(sorted((l, body) for l in labels))
    else:
        pairs = tuple(sorted((l, rand_global(rng, share, parts, rec_vars)) for l in labels))
    return GChoice(frm, to, pairs)


def rand_expr(rng: random.Random, fuel: int, variables=()):
    if fuel <= 1:
        roll = rng.random()
        if variables and roll < 0.3:
            return EVar(rng.choice(variables))
        return rng.choice([TRUE, FALSE, ENat(rng.randrange(5)), EInt(-rng.randrange(1, 5))])
    kind = rng.choice(["not", "neg", "or", "add", "nondet", "leaf"])
    from mpstk.ast import EAdd, ENeg, ENot, EOr

    if kind == "leaf":
        return rand_expr(rng, 1, variables)
    if kind == "not":
        return ENot(rand_expr(rng, fuel - 1, variables))
    if kind == "neg":
        return ENeg(rand_expr(rng, fuel - 1, variables))
    ctor = {"or": EOr, "add": EAdd, "nondet": ENonDet}[kind]
    return ctor(rand_expr(rng, fuel // 2, variables), rand_expr(rng, fuel // 2, variables))


def rand_process(rng: random.Random, fuel: int, peers=PEERS, rec_vars=(), variables=()):
    if fuel <= 1:
        if rec_vars and rng.random() < 0.4:
            return PVar(rng.choice(rec_vars))
        return PInact()
    kind = rng.choice(["send", "recv", "sel", "bra", "cond", "rec", "leaf"])
    if kind == "leaf":
        return rand_process(rng, 1, peers, rec_vars, variables)
    if kind == "rec":
        var = f"X{rng.randrange(10_000)}"
        body = rand_process(rng, fuel - 1, peers, tuple(rec_vars) + (var,), variables)
        if isinstance(body, (PInact, PVar, PCond)):
            body = PSend(rng.choice(peers), rand_expr(rng, 2, variables), body)
        return PRec(var, body)
    peer = rng.choice(peers)
    if kind == "send":
        return PSend(peer, rand_expr(rng, 2, variables),
                     rand_process(rng, fuel - 2, peers, rec_vars, variables))
    if kind == "recv":
        var = f"x{rng.randrange(100)}"
        return PRecv(peer, var,
                     rand_process(rng, fuel - 1, peers, rec_vars, tuple(variables) + (var,)))
    if kind == "sel":
        return PSel(peer, rng.choice(LABELS),
                    rand_process(rng, fuel - 1, peers, rec_vars, variables))
    if kind == "bra":
        n = rng.randint(1, min(3, max(1, fuel - 1)))
        labels = rng.sample(LABELS, n)
        share = max(1, (fuel - 1) // n)
        return PBra(peer, tuple(sorted(
            (l, rand_process(rng, share, peers, rec_vars, variables)) for l in labels)))
    return PCond(rand_expr(rng, 2, variables),
                 rand_process(rng, (fuel - 1) // 2, peers, rec_vars, variables),
                 rand_process(rng, (fuel - 1) // 2, peers, rec_vars, variables))


@pytest.fixture
def rng():
    return random.Random(20240817)


def retarget_peers(t, peer):
    if isinstance(t, (TIn, TOut)):
        return type(t)(peer, t.payload, retarget_peers(t.cont, peer))
    if isinstance(t, (TSel, TBra)):
        return type(t)(peer, tuple((l, retarget_peers(b, peer)) for l, b in t.branches))
    if isinstance(t, TRec):
        return TRec(t.var, retarget_peers(t.body, peer))
    return t


def dualize(t, peer):
    if isinstance(t, TIn):
        return TOut(peer, t.payload, dualize(t.cont, peer))
    if isinstance(t, TOut):
        return TIn(peer, t.payload, dualize(t.cont, peer))
    if isinstance(t, TSel):
        return TBra(peer, tuple((l, dualize(b, peer)) for l, b in t.branches))
    if isinstance(t, TBra):
        return TSel(peer, tuple((l, dualize(b, peer)) for l, b in t.branches))
    if isinstance(t, TRec):
        return TRec(t.var, dualize(t.body, peer))
    return t


def rand_context(rng: random.Random, fuel: int = 5):
    """Small typing contexts biased toward interaction: a dual pair built
    from one local type, optionally with a dangling third participant, or
    three independent types."""
    from mpstk.ast import is_closed, typing_context
    from mpstk.parse import parse

    roll = rng.random()
    if roll < 0.6:
        t = rand_local(rng, fuel, peers=["q"])
        if not is_closed(t):
            t = parse("local", "q!(int); end")
        entries = [("p", retarget_peers(t, "q")), ("q", dualize(t, "p"))]
        if rng.random() < 0.4:
            entries.append(("r", rng.choice([
                parse("local", "s?(bool); end"),
                parse("local", "p?(int); end"),
                parse("local", "end"),
            ])))
    else:
        entries = []
        for name, peers in (("p", ["q", "r"]), ("q", ["p", "r"]), ("r", ["p", "q"])):
            t = rand_local(rng, max(3, fuel - 1), peers=peers)
            if not is_closed(t):
                t = parse("local", "end")
            entries.append((name, t))
    try:
        return typing_context(entries)
    except Exception:
        return None


def rand_fair_context(rng: random.Random, fuel: int = 5):
    """Small typing contexts biased toward fair cycles: a dual p/q pair
    around `rec z. q+{a: z}` or `rec z. q+{a: z, b: T}`, T a closed random
    local type, and with probability 0.8 a third participant r that can
    be starved or left stuck."""
    from mpstk.ast import typing_context
    from mpstk.parse import parse

    branches = [("a", TVar("z"))]
    if rng.random() < 0.5:
        t = rand_local(rng, fuel, peers=["q"])
        branches.append(("b", t if is_closed(t) else TEnd()))
    t = TRec("z", TSel("q", tuple(branches)))
    entries = [("p", retarget_peers(t, "q")), ("q", dualize(t, "p"))]
    if rng.random() < 0.8:
        entries.append(("r", parse("local", rng.choice(
            ["p?(int); end", "q?(int); end", "p!(int); end"]))))
    return typing_context(entries)


def rand_qbf(rng: random.Random, n: int, m: int):
    """Random QBF with `n` variables and `m` three-literal clauses."""
    from mpstk.hardness import QBF

    variables = [f"x{i + 1}" for i in range(n)]
    prefix = tuple((rng.choice("EA"), v) for v in variables)
    clauses = tuple(
        tuple((rng.choice(variables), rng.random() < 0.5) for _ in range(3))
        for _ in range(m)
    )
    return QBF(prefix, clauses)


def balanced_globals(rng: random.Random, count: int, fuel: int):
    """Generate `count` balanced closed global types."""
    from mpstk.typegraph import is_balanced

    out = []
    while len(out) < count:
        g = rand_global(rng, fuel)
        try:
            check_guarded(g)
        except Exception:
            continue
        if is_closed(g) and is_balanced(g):
            out.append(g)
    return out


def graph_record(g):
    """Every field of a type graph, and its text from the initial node."""
    from mpstk.typegraph import graph_text

    return (g.init, [[(repr(a), m) for a, m in out] for out in g.edges], g.skip,
            [sorted(s or ()) for s in g.desc], graph_text(g, g.init))
