"""Seeded random generators for the benchmark inputs.

Every generator takes a `random.Random` and builds well-formed ASTs
(guarded, distinct labels); callers filter for closedness, balance and the
other properties a workload needs.  They follow the shapes of the property
tests' generators but live here so the benchmark imports no test code.
"""

from __future__ import annotations

import random

from mpstk.ast import (
    BOOL, INT, NAT,
    GChoice, GEnd, GMsg, GRec, GVar,
    TBra, TEnd, TIn, TOut, TRec, TSel, TVar,
)
from mpstk.hardness import QBF

SORTS = [BOOL, NAT, INT]
LABELS = ["l1", "l2", "l3", "l4"]
PEERS = ["p", "q", "r"]


def rand_local(rng: random.Random, fuel: int, rec_vars=()):
    """Random guarded local type of size about `fuel`; may be open."""
    if fuel <= 1:
        if rec_vars and rng.random() < 0.5:
            return TVar(rng.choice(rec_vars))
        return TEnd()
    kind = rng.choice(["in", "out", "sel", "bra", "rec", "leaf"])
    if kind == "leaf":
        return rand_local(rng, 1, rec_vars)
    if kind == "rec":
        var = f"v{rng.randrange(10_000)}"
        return TRec(var, _rand_local_comm(rng, fuel - 1, rec_vars + (var,)))
    return _rand_local_comm(rng, fuel, rec_vars, kind)


def _rand_local_comm(rng, fuel, rec_vars, kind=None):
    kind = kind or rng.choice(["in", "out", "sel", "bra"])
    peer = rng.choice(PEERS)
    if kind in ("in", "out"):
        ctor = TIn if kind == "in" else TOut
        return ctor(peer, rng.choice(SORTS), rand_local(rng, fuel - 1, rec_vars))
    n = rng.randint(1, min(3, max(1, fuel - 1)))
    share = max(1, (fuel - 1) // n)
    pairs = tuple(sorted((l, rand_local(rng, share, rec_vars)) for l in rng.sample(LABELS, n)))
    return (TSel if kind == "sel" else TBra)(peer, pairs)


def mutate_local(rng: random.Random, t, budget: int = 3):
    """A structurally related type: drop or add a branch, change a sort."""
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
            pairs[i] = (pairs[i][0], mutate_local(rng, pairs[i][1], budget - 1))
        return type(t)(t.peer, tuple(sorted(pairs)))
    if isinstance(t, (TIn, TOut)):
        if roll < 0.15:
            return type(t)(t.peer, rng.choice(SORTS), t.cont)
        return type(t)(t.peer, t.payload, mutate_local(rng, t.cont, budget - 1))
    if isinstance(t, TRec):
        return TRec(t.var, mutate_local(rng, t.body, budget - 1))
    return t


def rand_local_pair(rng: random.Random, fuel: int):
    """Pairs biased toward relatedness, so subtyping holds about half the
    time."""
    t1 = rand_local(rng, fuel)
    roll = rng.random()
    if roll < 0.4:
        return t1, mutate_local(rng, t1)
    if roll < 0.55:
        return t1, t1
    return t1, rand_local(rng, fuel)


def rand_global(rng: random.Random, fuel: int, rec_vars=()):
    """Random guarded global type over p, q, r; branch bodies are sometimes
    shared so that plain merging succeeds now and then."""
    if fuel <= 1:
        if rec_vars and rng.random() < 0.5:
            return GVar(rng.choice(rec_vars))
        return GEnd()
    kind = rng.choice(["msg", "msg", "choice", "choice", "rec", "leaf"])
    if kind == "leaf":
        return rand_global(rng, 1, rec_vars)
    if kind == "rec":
        var = f"v{rng.randrange(10_000)}"
        return GRec(var, _rand_global_comm(rng, fuel - 1, rec_vars + (var,)))
    return _rand_global_comm(rng, fuel, rec_vars, kind)


def _rand_global_comm(rng, fuel, rec_vars, kind=None):
    kind = kind or rng.choice(["msg", "choice"])
    frm, to = rng.sample(PEERS, 2)
    if kind == "msg":
        return GMsg(frm, to, rng.choice(SORTS), rand_global(rng, fuel - 1, rec_vars))
    n = rng.randint(1, min(3, max(1, fuel - 1)))
    labels = rng.sample(LABELS, n)
    share = max(1, (fuel - 1) // n)
    if rng.random() < 0.4:
        body = rand_global(rng, share, rec_vars)
        pairs = tuple(sorted((l, body) for l in labels))
    else:
        pairs = tuple(sorted((l, rand_global(rng, share, rec_vars)) for l in labels))
    return GChoice(frm, to, pairs)


def rand_qbf(rng: random.Random, n: int, m: int) -> QBF:
    """Random QBF with `n` variables and `m` three-literal clauses."""
    variables = [f"x{i + 1}" for i in range(n)]
    prefix = tuple((rng.choice("EA"), v) for v in variables)
    clauses = tuple(
        tuple((rng.choice(variables), rng.random() < 0.5) for _ in range(3))
        for _ in range(m)
    )
    return QBF(prefix, clauses)
