"""Exact answers and work counters of the subtyping deciders, and exact
verdicts of the brute-force liveness oracle, on seeded random inputs.

The digest was captured from the implementation and pins it: a refactor of
the product walk, the inductive proof search, one-step unfolding or the
oracle's witness test that changes an answer, a node, edge or judgement
count or an oracle verdict fails here.  The inputs are seeded, so the
digest is the same under any PYTHONHASHSEED.
"""

import hashlib
import random

from conftest import rand_context, rand_local_pair
from mpstk.ast import is_closed
from mpstk.context import brute_force_liveness
from mpstk.subtyping import subtype_inductive, subtype_sim, subtype_sim_matching

DECIDERS_SHA256 = "818ef79899f195805ca434372c21407246f91fdf7f0de28e8d3a00a172f14d7e"


def test_deciders_dump_is_exact():
    rng = random.Random(23)
    subtyping = []
    while len(subtyping) < 1000:
        t1, t2 = rand_local_pair(rng, 8)
        if not (is_closed(t1) and is_closed(t2)):
            continue
        sim = subtype_sim(t1, t2)
        matched, _ = subtype_sim_matching(t1, t2)
        ind = subtype_inductive(t1, t2)
        assert sim.result == matched == ind.result
        subtyping.append((sim.result, sim.nodes_visited, sim.edges_visited,
                          matched, ind.result, ind.judgements))
    oracle = []
    for _ in range(300):
        ctx = rand_context(rng, 5)
        if ctx is not None:
            oracle.append(tuple(brute_force_liveness(ctx, bound, 20_000) for bound in (1, 6)))
    assert sum(r[0] for r in subtyping) == 447  # subtypes
    assert len(oracle) == 300
    assert [sum(r[k] for r in oracle) for k in (0, 1)] == [148, 146]  # live
    digest = hashlib.sha256(repr((subtyping, oracle)).encode()).hexdigest()
    assert digest == DECIDERS_SHA256
