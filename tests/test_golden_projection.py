"""Exact projection results over a seeded corpus of global types.

One digest pins every observable of the four projections on about 1,000
random closed global types and the five lower-bound families: for each
participant, and for one participant that does not occur, the printed
plain, full and Tirore projections, the subset graph (init, Skip, edges,
node descriptions), the class and text of every ProjUndefined and
NotBalanced, and the merge counters of the plain and full inductive
projections.  A refactor of the merges or of the projection fold that
keeps the answers but changes a type's shape, a message, or the work
counted fails here.  The digest is the same under any PYTHONHASHSEED.
"""

import hashlib
import random

from conftest import rand_global
from mpstk.ast import participants
from mpstk.printer import show_local
from mpstk.projection import (
    FULL, PLAIN, NotBalanced, ProjUndefined, WorkCounter,
    gen_lowerbound_family, project_inductive, project_subset, project_tirore,
)

ABSENT = "z"
FAMILIES = [
    ("plain_nlogn", 3), ("fullmerge_quadratic", 6), ("fullmerge_nlog2", 4),
    ("cf_primes", [2, 3, 5]), ("tirore_quadratic", 5),
]


def _globals():
    rng = random.Random(13)
    out = [rand_global(rng, rng.randint(2, 10)) for _ in range(1000)]
    return out + [gen_lowerbound_family(name, n) for name, n in FAMILIES]


def _attempt(f):
    try:
        return f()
    except (ProjUndefined, NotBalanced) as e:
        return (type(e).__name__, str(e))


def _inductive(g, p, kind):
    c = WorkCounter()
    t = _attempt(lambda: show_local(project_inductive(g, p, kind, c)))
    return t, c.ops


def _subset(g, p):
    sg = project_subset(g, p)
    return (sg.init, sg.skip, [[(repr(a), m) for a, m in out] for out in sg.edges],
            [sg.label(n) for n in range(sg.node_count())])


def _record(g):
    return [(p, _inductive(g, p, PLAIN), _inductive(g, p, FULL),
             _attempt(lambda: show_local(project_tirore(g, p))),
             _attempt(lambda: _subset(g, p)))
            for p in sorted(participants(g)) + [ABSENT]]


PROJECTION_SHA256 = "4e48d34549b7495384b1be99b5ef58d160f3cf9fc6d417e861f7012de56788a8"


def test_projection_dump_is_exact():
    records = [_record(g) for g in _globals()]
    assert len(records) == 1005
    assert hashlib.sha256(repr(records).encode()).hexdigest() == PROJECTION_SHA256
