"""Pinned verdicts of both pipelines over a corpus of projectable sessions.

Each session is synthesised from the full projections of a random balanced
global type.  The digest covers `run_topdown` (full and subset) and
`run_bottomup` (safety, df and live), so a change to what the pipelines hand
from stage to stage that moves any verdict fails here.  The bottom-up
checkers run on the quotiented minimum graphs; their oracle is the typing
context of the minimum types read off the graphs.  A second digest pins
those graphs themselves, every field of each, as `_minima` hands them on.
"""

import hashlib
import random

import pytest

from conftest import balanced_globals, graph_record
from mpstk.ast import participants, session, typing_context
from mpstk.context import CHECKERS, ContextLTS
from mpstk.inference import infer
from mpstk.pipeline import _minima, run_bottomup, run_topdown, synth_process
from mpstk.printer import show
from mpstk.projection import FULL, ProjUndefined, project_inductive

SESSIONS = 600
PROPS = ("safety", "df", "live")


@pytest.fixture(scope="module")
def corpus():
    """(global type, session) pairs, built once for the module."""
    rng = random.Random(21)
    out = []
    while len(out) < SESSIONS:
        (g,) = balanced_globals(rng, 1, 9)
        pts = sorted(participants(g))
        if len(pts) < 2:
            continue
        try:
            procs = [(p, synth_process(project_inductive(g, p, FULL))) for p in pts]
        except ProjUndefined:
            continue
        out.append((g, session(procs)))
    return out


def _verdicts(g, sess):
    return (show(g),
            run_topdown(sess, g, "full").accepted,
            run_topdown(sess, g, "subset").accepted,
            *(run_bottomup(sess, prop).accepted for prop in PROPS))


VERDICTS_SHA256 = "f7ad0455be70987c1ae3d1f7bfa0b25fd4d13a0aed7094bb49d9900c04c12457"


def test_pipeline_verdicts_are_exact(corpus):
    records = [_verdicts(g, sess) for g, sess in corpus]
    assert all(r[1] and r[2] for r in records)  # every session type-checks top-down
    assert sum(r[3] for r in records) == 118  # bottom-up safe
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == VERDICTS_SHA256


MINIMA_SHA256 = "518ba3f322aeea80757cb560a0cb6151be57415aecd9d45e06495d606c73f4b1"


def test_minimum_graphs_are_exact(corpus):
    """Each role's quotiented minimum graph, as `_minima` hands it on."""
    records = [[(p, graph_record(m)) for p, m in _minima(sess, 1_000_000).items()]
               for _, sess in corpus]
    assert sum(map(len, records)) == 1586
    assert hashlib.sha256(repr(records).encode()).hexdigest() == MINIMA_SHA256


def test_minimum_graphs_reach_no_more_states(corpus):
    """Per context and property, the LTS of the quotiented minimum graphs
    gives the oracle's verdict in no more states."""
    totals = [0, 0]
    for _, sess in corpus:
        graphs = _minima(sess, 1_000_000)
        ctx = typing_context((p, infer(q).min_type) for p, q in sess.roles)
        for prop, check in CHECKERS.items():
            got, want = check(ContextLTS(graphs)), check(ctx)
            assert (got.holds, got.states <= want.states) == (want.holds, True), (ctx, prop)
            totals[0] += got.states
            totals[1] += want.states
    assert totals == [3204, 3204]
