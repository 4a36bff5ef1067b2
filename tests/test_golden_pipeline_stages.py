"""Pinned stage reports of both pipelines over a seeded corpus of sessions.

Each session starts from the full projections of a random global type,
synthesised into processes, and is then perturbed: a role dropped, a role's
process replaced by a random one, or its type mutated.  The corpus reaches
every failure the pipelines report: a participants mismatch, an undefined
projection, an unbalanced subset projection, an untypable role (a sort clash
among them), a subtyping failure and a violated property.  The digest covers
every stage report of `run_topdown` (each of `KINDS`) and `run_bottomup`
(each property): its name, ok and detail, not its wall-clock millis.
"""

import hashlib
import random

import pytest

from conftest import mutate_local, rand_global, rand_process
from mpstk.ast import (
    GChoice, GRec, GVar, SessionTypeError, check_guarded, is_closed, participants, session,
)
from mpstk.pipeline import run_bottomup, run_topdown, synth_process
from mpstk.printer import show
from mpstk.projection import FULL, KINDS, ProjUndefined, project_inductive

SESSIONS = 300
PROPS = ("safety", "df", "live")


def _session(rng, g):
    """The synthesised session of g, perturbed.  A participant g has no full
    projection onto plays a random process."""
    pts = sorted(participants(g))
    procs = {}
    for q in pts:
        peers = [r for r in pts if r != q]
        try:
            procs[q] = synth_process(project_inductive(g, q, FULL))
        except ProjUndefined:
            procs[q] = rand_process(rng, 6, peers)
    roll, p = rng.random(), rng.choice(pts)
    if roll < 0.15:
        del procs[p]
    elif roll < 0.4:
        procs[p] = rand_process(rng, 6, [r for r in pts if r != p])
    elif roll < 0.6:
        try:
            procs[p] = synth_process(mutate_local(rng, project_inductive(g, p, FULL)))
        except (SessionTypeError, ValueError):
            pass
    return session(sorted(procs.items()))


@pytest.fixture(scope="module")
def corpus():
    """(global type, session) pairs, built once for the module."""
    rng = random.Random(40)
    out = []
    while len(out) < SESSIONS:
        g = rand_global(rng, 7)
        try:
            check_guarded(g)
        except SessionTypeError:
            continue
        pts = sorted(participants(g))
        if not is_closed(g) or len(pts) < 2:
            continue
        if len(pts) > 2 and rng.random() < 0.15:  # a loop the third role never joins
            g = GRec("u", GChoice(pts[0], pts[1], (("exit", g), ("loop", GVar("u")))))
        out.append((g, _session(rng, g)))
    return out


def _reports(g, sess):
    reps = [run_topdown(sess, g, kind) for kind in KINDS]
    reps += [run_bottomup(sess, prop) for prop in PROPS]
    return (show(g), show(sess),
            [[(s.name, s.ok, s.detail) for s in rep.stages] for rep in reps])


STAGES_SHA256 = "ddb18a346e797ef50cb9a95b7542ffee8b23c4446f03c251a33b6461b2dfb023"


def test_stage_reports_are_exact(corpus):
    records = [_reports(g, sess) for g, sess in corpus]
    failures = [s for r in records for rep in r[2] for s in rep if not s[1]]

    def seen(name, text):
        return sum(s[0] == name and text in s[2] for s in failures)

    reached = {
        "participants mismatch": seen("participants", "!= pt(G)"),
        "undefined projection": seen("projection", "undefined"),
        "unbalanced subset": seen("projection", "not balanced"),
        "untypable role": seen("inference", "untypable: "),
        "sort clash": seen("inference", "forced equal"),
        "subtyping failure": seen("subtyping", "not a subtype"),
        "violated property": sum(s[0].startswith("check-") for s in failures),
    }
    assert min(reached.values()) >= 5, str(reached)
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == STAGES_SHA256
