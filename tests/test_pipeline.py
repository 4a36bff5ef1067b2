"""Top-down and bottom-up pipelines, and their agreement on fixtures."""

import pytest

from conftest import balanced_globals

from mpstk.ast import PSel, PCond, participants, session
from mpstk.parse import parse
from mpstk.pipeline import run_bottomup, run_topdown, synth_process
from mpstk.printer import show
from mpstk.projection import FULL, ProjUndefined, project_inductive

G_IF = parse("global", "rec t. q->r{l1: r->p{l1: t}, l2: r->p{l2: end}}")


def _session_for(g, kind=FULL):
    return session(
        (p, synth_process(project_inductive(g, p, kind))) for p in sorted(participants(g))
    )


def test_topdown_accepts_faithful_session():
    sess = _session_for(G_IF)
    rep = run_topdown(sess, G_IF, "full")
    assert rep.accepted, rep.fail_reason()
    # tbc/plain reject G_if at the projection stage
    rep2 = run_topdown(sess, G_IF, "plain")
    assert not rep2.accepted and "projection" in rep2.fail_reason()
    rep3 = run_topdown(sess, G_IF, "tbc")
    assert not rep3.accepted
    # the subset pipeline accepts it
    assert run_topdown(sess, G_IF, "subset").accepted


def test_topdown_rejects_extra_selection():
    g = parse("global", "p->q{l1: end}")
    bad = session([
        ("p", parse("process", "if true (+) false then q(+)l1; 0 else q(+)l9; 0")),
        ("q", parse("process", "p&{l1: 0}")),
    ])
    rep = run_topdown(bad, g, "full")
    # p is typable: its minimum type is just not a subtype of its projection
    assert not rep.accepted
    assert rep.fail_reason() == "subtyping: p: minimum type is not a subtype of the projection"


def test_topdown_unbalanced_subset_rejected():
    g = parse("global", "rec t. p->q{l: t, l2: q->r{l3: end}}")
    sess = session([
        ("p", parse("process", "rec X. q(+)l; X")),
        ("q", parse("process", "rec X. p&{l: X, l2: r(+)l3; 0}")),
        ("r", parse("process", "q&{l3: 0}")),
    ])
    rep = run_topdown(sess, g, "subset")
    assert not rep.accepted and "balanced" in rep.fail_reason()


def test_topdown_participant_mismatch():
    g = parse("global", "p->q(int); end")
    sess = session([("p", parse("process", "q!<1>; 0"))])
    rep = run_topdown(sess, g, "full")
    assert not rep.accepted and rep.stages[0].name == "participants"


def test_bottomup_example1_pair():
    sess = session([
        ("q", parse("process",
                    "if true then p&{l1: q0(+)l2; 0, l3: 0}"
                    " else p&{l1: q0(+)l4; 0, l5: 0}")),
        ("p", parse("process", "q(+)l1; 0")),
        ("q0", parse("process", "q&{l2: 0, l4: 0}")),
    ])
    rep = run_bottomup(sess, "safety")
    assert rep.accepted, rep.fail_reason()


def test_bottomup_d7_profile():
    sess = session([
        ("p", parse("process", "rec X. q!<true>; X")),
        ("q", parse("process", "rec X. p?(x); if x then X else X")),
        ("r", parse("process", "s?(x); if x then 0 else 0")),
        ("s", parse("process", "r!<1>; 0")),
    ])
    assert run_bottomup(sess, "df").accepted
    assert not run_bottomup(sess, "live").accepted
    assert not run_bottomup(sess, "safety").accepted


def test_bottomup_untypable_fails_at_inference():
    sess = session([
        ("p", parse("process", "q(+)l; if false then q!<1>; 0 else q?(x); 0")),
        ("q", parse("process", "p&{l: 0}")),
    ])
    rep = run_bottomup(sess, "safety")
    assert not rep.accepted and rep.stages[0].name == "inference" \
        and not rep.stages[0].ok


def test_topdown_accept_implies_bottomup_properties(rng):
    """Soundness of the top-down workflow on synthesized fixtures."""
    checked = 0
    for g in balanced_globals(rng, 120, 8):
        pts = participants(g)
        if not pts:
            continue
        try:
            sess = _session_for(g)
        except ProjUndefined:
            continue
        if not run_topdown(sess, g, "full").accepted:
            continue
        # residual polymorphic inputs keep value messages from synchronising
        # in the assembled context; restrict the claim to label-only types
        if any(s in show(g) for s in ("(int)", "(bool)", "(nat)")):
            continue
        for prop in ("safety", "df", "live"):
            rep = run_bottomup(sess, prop)
            assert rep.accepted, (show(g), prop, rep.fail_reason())
        checked += 1
    assert checked >= 15


def test_synth_process_realizes_selection_via_conditionals():
    t = parse("local", "p+{l1: end, l2: end, l3: end}")
    proc = synth_process(t)
    assert isinstance(proc, PCond)
    assert isinstance(proc.then, PSel)
