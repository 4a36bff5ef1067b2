"""Exact results of the session reduction semantics over a seeded corpus.

One digest pins what `check-session` and the typed-safety oracle observe:
for about 1,000 random sessions of one to three roles, the exploration
report at two depths (error reached, stuck non-inact, states, steps, or a
budget stop) and the start state's one-step successors as (error, printed
session); for about 200 sessions synthesised from the full projections of
random balanced global types, their reports at the same two depths; and
for about 2,000 random expressions with x = 2, every value they may
evaluate to or the text of the EvalStuck.  A change to expression
evaluation, redex search or the exploration that keeps the verdicts but
changes a count, a successor or a message fails here.  The digest is the
same under any PYTHONHASHSEED.
"""

import hashlib
import random

from conftest import PEERS, balanced_globals, rand_expr, rand_process
from mpstk.ast import BudgetExceeded, ENat, participants, session
from mpstk.pipeline import synth_process
from mpstk.printer import show
from mpstk.projection import FULL, ProjUndefined, project_inductive
from mpstk.semantics import EvalStuck, SessionState, eval_all, explore_session, session_step

DEPTHS = (3, 7)
BUDGET = 20


def _random_sessions(rng, count):
    out = []
    for _ in range(count):
        names = rng.sample(PEERS, rng.randint(1, 3))
        out.append(session(
            (p, rand_process(rng, rng.randint(2, 9), peers=[q for q in PEERS if q != p]))
            for p in names))
    return out


def _synthesised_sessions(rng, count):
    out = []
    while len(out) < count:
        (g,) = balanced_globals(rng, 1, 9)
        pts = sorted(participants(g))
        if not pts:
            continue
        try:
            out.append(session((p, synth_process(project_inductive(g, p, FULL))) for p in pts))
        except ProjUndefined:
            continue
    return out


def _report(sess, depth):
    try:
        r = explore_session(sess, depth=depth, budget=BUDGET)
    except BudgetExceeded:
        return "budget"
    return (r.error_reached, r.stuck_nonterminal, r.states, r.steps)


def _values(e):
    try:
        return sorted(show(v) for v in eval_all(e, {"x": ENat(2)}))
    except EvalStuck as err:
        return str(err)


def _records():
    rng = random.Random(31)
    sessions = _random_sessions(rng, 1000)
    synthesised = _synthesised_sessions(rng, 200)
    exprs = [rand_expr(rng, rng.randint(1, 8), ("x",)) for _ in range(2000)]
    return (
        [([_report(s, d) for d in DEPTHS],
          [(st.error, show(st.sess)) for st in session_step(SessionState(s))])
         for s in sessions],
        [[_report(s, d) for d in DEPTHS] for s in synthesised],
        [_values(e) for e in exprs],
    )


SEMANTICS_SHA256 = "c87a6f296e1568e31197cadb0dcb4d3769e98e9e274cd89a65e81e7a4941936b"


def test_semantics_dump_is_exact():
    sessions, synthesised, values = _records()
    assert (len(sessions), len(synthesised), len(values)) == (1000, 200, 2000)
    assert hashlib.sha256(repr((sessions, synthesised, values)).encode()).hexdigest() \
        == SEMANTICS_SHA256
