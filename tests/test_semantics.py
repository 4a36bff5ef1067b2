"""Session reduction semantics and the end-to-end typed-safety oracle."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import balanced_globals

from mpstk.ast import (
    BudgetExceeded, ENat, PInact, participants, session,
)
from mpstk.parse import parse
from mpstk.printer import show
from mpstk.semantics import (
    EvalStuck, SessionState, eval_all, explore_session,
    proc_head, session_step, subst_value,
)


def test_eval_stuck_names_the_same_value_in_every_run():
    """The operand value an EvalStuck names does not follow set iteration
    order, which changes from interpreter to interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("from mpstk.ast import ENat\n"
            "from mpstk.parse import parse\n"
            "from mpstk.semantics import EvalStuck, eval_all\n"
            "try:\n"
            "    eval_all(parse('expr', r'(true \\/ x) \\/ (!(x (+) 3))'), {'x': ENat(2)})\n"
            "except EvalStuck as e:\n"
            "    print(e)\n")
    for seed in range(6):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "boolean expected, got ENat(value=2)", seed


def _values(src):
    return sorted(show(v) for v in eval_all(parse("expr", src)))


def test_eval_table_fixtures():
    assert _values("!true") == ["false"]
    assert _values("1 (+) 2") == ["1", "2"]
    assert _values("neg 5") == ["-5"]
    assert _values("false \\/ true") == ["true"]
    assert _values("neg -3") == ["3"]


def test_eval_stuck():
    # \/ evaluates both operands, so a true left one does not save it
    for src in ("true + 1", "!5", "x", "true \\/ (1 + true)"):
        with pytest.raises(EvalStuck):
            eval_all(parse("expr", src))


def test_rcomm_with_substitution():
    s = parse("session", "p::q!<1>; 0 | q::p?(x); p!<x + x>; 0")
    # value passing is untyped at runtime; x is replaced by 1
    (st,) = session_step(SessionState(s))
    assert not st.error
    q = dict(st.sess.roles)["q"]
    assert show(q).startswith("p!<1 + 1>")


def test_rbra_and_cerr():
    ok = parse("session", "p::q(+)l; 0 | q::p&{l: 0, m: 0}")
    (st,) = session_step(SessionState(ok))
    assert not st.error and all(isinstance(x, PInact) for _, x in st.sess.roles)
    bad = parse("session", "p::q(+)l; 0 | q::p&{m: 0}")
    (st,) = session_step(SessionState(bad))
    assert st.error


def test_verr_on_nonboolean_condition():
    s = parse("session", "p::if 1 then 0 else 0")
    (st,) = session_step(SessionState(s))
    assert st.error


def test_cond_nondet_expands():
    s = parse("session", "p::if true (+) false then q!<1>; 0 else q!<2>; 0 | q::p?(x); 0")
    succs = session_step(SessionState(s))
    assert len(succs) == 2


def test_recursion_unfolds_in_redex_search():
    s = parse("session", "p::rec X. q!<1>; X | q::rec Y. p?(x); Y")
    (st,) = session_step(SessionState(s))
    assert not st.error
    r = explore_session(s, depth=6)
    assert not r.error_reached and not r.stuck_nonterminal


def test_explore_reports_error_depth_one():
    s = parse("session", "p::q(+)l; 0 | q::p&{m: 0}")
    r = explore_session(s, depth=3)
    assert r.error_reached


def test_explore_reports_stuck():
    s = parse("session", "p::q?(x); 0 | q::p?(x); 0")
    r = explore_session(s, depth=3)
    assert r.stuck_nonterminal and not r.error_reached


def test_explore_budget_exceeded():
    s = parse("session", "p::q!<0>; rec X. q?(y); q!<y + (1 (+) 2)>; X"
                         " | q::rec Y. p?(z); p!<z>; Y")
    with pytest.raises(BudgetExceeded):
        explore_session(s, depth=100, budget=10)


def test_subst_value_shadowing():
    p = parse("process", "q?(x); q!<x>; 0")
    q = subst_value(p, "x", ENat(9))
    # the inner x is rebound by the input, so nothing changes
    assert q == p


def test_explore_nondet_loop_never_errors():
    s = parse("session",
              "p::rec X. if true (+) false then q(+)stop; 0 else q(+)go; X"
              " | q::rec Y. p&{go: Y, stop: 0}")
    r = explore_session(s, depth=30)
    assert not r.error_reached


# ---------------------------------------------------------------------------
# End-to-end: typed sessions stay safe


def test_typed_sessions_never_error(rng):
    from mpstk.inference import infer
    from mpstk.context import check_deadlock_freedom, check_safety
    from mpstk.pipeline import synth_process
    from mpstk.projection import FULL, ProjUndefined, project_inductive

    safe_checked = df_checked = 0
    for g in balanced_globals(rng, 300, 9):
        pts = sorted(participants(g))
        if not pts:
            continue
        try:
            procs = [(p, synth_process(project_inductive(g, p, FULL))) for p in pts]
        except ProjUndefined:
            continue
        sess = session(procs)
        minima = {}
        ok = True
        for p, q in procs:
            r = infer(q)
            if not r.typable:
                ok = False
                break
            minima[p] = r.min_type
        if not ok:
            continue
        from mpstk.ast import typing_context

        ctx = typing_context(minima.items())
        report = explore_session(sess, depth=10)
        if check_safety(ctx).holds:
            safe_checked += 1
            assert not report.error_reached, show(sess)
        if check_deadlock_freedom(ctx).holds:
            df_checked += 1
            assert not report.stuck_nonterminal, show(sess)
    assert safe_checked >= 30 and df_checked >= 10


def test_exhaustive_bfs_deterministic():
    s = parse("session",
              "p::if true (+) false then q!<1>; 0 else q!<2>; 0 | q::p?(x); 0")
    r1 = explore_session(s, depth=6)
    r2 = explore_session(s, depth=6)
    assert (r1.states, r1.steps, r1.error_reached) == (r2.states, r2.steps, r2.error_reached)
