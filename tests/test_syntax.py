"""Syntax module: parsing, printing, metrics and their independent oracles."""

import gc
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from conftest import rand_expr, rand_global, rand_local, rand_process

from mpstk import ast
from mpstk.ast import (
    END, INACT, INT, TRUE, Session, SessionTypeError, TypingContext,
    GChoice, GEnd, GMsg, GRec, GVar,
    PBra, PCond, PRec, PSel, PSend, PVar,
    TBra, TEnd, TIn, TOut, TRec, TSel, TVar,
    alpha_canon, alpha_eq, check_guarded, free_vars, participants, session, size,
    subformulas, subst, typing_context, unfold, uniquify_binders,
)
from mpstk.parse import ParseError, parse
from mpstk.printer import show


# ---------------------------------------------------------------------------
# Parsing fixtures


def test_parse_rec_selection():
    t = parse("local", "rec t. p+{l1: p+{l1: t}, l2: end}")
    assert t == TRec("t", TSel("p", (
        ("l1", TSel("p", (("l1", TVar("t")),))),
        ("l2", TEnd()),
    )))


def test_parse_end_atomic():
    assert parse("local", "end") == TEnd()
    assert parse("global", "end") == GEnd()


def test_parse_rejects_self_communication():
    with pytest.raises(SessionTypeError):
        parse("global", "p->p{l: end}")


def test_parse_rejects_duplicate_labels():
    with pytest.raises(SessionTypeError):
        parse("local", "p+{l1: end, l1: end}")


@pytest.mark.parametrize("make, text", [
    (lambda: TSel("p", (("l2", END), ("l1", END))), "labels out of order ['l2', 'l1']"),
    (lambda: TBra("p", (("l1", END), ("l1", END))), "duplicate labels ['l1', 'l1']"),
    (lambda: TBra("p", ()), "empty branch set"),
    (lambda: GChoice("p", "q", (("l9", GEnd()), ("l10", GEnd()))),
     "labels out of order ['l9', 'l10']"),
    (lambda: GChoice("p", "q", (("l1", GEnd()), ("l2", GEnd()), ("l1", GEnd()))),
     "duplicate labels ['l1', 'l2', 'l1']"),
    (lambda: GChoice("p", "q", ()), "empty branch set"),
    (lambda: GMsg("p", "p", INT, GEnd()), "self-communication p->p"),
    (lambda: GChoice("p", "p", (("l1", GEnd()),)), "self-communication p->p"),
    (lambda: Session((("q", INACT), ("p", INACT))), "participants out of order ['q', 'p']"),
    (lambda: TypingContext((("p", END), ("p", END))), "duplicate participants ['p', 'p']"),
    (lambda: TypingContext(()), "empty typing context"),
    (lambda: PBra("q", (("l", INACT), ("m", INACT), ("l", INACT))),
     "duplicate labels ['l', 'm', 'l']"),
])
def test_raw_construction_keeps_the_invariant(make, text):
    with pytest.raises(SessionTypeError) as e:
        make()
    assert str(e.value) == text


def test_process_branchings_keep_text_order():
    assert [l for l, _ in PBra("q", (("m", INACT), ("l", INACT))).branches] == ["m", "l"]


def test_invariant_is_checked_once_per_new_node(monkeypatch):
    calls = []
    check = ast._check
    monkeypatch.setattr(ast, "_check", lambda cls, args: calls.append(cls) or check(cls, args))
    node = TSel("check-probe", (("l1", END), ("l2", END)))
    assert TSel("check-probe", (("l1", END), ("l2", END))) is node
    assert TOut("check-probe", INT, node) and calls == [TSel]


def test_parse_rejects_unguarded_recursion():
    with pytest.raises(SessionTypeError):
        parse("local", "rec t. t")
    with pytest.raises(SessionTypeError):
        parse("local", "rec t. rec u. t")
    # conditional-only guards are rejected for processes too
    with pytest.raises(SessionTypeError):
        parse("process", "rec X. if true then X else X")


def test_parse_rejects_open_types():
    with pytest.raises(SessionTypeError):
        parse("local", "p!(int); t")


@pytest.mark.parametrize("category,text", [
    ("local", "rec t. p!(int); rec t. p!(int); t_1"),
    ("global", "rec t. p->q(int); rec t. p->q(int); t_1"),
    ("context", "p: rec t. q!(int); rec t. q!(int); t_1, q: end"),
])
def test_renamed_binder_captures_no_free_variable(category, text):
    """t_1 is free in the input, so renaming the second binder t must not
    bind it: the input is open, as `p!(int); t_1` is."""
    with pytest.raises(SessionTypeError, match=r"free type variables \['t_1'\]"):
        parse(category, text)


def test_renamed_process_binder_captures_no_free_variable():
    from mpstk.inference import Untypable, infer

    p = parse("process", "rec X. q!<1>; rec X. q!<2>; X_1")
    with pytest.raises(Untypable, match="free process variable X_1"):
        infer(p)


def test_renaming_skips_the_identifiers_of_the_input():
    assert show(parse("local", "rec t. p!(int); rec t. p!(int); t")) == \
        "rec t. p!(int); rec t_1. p!(int); t_1"
    # the user's own t_1 keeps its name; the renamed t takes the next one
    assert show(parse("local", "rec t. p!(int); rec t. p!(int); rec t_1. p?(int); t_1")) == \
        "rec t. p!(int); rec t_2. p!(int); rec t_1. p?(int); t_1"


def test_parse_position_in_errors():
    with pytest.raises(ParseError):
        parse("local", "p!(int)")


@pytest.mark.parametrize("text,message", [
    ("p!(int); $ end", "unexpected character '$' (at offset 9)"),
    ("p!(int);\t\n #", "unexpected character '#' (at offset 11)"),
    ("p!(int);$ end", "unexpected character '$' (at offset 8)"),
])
def test_tokenizer_error_names_the_bad_character(text, message):
    """The offending character and its own offset, past any whitespace."""
    with pytest.raises(ParseError) as err:
        parse("local", text)
    assert str(err.value) == message


@pytest.mark.parametrize("category,text,outcome", [
    ("local", "p!(int); é end", "unexpected character 'é' (at offset 9)"),
    ("expr", "²", "unexpected character '²' (at offset 0)"),
    ("process", "q!<²>; 0", "unexpected character '²' (at offset 3)"),
    ("expr", "\\", "unexpected character '\\\\' (at offset 0)"),
    ("expr", "true \\/ false", "ok true \\/ false"),
    ("local", "_x", "unexpected character '_' (at offset 0)"),
    ("local", "p!(int); t_x", "free type variables ['t_x']"),
    ("expr", "٣", "ok 3"),
    ("expr", "1٣ + 0", "ok 13 + 0"),
    ("process", "q!<٣>; 0", "ok q!<3>; 0"),
    ("process", "00", "ok 0"),
    ("process", "٠", "ok 0"),
    ("process", "7", "expected 'IDENT', found 'NUM' (at offset 0)"),
    ("global", "p -> q(int); end", "ok p->q(int); end"),
    ("global", "p - > q(int); end", "trailing input '-' (at offset 2)"),
    ("expr", "1 (+) 2", "ok 1 (+) 2"),
    ("expr", "1 ( + ) 2", "trailing input '(' (at offset 2)"),
    ("process", "q ( + ) l; 0", "trailing input '(' (at offset 2)"),
    ("expr", "- NUM", "expected 'NUM', found 'IDENT' (at offset 2)"),
    ("expr", "- EOF", "expected 'NUM', found 'IDENT' (at offset 2)"),
    ("local", "p!(int); end end", "trailing input 'IDENT' (at offset 13)"),
    ("local", "p!(int);", "expected 'IDENT', found 'EOF' (at offset 8)"),
    ("context", "IDENT: NUM!(int); end, NUM: IDENT?(int); end",
     "ok IDENT: NUM!(int); end, NUM: IDENT?(int); end"),
    ("context", "EOF: NUM!(int); end, NUM: EOF?(int); end",
     "ok EOF: NUM!(int); end, NUM: EOF?(int); end"),
    ("session", "IDENT::EOF!<1>; 0 | EOF::IDENT?(x); 0",
     "ok EOF::IDENT?(x); 0 | IDENT::EOF!<1>; 0"),
    ("local", "rec EOF. p!(int); EOF", "ok rec EOF. p!(int); EOF"),
])
def test_edge_characters(category, text, outcome):
    """Characters at the edges of the token classes: a letter outside ASCII,
    digits outside ASCII (which `\\d` and `int` read), a superscript, a
    backslash or underscore alone, symbols split by spaces, and identifiers
    spelled like the token kinds that the messages name."""
    try:
        got = "ok " + show(parse(category, text))
    except SessionTypeError as e:
        got = str(e)
    assert got == outcome


def test_first_bad_character_in_text_order_under_any_hash_seed():
    """Of two bad characters, the first in the text is reported, whatever
    order a set of them iterates in under the hash seed."""
    bad = "$#%@`~^é²\\_"
    texts = [f"p!(int); {a} end {b}" for a in bad for b in bad if a != b]
    script = ("import sys\nfrom mpstk.parse import parse\n"
              "for text in sys.argv[1:]:\n"
              "    try:\n        parse('local', text)\n"
              "    except Exception as e:\n        print(ascii(str(e)))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    want = [ascii(f"unexpected character {text[9]!r} (at offset 9)") for text in texts]
    for seed in ("0", "123"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        run = subprocess.run([sys.executable, "-c", script, *texts], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == want


@pytest.mark.parametrize("category,text,message", [
    ("local", "p?(bool) end", "expected ';', found 'IDENT' (at offset 9)"),
    ("global", "p->q(int);   q->p{l1 end}", "expected ':', found 'IDENT' (at offset 21)"),
])
def test_syntax_error_names_the_token_offset(category, text, message):
    """A syntax error points at the token, not at the whitespace before it."""
    with pytest.raises(ParseError) as err:
        parse(category, text)
    assert str(err.value) == message


def test_nested_rec_unfold_head():
    t = parse("local", "rec t. rec u. p!(int); t")
    assert isinstance(unfold(t), TOut)


# ---------------------------------------------------------------------------
# Round trips


@pytest.mark.parametrize("category,gen", [
    ("local", lambda r: rand_local(r, 9)),
    ("global", lambda r: rand_global(r, 9)),
    ("expr", lambda r: rand_expr(r, 6)),
    ("process", lambda r: rand_process(r, 8)),
])
def test_roundtrip_parse_print(category, gen):
    rng = random.Random(7)
    for _ in range(1000):
        x = gen(rng)
        if category == "process":
            from mpstk.ast import check_guarded, uniquify_binders

            x = uniquify_binders(x)
            check_guarded(x)
        elif category in ("local", "global"):
            from mpstk.ast import uniquify_binders

            x = uniquify_binders(x)
        back = parse(category, show(x))
        if category == "expr":
            assert back == x
        else:
            assert alpha_eq(back, x), (show(x), show(back))


def test_roundtrip_session_context():
    rng = random.Random(8)
    for _ in range(1000):
        from mpstk.ast import check_guarded, is_closed, uniquify_binders

        s = session((n, rand_process(rng, 5)) for n in ("p", "q"))
        s = session((n, uniquify_binders(q)) for n, q in s.roles)
        try:
            for _, q in s.roles:
                check_guarded(q)
        except SessionTypeError:
            continue
        assert alpha_eq_session(parse("session", show(s)), s)

        ts = []
        for n in ("p", "q"):
            t = uniquify_binders(rand_local(rng, 6))
            if not is_closed(t):
                t = TEnd()
            ts.append((n, t))
        c = typing_context(ts)
        back = parse("context", show(c))
        assert [n for n, _ in back.entries] == [n for n, _ in c.entries]
        assert all(alpha_eq(a, b) for (_, a), (_, b) in zip(back.entries, c.entries))


def alpha_eq_session(a, b):
    return [n for n, _ in a.roles] == [n for n, _ in b.roles] and all(
        alpha_eq(x, y) for (_, x), (_, y) in zip(a.roles, b.roles)
    )


# ---------------------------------------------------------------------------
# size / subformulas / participants against independent oracles


def oracle_size(t):
    if isinstance(t, (TEnd, TVar, GEnd, GVar)):
        return 1
    if isinstance(t, (TRec,)):
        return 1 + oracle_size(t.body)
    if isinstance(t, (TIn, TOut)):
        return 1 + oracle_size(t.cont)
    if isinstance(t, (TSel, TBra)):
        return 1 + sum(oracle_size(b) for _, b in t.branches)
    from mpstk.ast import GRec

    if isinstance(t, GRec):
        return 1 + oracle_size(t.body)
    if isinstance(t, GMsg):
        return 1 + oracle_size(t.cont)
    if isinstance(t, GChoice):
        return 1 + sum(oracle_size(b) for _, b in t.branches)
    raise AssertionError


def test_size_fixtures():
    assert size(TEnd()) == 1
    assert size(TRec("t", TIn("p", INT, TVar("t")))) == 3
    # the branch-cycle worst case component: n single-l1 nests above the
    # final two-label branch give size n + 4
    from mpstk.inference import branch_cycle_process

    for n in range(0, 5):
        assert size(branch_cycle_process(n + 1)) == n + 4


def test_size_oracle_agreement(rng):
    for _ in range(500):
        t = rand_local(rng, 10)
        assert size(t) == oracle_size(t)
        g = rand_global(rng, 10)
        assert size(g) == oracle_size(g)


def test_subformulas_fixtures():
    assert subformulas(TEnd()) == frozenset([TEnd()])
    t1 = parse("local", "rec t. p+{l1: p+{l1: t}, l2: end}")
    subs = {alpha_canon(s) for s in subformulas(t1)}
    assert alpha_canon(TSel("p", (("l1", t1),))) in subs


def test_subformulas_linear_bound(rng):
    for _ in range(500):
        t = rand_local(rng, 12)
        from mpstk.ast import is_closed

        if not is_closed(t):
            continue
        assert len(subformulas(t)) <= size(t)
        g = rand_global(rng, 12)
        if is_closed(g):
            assert len(subformulas(g)) <= size(g)


def test_unfold_fixtures():
    t1 = parse("local", "rec t. p+{l1: p+{l1: t}, l2: end}")
    u = unfold(t1)
    assert u == TSel("p", (("l1", TSel("p", (("l1", t1),))), ("l2", TEnd())))
    assert unfold(TEnd()) == TEnd()


# ---------------------------------------------------------------------------
# Hash-consing: equality is identity


@pytest.mark.parametrize("category,gen", [
    ("local", lambda r: rand_local(r, 9)),
    ("global", lambda r: rand_global(r, 9)),
])
def test_parsing_twice_gives_one_object(category, gen):
    rng = random.Random(11)
    for _ in range(300):
        text = show(uniquify_binders(gen(rng)))
        assert parse(category, text) is parse(category, text), text


def test_alpha_canon_of_renamed_types_is_one_object():
    a = parse("local", "rec x. p!(int); x")
    b = parse("local", "rec y. p!(int); y")
    assert a is not b
    assert alpha_canon(a) is alpha_canon(b)
    assert alpha_eq(a, b)


# Shadowed binders, built by hand as the parser renames them apart: each walk
# binds on enter and must restore the outer binding on leave.
SHADOWED = TRec("X", TSel("p", (("a", TRec("X", TOut("q", INT, TVar("X")))), ("b", TVar("X")))))


def test_alpha_canon_of_shadowed_binders():
    renamed = TRec("X", TSel("p", (("a", TRec("Y", TOut("q", INT, TVar("Y")))), ("b", TVar("X")))))
    assert alpha_canon(SHADOWED) is alpha_canon(renamed)


def test_uniquify_binders_keeps_the_sibling_bound_to_the_outer_binder():
    assert show(uniquify_binders(SHADOWED)) == "rec X. p+{a: rec X_1. q!(int); X_1, b: X}"


def test_check_guarded_of_shadowed_binders():
    with pytest.raises(SessionTypeError, match="unguarded recursion variable X"):
        check_guarded(TRec("X", TOut("p", INT, TRec("X", TVar("X")))))
    check_guarded(TRec("X", TRec("X", TOut("p", INT, TVar("X")))))


def _reused_binders(rng, fuel, process):
    """A random local type or process whose binders are all named X or Y,
    so they shadow each other, and whose variables may be free, guarded by
    a conditional only, or not guarded at all."""
    var, rec = (PVar, PRec) if process else (TVar, TRec)
    if fuel <= 1:
        return var(rng.choice("XY")) if rng.random() < 0.7 else INACT if process else END
    kind = rng.randrange(4)
    if kind == 0:
        return rec(rng.choice("XY"), _reused_binders(rng, fuel - 1, process))
    if kind == 1:
        k = _reused_binders(rng, fuel - 1, process)
        return PSend("q", TRUE, k) if process else TOut("q", INT, k)
    a, b = (_reused_binders(rng, (fuel - 1) // 2, process) for _ in range(2))
    if kind == 2 and process:
        return PCond(TRUE, a, b)
    return (PBra if process else TSel)("q", (("a", a), ("b", b)))


def test_check_guarded_agrees_with_the_parser():
    """One guardedness rule: check_guarded rejects a term exactly when the
    parser rejects its text as unguarded."""
    rng = random.Random(29)
    guarded = 0
    for i in range(1_200):
        process = i % 2 == 1
        t = _reused_binders(rng, 8, process)
        try:
            check_guarded(t)
            ok = True
        except SessionTypeError:
            ok = False
        try:
            parse("process" if process else "local", show(t))
            parsed = True
        except SessionTypeError as e:
            parsed = not str(e).startswith("unguarded")
        assert ok == parsed, show(t)
        guarded += ok
    assert 150 < guarded < 1_050  # both answers are common


def test_unfold_returns_the_nodes_built_by_hand():
    t = TRec("t", TSel("p", (("l1", TSel("p", (("l1", TVar("t")),))), ("l2", TEnd()))))
    u = unfold(t)
    assert u is TSel("p", (("l1", TSel("p", (("l1", t),))), ("l2", TEnd())))
    assert u.branches[1][1] is END


def test_intern_table_keeps_no_dead_node():
    """Built by constructors only, with no memo touched: the node is shared
    while it lives, and the table does not keep it alive."""
    node = TOut("intern-probe", INT, TIn("intern-probe", INT, END))
    assert TOut("intern-probe", INT, TIn("intern-probe", INT, END)) is node
    ref = weakref.ref(node)
    del node
    gc.collect()
    assert ref() is None


def test_nodes_have_no_dict():
    """Every AST class, and every class above it, is slotted."""
    classes = [c for c in vars(ast).values() if isinstance(c, type) and issubclass(c, ast._Node)]
    assert set(ast.CHILDREN) < set(classes)
    for cls in classes:
        assert all("__slots__" in vars(k) for k in cls.__mro__[:-1]), cls
    for node in (INT, END, TOut("p", INT, END), GEnd(), INACT, ast.TRUE,
                 typing_context([("p", END)])):
        assert not hasattr(node, "__dict__")


def test_intern_table_ignores_a_stale_callback():
    """A key interned again after its node died maps to the new node, and
    the dead node's callback, running late, leaves that entry alone."""
    key = (TOut, "stale-probe", INT, END)
    node = TOut("stale-probe", INT, END)
    old = ast._live[key]
    del node
    gc.collect()
    assert key not in ast._live
    ast._live[key] = old  # as if its callback had not run yet
    node = TOut("stale-probe", INT, END)
    assert old() is None and ast._live[key]() is node
    ast._drop(old)
    assert ast._live[key]() is node and TOut("stale-probe", INT, END) is node


def test_intern_table_shrinks_when_its_nodes_die():
    """The table holds its nodes weakly: the probes' 51 entries go with them."""
    gc.collect()
    before = len(ast._live)
    probes = [TOut(f"size-probe-{k}", INT, TIn("size-probe", INT, END)) for k in range(50)]
    assert len(ast._live) == before + 51
    del probes
    gc.collect()
    assert len(ast._live) == before


def test_constructors_take_positional_fields_only():
    with pytest.raises(TypeError):
        TVar(var="t")


def _reference_subst(t, var, repl):
    """Test oracle: the substitution that copies every node it visits."""
    if isinstance(t, (TVar, GVar)):
        return repl if t.var == var else t
    if isinstance(t, (TRec, GRec)):
        if t.var == var:
            return t
        return type(t)(t.var, _reference_subst(t.body, var, repl))
    if isinstance(t, (TOut, TIn)):
        return type(t)(t.peer, t.payload, _reference_subst(t.cont, var, repl))
    if isinstance(t, GMsg):
        return GMsg(t.frm, t.to, t.payload, _reference_subst(t.cont, var, repl))
    if isinstance(t, (TSel, TBra)):
        return type(t)(t.peer, tuple((l, _reference_subst(b, var, repl)) for l, b in t.branches))
    if isinstance(t, GChoice):
        return GChoice(t.frm, t.to,
                       tuple((l, _reference_subst(b, var, repl)) for l, b in t.branches))
    return t


def _subterms(t):
    yield t
    if isinstance(t, (TRec, GRec)):
        yield from _subterms(t.body)
    elif isinstance(t, (TOut, TIn, GMsg)):
        yield from _subterms(t.cont)
    elif isinstance(t, (TSel, TBra, GChoice)):
        for _, b in t.branches:
            yield from _subterms(b)


@pytest.mark.parametrize("gen", [rand_local, rand_global])
def test_subst_equals_copying_oracle_and_shares(rng, gen):
    """subst agrees with the copying oracle on every subterm of random types,
    for the variable of every recursion binder in the type (plugging in that
    binder, as unfold does) and for an absent variable, and returns the
    term itself whenever the variable is not free in it."""
    seen = {"open": 0, "shared": 0}
    for _ in range(300):
        t = gen(rng, 14)
        subterms = list(_subterms(t))
        binders = [u for u in subterms if isinstance(u, (TRec, GRec))]
        for u in subterms:
            for var, repl in [(b.var, b) for b in binders] + [("absent", t)]:
                out = subst(u, var, repl)
                assert out == _reference_subst(u, var, repl)
                if var in free_vars(u):
                    seen["open"] += 1
                else:
                    assert out is u
                    seen["shared"] += 1
    assert seen["open"] > 400 and seen["shared"] > 4000


def test_participants_fixtures():
    assert participants(GEnd()) == frozenset()
    assert participants(GMsg("p", "q", INT, GEnd())) == {"p", "q"}
    g_if = parse("global", "rec t. q->r{l1: r->p{l1: t}, l2: r->p{l2: end}}")
    assert participants(g_if) == {"p", "q", "r"}


def oracle_participants(g):
    out = set()

    def walk(g):
        if isinstance(g, (GMsg, GChoice)):
            out.add(g.frm)
            out.add(g.to)
        for attr in ("cont", "body"):
            if hasattr(g, attr):
                walk(getattr(g, attr))
        if hasattr(g, "branches"):
            for _, b in g.branches:
                walk(b)

    walk(g)
    return frozenset(out)


def test_participants_oracle(rng):
    for _ in range(500):
        g = rand_global(rng, 10)
        assert participants(g) == oracle_participants(g)


def test_graph_nodes_are_subformulas(rng):
    from mpstk.ast import is_closed
    from mpstk.typegraph import local_graph

    for _ in range(200):
        t = rand_local(rng, 10)
        if not is_closed(t):
            continue
        g = local_graph(t)
        subs = {alpha_canon(s) for s in subformulas(t)}
        # every non-Skip graph node is a subformula (up to alpha)
        for n in g.real_nodes():
            assert alpha_canon(g.desc[n]) in subs
