"""The contract of an AST node: how it prints, how it is built, and that it
cannot be changed once built."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from mpstk import ast
from mpstk.ast import (
    BOOL, END, FALSE, INACT, INT, NAT, TRUE,
    EAdd, EInt, ENat, ENeg, ENonDet, ENot, EOr, EVar,
    GChoice, GEnd, GMsg, GRec, GVar,
    PBra, PCond, PRec, PRecv, PSel, PSend, PVar,
    Sort, SortVar, TBra, TIn, TOut, TRec, TSel, TVar,
    session, typing_context,
)
from mpstk.typegraph import IN, Action

# one node of every AST class, and its repr: golden digests and the order
# of `semantics.session_step`'s successors read this text
REPRS = [
    (Sort("int"), "Sort(name='int')"),
    (SortVar("a"), "SortVar(name='a')"),
    (END, "TEnd()"),
    (TOut("p", INT, END), "TOut(peer='p', payload=Sort(name='int'), cont=TEnd())"),
    (TIn("p", SortVar("a"), END), "TIn(peer='p', payload=SortVar(name='a'), cont=TEnd())"),
    (TSel("q", (("a", END), ("b", TVar("X")))),
     "TSel(peer='q', branches=(('a', TEnd()), ('b', TVar(var='X'))))"),
    (TBra("q", (("l", END),)), "TBra(peer='q', branches=(('l', TEnd()),))"),
    (TRec("X", TOut("p", BOOL, TVar("X"))),
     "TRec(var='X', body=TOut(peer='p', payload=Sort(name='bool'), cont=TVar(var='X')))"),
    (TVar("X"), "TVar(var='X')"),
    (GEnd(), "GEnd()"),
    (GMsg("p", "q", NAT, GEnd()), "GMsg(frm='p', to='q', payload=Sort(name='nat'), cont=GEnd())"),
    (GChoice("p", "q", (("l", GVar("X")),)),
     "GChoice(frm='p', to='q', branches=(('l', GVar(var='X')),))"),
    (GRec("X", GMsg("p", "q", INT, GVar("X"))),
     "GRec(var='X', body=GMsg(frm='p', to='q', payload=Sort(name='int'), cont=GVar(var='X')))"),
    (GVar("X"), "GVar(var='X')"),
    (TRUE, "ETrue()"),
    (FALSE, "EFalse()"),
    (ENat(1), "ENat(value=1)"),
    (EInt(-2), "EInt(value=-2)"),
    (EVar("x"), "EVar(name='x')"),
    (EOr(TRUE, FALSE), "EOr(lhs=ETrue(), rhs=EFalse())"),
    (ENot(EVar("x")), "ENot(arg=EVar(name='x'))"),
    (EAdd(ENat(1), EVar("x")), "EAdd(lhs=ENat(value=1), rhs=EVar(name='x'))"),
    (ENonDet(ENat(1), ENat(2)), "ENonDet(lhs=ENat(value=1), rhs=ENat(value=2))"),
    (ENeg(EInt(3)), "ENeg(arg=EInt(value=3))"),
    (INACT, "PInact()"),
    (PSend("q", ENat(1), INACT), "PSend(peer='q', expr=ENat(value=1), cont=PInact())"),
    (PRecv("q", "x", PVar("X")), "PRecv(peer='q', var='x', cont=PVar(var='X'))"),
    (PSel("q", "l", INACT), "PSel(peer='q', label='l', cont=PInact())"),
    (PBra("q", (("b", INACT), ("a", INACT))),
     "PBra(peer='q', branches=(('b', PInact()), ('a', PInact())))"),
    (PCond(EVar("x"), INACT, PVar("X")),
     "PCond(cond=EVar(name='x'), then=PInact(), orelse=PVar(var='X'))"),
    (PRec("X", PSend("q", TRUE, PVar("X"))),
     "PRec(var='X', body=PSend(peer='q', expr=ETrue(), cont=PVar(var='X')))"),
    (PVar("X"), "PVar(var='X')"),
    (session([("q", INACT), ("p", PVar("X"))]),
     "Session(roles=(('p', PVar(var='X')), ('q', PInact())))"),
    (typing_context([("p", END), ("q", TVar("X"))]),
     "TypingContext(entries=(('p', TEnd()), ('q', TVar(var='X'))))"),
]
NODES = [node for node, _ in REPRS]


def test_samples_cover_every_node_class():
    roots = {ast._Node, ast.LocalT, ast.GlobalT, ast.Expr, ast.Proc}
    classes = {c for c in vars(ast).values() if isinstance(c, type) and issubclass(c, ast._Node)}
    assert {type(node) for node in NODES} == classes - roots


@pytest.mark.parametrize("node, text", REPRS, ids=[type(n).__name__ for n in NODES])
def test_repr(node, text):
    assert repr(node) == text


def test_action_repr():
    assert repr(Action(IN, "p", SortVar("a"))) == "Action(kind='in', peer='p', arg=SortVar(name='a'))"


@pytest.mark.parametrize("node", NODES, ids=[type(n).__name__ for n in NODES])
def test_wrong_arity_or_keywords_raise_type_error(node):
    cls = type(node)
    fields = [getattr(node, name) for name in cls.__slots__]
    assert cls(*fields) is node
    with pytest.raises(TypeError):
        cls(*fields, None)
    if fields:
        with pytest.raises(TypeError):
            cls(*fields[:-1])
        with pytest.raises(TypeError):
            cls(*fields[:-1], **{cls.__slots__[-1]: fields[-1]})


@pytest.mark.parametrize("node", NODES, ids=[type(n).__name__ for n in NODES])
def test_fields_cannot_be_assigned_or_deleted(node):
    for name in type(node).__slots__ or ("name",):
        with pytest.raises(AttributeError):
            setattr(node, name, None)
        with pytest.raises(AttributeError):
            delattr(node, name)


@pytest.mark.parametrize("node", NODES, ids=[type(n).__name__ for n in NODES])
def test_copies_are_the_interned_node(node):
    """Equality is identity, so a copy, a deep copy or an unpickled node must
    be the node itself, built again through interning."""
    assert copy.copy(node) is node
    assert copy.deepcopy(node) is node
    assert pickle.loads(pickle.dumps(node)) is node


def test_import_generates_no_code():
    """Importing mpstk and its CLI loads neither `dataclasses` nor
    `inspect`: the metaclass declares the nodes, and records are named
    tuples.  `-S` keeps the site's .pth files, which may import either
    themselves, out of the check."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, mpstk, mpstk.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
