"""Pretty-printers producing the surface syntax accepted by parse.py.

A term is printed by one `ast.fold` that appends its text, left to right,
to one list and joins it once, so printing costs time linear in the text at
any depth; a typing context is joined from its entries' texts, each printed
once per process.  `_TEXTS` gives each node's text as the pieces around its
children: the text before each child, then the text after the last.
"""

from __future__ import annotations

from .ast import (
    EAdd, EInt, ENat, ENeg, ENonDet, ENot, EOr, ETrue, EFalse, EVar,
    GEnd, GChoice, GMsg, GRec, GVar,
    PBra, PCond, PInact, PRec, PRecv, PSel, PSend, PVar,
    ONLY_CHILD, Done, Session, TypingContext, Visit,
    TBra, TEnd, TIn, TOut, TRec, TSel, TVar, children, fold,
)


def _labels(head, pairs, sep, colon, tail):
    """The texts around the children of a node with (name, child) pairs."""
    names = [name for name, _ in pairs]
    return (f"{head}{names[0]}{colon}", *[f"{sep}{n}{colon}" for n in names[1:]], tail)


# Binary expression operands are parenthesised unless atomic, which keeps
# the printer independent of the precedence table in the parser.
_ATOMS = (ETrue, EFalse, ENat, EInt, EVar)


def _parens(e):
    """The texts around an operand: none if it is atomic, else parentheses."""
    return ("", "") if isinstance(e, _ATOMS) else ("(", ")")


def _unary(e, op):
    (arg,) = children(e)
    before, after = _parens(arg)
    return f"{op}{before}", after


def _binary(e, op):
    (lo, lc), (ro, rc) = map(_parens, children(e))
    return lo, f"{lc}{op}{ro}", rc


# class -> node -> the texts before, between and after its children
_TEXTS = {
    **dict.fromkeys((TEnd, GEnd), lambda u: ("end",)),
    **dict.fromkeys((TVar, GVar, PVar), lambda u: (u.var,)),
    **dict.fromkeys((TRec, GRec, PRec), lambda u: (f"rec {u.var}. ", "")),
    TOut: lambda u: (f"{u.peer}!({u.payload}); ", ""),
    TIn: lambda u: (f"{u.peer}?({u.payload}); ", ""),
    TSel: lambda u: _labels(f"{u.peer}+{{", u.branches, ", ", ": ", "}"),
    TBra: lambda u: _labels(f"{u.peer}&{{", u.branches, ", ", ": ", "}"),
    GMsg: lambda u: (f"{u.frm}->{u.to}({u.payload}); ", ""),
    GChoice: lambda u: _labels(f"{u.frm}->{u.to}{{", u.branches, ", ", ": ", "}"),
    ETrue: lambda u: ("true",),
    EFalse: lambda u: ("false",),
    # non-negative integers only arise as runtime values and are never
    # parsed back, so plain digits are fine for display
    **dict.fromkeys((ENat, EInt), lambda u: (str(u.value),)),
    EVar: lambda u: (u.name,),
    ENot: lambda u: _unary(u, "!"),
    ENeg: lambda u: _unary(u, "neg "),
    EOr: lambda u: _binary(u, " \\/ "),
    EAdd: lambda u: _binary(u, " + "),
    ENonDet: lambda u: _binary(u, " (+) "),
    PInact: lambda u: ("0",),
    PSend: lambda u: (f"{u.peer}!<", ">; ", ""),
    PRecv: lambda u: (f"{u.peer}?({u.var}); ", ""),
    PSel: lambda u: (f"{u.peer}(+){u.label}; ", ""),
    PBra: lambda u: _labels(f"{u.peer}&{{", u.branches, ", ", ": ", "}"),
    PCond: lambda u: ("if ", " then ", " else ", ""),
    Session: lambda u: _labels("", u.roles, " | ", "::", ""),
}


def _enter(item, env):
    """item: (text before the node, the node); env: (the text so far, the
    texts after the nodes the visit of its parent opened).  A run of nodes
    with one child each is printed in one visit."""
    text, u = item
    out, afters = env[0], []
    while True:
        out.append(text)
        texts = _TEXTS.get(type(u), _sort)(u)
        if texts[-1]:
            afters.append(texts[-1])
        if len(texts) != 2:
            break
        one = ONLY_CHILD.get(type(u))
        text, u = texts[0], one(u) if one else children(u)[0]
    if len(texts) == 1:
        out.extend(reversed(afters))
        return _DONE
    return Visit(tuple(zip(texts, children(u))), (out, afters))


def _sort(s):
    return (str(s),)


def _leave(item, vals, env):
    env[0].extend(reversed(env[1]))


_DONE = Done(None)


def _text(x) -> str:
    out: list[str] = []
    fold(("", x), _leave, _enter, (out, None))
    return "".join(out)


def show(x) -> str:
    """The surface syntax of any term or sort."""
    return show_context(x) if isinstance(x, TypingContext) else _text(x)


def show_local(t) -> str:
    return _text(t)


_ENTRY_TEXTS: dict = {}  # a context entry's (hash-consed) local type -> its text


def show_context(c: TypingContext) -> str:
    """The one context printer: each entry's type is printed once per process."""
    texts = _ENTRY_TEXTS
    for _, t in c.entries:
        if t not in texts:
            texts[t] = _text(t)
    return ", ".join(f"{p}: {texts[t]}" for p, t in c.entries)
