"""Pretty-printers producing the surface syntax accepted by parse.py.

A term is printed in one left-to-right pass over a stack of pieces, texts
and nodes: each text is appended to one list, joined once, so printing
costs time linear in the text at any depth.  `_TEXTS` gives each node's
text as the pieces around its children: the text before each child, then
the text after the last.  A typing context is joined from its entries'
texts, each printed once per process while it stays in a bounded memo.
"""

from __future__ import annotations

from .ast import (
    EAdd, EInt, ENat, ENeg, ENonDet, ENot, EOr, ETrue, EFalse, EVar,
    GEnd, GChoice, GMsg, GRec, GVar,
    PBra, PCond, PInact, PRec, PRecv, PSel, PSend, PVar,
    Session, TBra, TEnd, TIn, TOut, TRec, TSel, TVar, TypingContext, children,
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


def _sort(s):
    return (str(s),)


def _text(x) -> str:
    """The text of x in one left-to-right pass over a stack of pieces.  A
    popped text is appended; a popped node appends its first text and pushes
    its children interleaved with its other texts, the first child on top,
    skipping empty texts."""
    out: list[str] = []
    stack = [x]
    push, pop, append = stack.append, stack.pop, out.append
    while stack:
        u = pop()
        if type(u) is str:
            append(u)
            continue
        texts = _TEXTS.get(type(u), _sort)(u)
        append(texts[0])
        n = len(texts)
        if n > 1:
            kids = children(u)
            while n > 1:
                n -= 1
                if texts[n]:
                    push(texts[n])
                push(kids[n - 1])
    return "".join(out)


def show(x) -> str:
    """The surface syntax of any term or sort."""
    return show_context(x) if isinstance(x, TypingContext) else _text(x)


def show_local(t) -> str:
    return _text(t)


# A process-wide memo of texts is cleared whole when an insert would take
# it past this many entries (a generation clear).
TEXT_MEMO_BOUND = 4096

_ENTRY_TEXTS: dict = {}  # a context entry's (hash-consed) local type -> its text


def show_context(c: TypingContext) -> str:
    """The one context printer: each entry's type is printed once per process
    while its text stays in `_ENTRY_TEXTS`."""
    texts = _ENTRY_TEXTS
    parts = []
    for p, t in c.entries:
        text = texts.get(t)
        if text is None:
            if len(texts) >= TEXT_MEMO_BOUND:
                texts.clear()
            text = texts[t] = _text(t)
        parts.append(f"{p}: {text}")
    return ", ".join(parts)
