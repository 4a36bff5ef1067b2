"""The parser of the textual surface syntax.

Categories: local and global types, expressions, processes, sessions and
typing contexts.  Whitespace-insensitive; participants and labels are
identifiers [A-Za-z][A-Za-z0-9_]*.

One pass over the token list, in a loop with an explicit stack of frames,
so no depth of input reaches the interpreter's recursion limit.  A frame
is the rest of a production, waiting for the term it asked for.  As it
reads, the loop renames recursion binders apart (`ast.Renaming`) and notes,
per entry, the first variable that occurs unguarded and the free type
variables.  Those two errors are raised once the whole text has parsed,
entry by entry in participant order, so syntax errors come first.
Labels and participants are sorted with `ast.branches` (a process
branching keeps its text order); the constructors check distinct labels,
p != p and distinct participants as each term is built.
"""

from __future__ import annotations

import re

from .ast import (
    FALSE, INACT, SORTS, TRUE,
    EAdd, EInt, ENat, ENeg, ENonDet, ENot, EOr, EVar,
    GChoice, GEnd, GMsg, GRec, GVar,
    PBra, PCond, PRec, PRecv, PSel, PSend, PVar,
    Renaming, SessionTypeError, TBra, TEnd, TIn, TOut, TRec, TSel, TVar,
    bind, branches, session, typing_context, unbind,
)


class ParseError(SessionTypeError):
    def __init__(self, msg, pos):
        super().__init__(f"{msg} (at offset {pos})")
        self.pos = pos


# A search skips whitespace; any other character that starts no token is bad.
_TOKEN_RE = re.compile(
    r"(?P<sym>\(\+\)|->|::|\\/|[!?+&{}():;,.<>|*-])|(?P<NUM>\d+)"
    r"|(?P<IDENT>[A-Za-z][A-Za-z0-9_]*)|(?P<bad>\S)")

KEYWORDS = {"end", "rec", "true", "false", "if", "then", "else", "neg", "bool", "nat", "int"}


def tokenize(text: str) -> list[tuple]:
    """(kind, offset, value) per token, then ("EOF", len(text), None).  The
    kind of a symbol is the symbol itself, else "NUM" or "IDENT"."""
    out = []
    for m in _TOKEN_RE.finditer(text):
        kind, word = m.lastgroup, m[0]
        if kind == "sym":
            out.append((word, m.start(), None))
        elif kind == "IDENT":
            out.append((kind, m.start(), word))
        elif kind == "NUM":
            out.append((kind, m.start(), int(word)))
        else:
            raise ParseError(f"unexpected character {word!r}", m.start())
    out.append(("EOF", len(text), None))
    return out


# What the loop reads next: a term of one category, or an operand of an
# expression (its prefix operators, then an atom).
LOCAL, GLOBAL, PROCESS, OPERAND = range(4)
_TERMS = {LOCAL: (TVar, TRec), GLOBAL: (GVar, GRec), PROCESS: (PVar, PRec)}

# The frames, by what they wait for: the whole text's term, an entry of a
# session or context, a binder's body, a prefix's continuation, a branch,
# a sent expression, a part of a conditional, the right operand of a
# binary operator, the operand of ! or neg, a parenthesised expression.
(_TOP, _ENTRY, _REC, _PREFIX, _BRANCH, _SEND, _IF, _BINARY, _UNARY, _PAREN) = range(10)

# binary operators: precedence \/ < (+) < +, all left-associative
_PREC = {"\\/": 1, "(+)": 2, "+": 3}
_BINOP = {"\\/": EOr, "(+)": ENonDet, "+": EAdd}


def parse(category: str, text: str):
    """Parse `text` as one of local | global | expr | process | session |
    context, enforcing all structural invariants."""
    if category not in ("local", "global", "expr", "process", "session", "context"):
        raise ValueError(f"unknown category {category!r}")
    toks = tokenize(text)
    idents = {v for k, _, v in toks if k == "IDENT"}
    i = 0

    def expect(kind):
        nonlocal i
        t = toks[i]
        i += 1
        if t[0] != kind:
            raise ParseError(f"expected {kind!r}, found {t[0]!r}", t[1])
        return t

    def ident(what):
        t = expect("IDENT")
        if t[2] in KEYWORDS:
            raise ParseError(f"expected {what}, found keyword {t[2]!r}", t[1])
        return t[2]

    def branch_label():
        name = ident("label")
        expect(":")
        return name

    def sort():
        t = expect("IDENT")
        if t[2] not in SORTS:
            raise ParseError(f"unknown sort {t[2]!r}", t[1])
        return SORTS[t[2]]

    # Per entry: its renaming, the binders in scope (user name -> (new
    # name, guard)) and [participant, the unguardedness error, the free
    # variables].  `guard` numbers the innermost communication prefix.
    checks: list = []
    renaming = scope = entry = None
    guard = prefixes = 0

    def new_entry(name):
        nonlocal renaming, scope, entry
        renaming, scope, entry = Renaming(idents), {}, [name, None, set()]
        checks.append(entry)

    stack: list = [(_TOP,)]
    if category in ("session", "context"):
        sep, colon, goal = ("|", "::", PROCESS) if category == "session" else (",", ":", LOCAL)
        name = ident("participant")
        expect(colon)
        stack.append((_ENTRY, sep, colon, goal, name, []))
        new_entry(name)
    elif category == "expr":
        stack.append((_BINARY, 1, None, None))
        goal = OPERAND
    else:
        goal = {"local": LOCAL, "global": GLOBAL, "process": PROCESS}[category]
        new_entry(None)

    value = None
    while True:
        if goal is not None:  # read the start of a term
            t = toks[i]
            k = t[0]
            if goal == OPERAND:
                if k == "!" or k == "IDENT" and t[2] == "neg":
                    i += 1
                    stack.append((_UNARY, ENot if k == "!" else ENeg))
                    continue
                if k == "(":
                    i += 1
                    stack.append((_PAREN,))
                    stack.append((_BINARY, 1, None, None))
                    continue
                if k == "NUM":
                    i += 1
                    value = ENat(t[2])
                elif k == "-":
                    i += 1
                    value = EInt(-expect("NUM")[2])
                elif k == "IDENT" and t[2] in ("true", "false"):
                    i += 1
                    value = TRUE if t[2] == "true" else FALSE
                elif k == "IDENT":
                    value = EVar(ident("variable"))
                else:
                    raise ParseError(f"expected expression, found {k!r}", t[1])
                goal = None
                continue
            if goal == PROCESS and k == "NUM" and t[2] == 0:
                i += 1
                value, goal = INACT, None
                continue
            if goal == PROCESS and k == "IDENT" and t[2] == "if":
                i += 1
                stack.append((_IF,))
                stack.append((_BINARY, 1, None, None))
                goal = OPERAND
                continue
            if goal != PROCESS and k == "IDENT" and t[2] == "end":
                i += 1
                value, goal = (TEnd() if goal == LOCAL else GEnd()), None
                continue
            var_cls, rec_cls = _TERMS[goal]
            if k == "IDENT" and t[2] == "rec":
                i += 1
                user = ident("process variable" if goal == PROCESS else "type variable")
                expect(".")
                new = renaming.fresh(user)
                stack.append((_REC, rec_cls, user, new, bind(scope, user, (new, guard))))
                continue
            name = ident("participant or process variable" if goal == PROCESS
                         else "participant or type variable")
            k = toks[i][0]
            if goal == LOCAL and k in ("!", "?"):
                i += 1
                expect("(")
                s = sort()
                expect(")")
                expect(";")
                stack.append((_PREFIX, TOut if k == "!" else TIn, (name, s), guard))
            elif goal == LOCAL and k in ("+", "&"):
                i += 1
                expect("{")
                stack.append((_BRANCH, TSel if k == "+" else TBra, (name,), [], branch_label(),
                              guard, LOCAL))
            elif goal == GLOBAL and k == "->":
                i += 1
                to = ident("participant")
                if toks[i][0] == "(":
                    i += 1
                    s = sort()
                    expect(")")
                    expect(";")
                    stack.append((_PREFIX, GMsg, (name, to, s), guard))
                else:
                    expect("{")
                    stack.append((_BRANCH, GChoice, (name, to), [], branch_label(), guard, GLOBAL))
            elif goal == PROCESS and k == "!":
                i += 1
                expect("<")
                stack.append((_SEND, name))
                stack.append((_BINARY, 1, None, None))
                goal = OPERAND
                continue
            elif goal == PROCESS and k == "?":
                i += 1
                expect("(")
                var = ident("value variable")
                expect(")")
                expect(";")
                stack.append((_PREFIX, PRecv, (name, var), guard))
            elif goal == PROCESS and k == "(+)":
                i += 1
                label = ident("label")
                expect(";")
                stack.append((_PREFIX, PSel, (name, label), guard))
            elif goal == PROCESS and k == "&":
                i += 1
                expect("{")
                stack.append((_BRANCH, PBra, (name,), [], branch_label(), guard, PROCESS))
            else:  # a variable
                bound = scope.get(name)
                if bound is None:
                    entry[2].add(name)
                    value = var_cls(name)
                else:
                    if bound[1] == guard and entry[1] is None:
                        kind = "process" if goal == PROCESS else "recursion"
                        entry[1] = f"unguarded {kind} variable {bound[0]}"
                    value = var_cls(bound[0])
                goal = None
                continue
            prefixes += 1
            guard = prefixes
            continue

        # `value` is a finished term: hand it to the frame that asked for it
        f = stack.pop()
        tag = f[0]
        if tag == _PREFIX:
            guard = f[3]
            value = f[1](*f[2], value)
        elif tag == _REC:
            _, rec_cls, user, new, outer = f
            unbind(scope, user, outer)
            value = rec_cls(new, value)
        elif tag == _BRANCH:
            f[3].append((f[4], value))
            if toks[i][0] == ",":
                i += 1
                stack.append(f[:4] + (branch_label(),) + f[5:])
                goal = f[6]
                continue
            expect("}")
            guard = f[5]
            value = f[1](*f[2], (tuple if f[1] is PBra else branches)(f[3]))
        elif tag == _BINARY:
            _, least, lhs, op = f
            if op is not None:
                value = _BINOP[op](lhs, value)
            k = toks[i][0]
            if _PREC.get(k, 0) >= least:
                i += 1
                stack.append((_BINARY, least, value, k))
                stack.append((_BINARY, _PREC[k] + 1, None, None))
                goal = OPERAND
        elif tag == _UNARY:
            value = f[1](value)
        elif tag == _PAREN:
            expect(")")
        elif tag == _SEND:
            expect(">")
            expect(";")
            stack.append((_PREFIX, PSend, (f[1], value), guard))
            prefixes += 1
            guard = prefixes
            goal = PROCESS
        elif tag == _IF:  # f[1:] are the parts read so far
            if len(f) == 3:
                value = PCond(f[1], f[2], value)
            else:
                word = "then" if len(f) == 1 else "else"
                if not (toks[i][0] == "IDENT" and toks[i][2] == word):
                    raise ParseError(f"expected {word!r}", toks[i][1])
                i += 1
                stack.append(f + (value,))
                goal = PROCESS
        elif tag == _ENTRY:
            _, sep, colon, term, name, pairs = f
            pairs.append((name, value))
            if toks[i][0] == sep:
                i += 1
                name = ident("participant")
                expect(colon)
                stack.append(f[:4] + (name, pairs))
                new_entry(name)
                goal = term
            else:
                value = (session if sep == "|" else typing_context)(pairs)
        else:  # _TOP
            break

    t = toks[i]
    if t[0] != "EOF":
        raise ParseError(f"trailing input {t[0]!r}", t[1])
    for _, unguarded, free in sorted(checks, key=lambda c: c[0] or ""):
        if unguarded is not None:
            raise SessionTypeError(unguarded)
        if free and category in ("local", "global", "context"):
            raise SessionTypeError(f"free type variables {sorted(free)}")
    return value
