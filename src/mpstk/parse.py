"""The parser of the textual surface syntax.

Categories: local and global types, expressions, processes, sessions and
typing contexts.  Whitespace-insensitive; participants and labels are
identifiers [A-Za-z][A-Za-z0-9_]*.

A token is its word, a plain string: one `findall` splits the text, and
the kind of each distinct word (a symbol, "NUM" or "IDENT") is worked out
once per text.  No token keeps its offset; an error finds the offset of its
token by scanning the text again, so only a failing parse pays for it.  A
bad character is reported before any syntax error, the first in the text.

One pass over the word list, in a loop with an explicit stack of frames,
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
from itertools import islice

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


# One search skips whitespace; any other character that starts no token is
# a bad word of its own.
_TOKEN_RE = re.compile(r"\(\+\)|->|::|\\/|[!?+&{}():;,.<>|*-]|\d+|[A-Za-z][A-Za-z0-9_]*|\S")
_SYMBOLS = {"(+)", "->", "::", "\\/", *"!?+&{}():;,.<>|*-"}

KEYWORDS = {"end", "rec", "true", "false", "if", "then", "else", "neg", "bool", "nat", "int"}


def tokenize(text: str) -> tuple[list[str], dict]:
    """The words of `text`, then "" for its end, and the kind of each
    distinct word: a symbol is its own kind, else "NUM" or "IDENT", and ""
    is "EOF".  No offset is kept: `_offset` scans for one when an error
    needs it.  A bad character raises, the first in the text first."""
    words = _TOKEN_RE.findall(text)
    kinds = {"": "EOF"}
    for w in set(words):
        c = w[0]
        kinds[w] = (w if w in _SYMBOLS else "NUM" if c.isdecimal()
                    else "IDENT" if c.isascii() and c.isalpha() else None)
    if None in kinds.values():
        i = next(i for i, w in enumerate(words) if kinds[w] is None)
        raise ParseError(f"unexpected character {words[i]!r}", _offset(text, i))
    words.append("")
    return words, kinds


def _offset(text: str, i: int) -> int:
    """The offset of word i of `text`, or len(text) for its end."""
    m = next(islice(_TOKEN_RE.finditer(text), i, None), None)
    return len(text) if m is None else m.start()


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
    toks, kinds = tokenize(text)
    idents = {w for w, k in kinds.items() if k == "IDENT"}
    i = 0

    def error(msg, at):
        return ParseError(msg, _offset(text, at))

    def expect(kind):
        nonlocal i
        w = toks[i]
        i += 1
        if kinds[w] != kind:
            raise error(f"expected {kind!r}, found {kinds[w]!r}", i - 1)
        return w

    def ident(what):
        w = expect("IDENT")
        if w in KEYWORDS:
            raise error(f"expected {what}, found keyword {w!r}", i - 1)
        return w

    def branch_label():
        name = ident("label")
        expect(":")
        return name

    def sort():
        w = expect("IDENT")
        if w not in SORTS:
            raise error(f"unknown sort {w!r}", i - 1)
        return SORTS[w]

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
            w = toks[i]
            if goal == OPERAND:
                if w == "!" or w == "neg":
                    i += 1
                    stack.append((_UNARY, ENot if w == "!" else ENeg))
                    continue
                if w == "(":
                    i += 1
                    stack.append((_PAREN,))
                    stack.append((_BINARY, 1, None, None))
                    continue
                k = kinds[w]
                if k == "NUM":
                    i += 1
                    value = ENat(int(w))
                elif w == "-":
                    i += 1
                    value = EInt(-int(expect("NUM")))
                elif w == "true" or w == "false":
                    i += 1
                    value = TRUE if w == "true" else FALSE
                elif k == "IDENT":
                    value = EVar(ident("variable"))
                else:
                    raise error(f"expected expression, found {k!r}", i)
                goal = None
                continue
            if goal == PROCESS and kinds[w] == "NUM" and int(w) == 0:
                i += 1
                value, goal = INACT, None
                continue
            if goal == PROCESS and w == "if":
                i += 1
                stack.append((_IF,))
                stack.append((_BINARY, 1, None, None))
                goal = OPERAND
                continue
            if goal != PROCESS and w == "end":
                i += 1
                value, goal = (TEnd() if goal == LOCAL else GEnd()), None
                continue
            var_cls, rec_cls = _TERMS[goal]
            if w == "rec":
                i += 1
                user = ident("process variable" if goal == PROCESS else "type variable")
                expect(".")
                new = renaming.fresh(user)
                stack.append((_REC, rec_cls, user, new, bind(scope, user, (new, guard))))
                continue
            name = ident("participant or process variable" if goal == PROCESS
                         else "participant or type variable")
            w = toks[i]
            if goal == LOCAL and (w == "!" or w == "?"):
                i += 1
                expect("(")
                s = sort()
                expect(")")
                expect(";")
                stack.append((_PREFIX, TOut if w == "!" else TIn, (name, s), guard))
            elif goal == LOCAL and (w == "+" or w == "&"):
                i += 1
                expect("{")
                stack.append((_BRANCH, TSel if w == "+" else TBra, (name,), [], branch_label(),
                              guard, LOCAL))
            elif goal == GLOBAL and w == "->":
                i += 1
                to = ident("participant")
                if toks[i] == "(":
                    i += 1
                    s = sort()
                    expect(")")
                    expect(";")
                    stack.append((_PREFIX, GMsg, (name, to, s), guard))
                else:
                    expect("{")
                    stack.append((_BRANCH, GChoice, (name, to), [], branch_label(), guard, GLOBAL))
            elif goal == PROCESS and w == "!":
                i += 1
                expect("<")
                stack.append((_SEND, name))
                stack.append((_BINARY, 1, None, None))
                goal = OPERAND
                continue
            elif goal == PROCESS and w == "?":
                i += 1
                expect("(")
                var = ident("value variable")
                expect(")")
                expect(";")
                stack.append((_PREFIX, PRecv, (name, var), guard))
            elif goal == PROCESS and w == "(+)":
                i += 1
                label = ident("label")
                expect(";")
                stack.append((_PREFIX, PSel, (name, label), guard))
            elif goal == PROCESS and w == "&":
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
            if toks[i] == ",":
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
            w = toks[i]
            if _PREC.get(w, 0) >= least:
                i += 1
                stack.append((_BINARY, least, value, w))
                stack.append((_BINARY, _PREC[w] + 1, None, None))
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
                if toks[i] != word:
                    raise error(f"expected {word!r}", i)
                i += 1
                stack.append(f + (value,))
                goal = PROCESS
        elif tag == _ENTRY:
            _, sep, colon, term, name, pairs = f
            pairs.append((name, value))
            if toks[i] == sep:
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

    if toks[i]:
        raise error(f"trailing input {kinds[toks[i]]!r}", i)
    for _, unguarded, free in sorted(checks, key=lambda c: c[0] or ""):
        if unguarded is not None:
            raise SessionTypeError(unguarded)
        if free and category in ("local", "global", "context"):
            raise SessionTypeError(f"free type variables {sorted(free)}")
    return value
