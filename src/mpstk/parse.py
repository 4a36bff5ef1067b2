"""Parsers for the textual surface syntax.

Categories: local and global types, expressions, processes, sessions and
typing contexts.  Whitespace-insensitive; participants and labels are
identifiers [A-Za-z][A-Za-z0-9_]*.  Recursion binders are made unique and
all well-formedness invariants (distinct labels, guardedness, p != p,
closedness where required) are enforced here.
"""

from __future__ import annotations

import re

from .ast import (
    FALSE, INACT, SORTS, TRUE,
    EAdd, EInt, ENat, ENeg, ENonDet, ENot, EOr, EVar,
    GEnd, GlobalT, GRec, GVar, gchoice, gmsg,
    LocalT, PBra, PCond, PRec, PRecv, PSel, PSend, PVar, Proc,
    SessionTypeError, Session, TypingContext, TEnd, TIn, TOut, TRec, TVar,
    check_guarded_proc, session, tbra, tsel, typing_context,
    uniquify_binders, validate_global, validate_local,
)


class ParseError(SessionTypeError):
    def __init__(self, msg, pos):
        super().__init__(f"{msg} (at offset {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<sym>\(\+\)|->|::|\\/|[!?+&{}():;,.<>|*-])
      | (?P<num>\d+)
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
    )""",
    re.VERBOSE,
)
_SPACE_RE = re.compile(r"\s*")

KEYWORDS = {"end", "rec", "true", "false", "if", "then", "else", "neg", "bool", "nat", "int"}


def tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            pos = _SPACE_RE.match(text, pos).end()  # report the character, not the space
            if pos == len(text):
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        pos = m.end()
        if m.group("sym"):
            out.append((m.group("sym"), m.start()))
        elif m.group("num"):
            out.append(("NUM", m.start(), int(m.group("num"))))
        else:
            out.append(("IDENT", m.start(), m.group("ident")))
    out.append(("EOF", len(text)))
    return out


class _P:
    def __init__(self, text):
        self.toks = tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def kind(self):
        return self.toks[self.i][0]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise ParseError(f"expected {kind!r}, found {t[0]!r}", t[1])
        return t

    def ident(self, what="identifier"):
        t = self.expect("IDENT")
        if t[2] in KEYWORDS:
            raise ParseError(f"expected {what}, found keyword {t[2]!r}", t[1])
        return t[2]

    def at_ident(self, word=None):
        t = self.peek()
        return t[0] == "IDENT" and (word is None or t[2] == word)

    def eat_ident(self, word):
        if self.at_ident(word):
            self.next()
            return True
        return False

    def done(self):
        t = self.peek()
        if t[0] != "EOF":
            raise ParseError(f"trailing input {t[0]!r}", t[1])

    # -- sorts --------------------------------------------------------------

    def sort(self):
        t = self.expect("IDENT")
        if t[2] not in SORTS:
            raise ParseError(f"unknown sort {t[2]!r}", t[1])
        return SORTS[t[2]]

    # -- local types ---------------------------------------------------------

    def local(self) -> LocalT:
        if self.eat_ident("end"):
            return TEnd()
        if self.eat_ident("rec"):
            var = self.ident("type variable")
            self.expect(".")
            return TRec(var, self.local())
        name = self.ident("participant or type variable")
        k = self.kind()
        if k == "!":
            self.next()
            self.expect("(")
            s = self.sort()
            self.expect(")")
            self.expect(";")
            return TOut(name, s, self.local())
        if k == "?":
            self.next()
            self.expect("(")
            s = self.sort()
            self.expect(")")
            self.expect(";")
            return TIn(name, s, self.local())
        if k == "+":
            self.next()
            return tsel(name, self.local_branches())
        if k == "&":
            self.next()
            return tbra(name, self.local_branches())
        return TVar(name)

    def local_branches(self):
        self.expect("{")
        pairs = []
        while True:
            lab = self.ident("label")
            self.expect(":")
            pairs.append((lab, self.local()))
            if self.kind() == ",":
                self.next()
                continue
            self.expect("}")
            return pairs

    # -- global types ----------------------------------------------------

    def global_(self) -> GlobalT:
        if self.eat_ident("end"):
            return GEnd()
        if self.eat_ident("rec"):
            var = self.ident("type variable")
            self.expect(".")
            return GRec(var, self.global_())
        name = self.ident("participant or type variable")
        if self.kind() == "->":
            self.next()
            to = self.ident("participant")
            if self.kind() == "(":
                self.next()
                s = self.sort()
                self.expect(")")
                self.expect(";")
                return gmsg(name, to, s, self.global_())
            self.expect("{")
            pairs = []
            while True:
                lab = self.ident("label")
                self.expect(":")
                pairs.append((lab, self.global_()))
                if self.kind() == ",":
                    self.next()
                    continue
                self.expect("}")
                return gchoice(name, to, pairs)
        return GVar(name)

    # -- expressions ------------------------------------------------------
    # precedence: \/ < (+) < + < prefix (!, neg) < atom

    def expr(self):
        e = self.expr_nondet()
        while self.kind() == "\\/":
            self.next()
            e = EOr(e, self.expr_nondet())
        return e

    def expr_nondet(self):
        e = self.expr_add()
        while self.kind() == "(+)":
            self.next()
            e = ENonDet(e, self.expr_add())
        return e

    def expr_add(self):
        e = self.expr_prefix()
        while self.kind() == "+":
            self.next()
            e = EAdd(e, self.expr_prefix())
        return e

    def expr_prefix(self):
        k = self.peek()
        if k[0] == "!":
            self.next()
            return ENot(self.expr_prefix())
        if self.at_ident("neg"):
            self.next()
            return ENeg(self.expr_prefix())
        return self.expr_atom()

    def expr_atom(self):
        t = self.peek()
        if t[0] == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if t[0] == "NUM":
            self.next()
            return ENat(t[2])
        if t[0] == "-":
            self.next()
            n = self.expect("NUM")
            return EInt(-n[2])
        if t[0] == "IDENT":
            if t[2] == "true":
                self.next()
                return TRUE
            if t[2] == "false":
                self.next()
                return FALSE
            return EVar(self.ident("variable"))
        raise ParseError(f"expected expression, found {t[0]!r}", t[1])

    # -- processes ----------------------------------------------------------

    def process(self) -> Proc:
        t = self.peek()
        if t[0] == "NUM" and t[2] == 0:
            self.next()
            return INACT
        if self.eat_ident("if"):
            cond = self.expr()
            if not self.eat_ident("then"):
                raise ParseError("expected 'then'", self.peek()[1])
            then = self.process()
            if not self.eat_ident("else"):
                raise ParseError("expected 'else'", self.peek()[1])
            return PCond(cond, then, self.process())
        if self.eat_ident("rec"):
            var = self.ident("process variable")
            self.expect(".")
            return PRec(var, self.process())
        name = self.ident("participant or process variable")
        k = self.kind()
        if k == "!":
            self.next()
            self.expect("<")
            e = self.expr()
            self.expect(">")
            self.expect(";")
            return PSend(name, e, self.process())
        if k == "?":
            self.next()
            self.expect("(")
            var = self.ident("value variable")
            self.expect(")")
            self.expect(";")
            return PRecv(name, var, self.process())
        if k == "(+)":
            self.next()
            lab = self.ident("label")
            self.expect(";")
            return PSel(name, lab, self.process())
        if k == "&":
            self.next()
            self.expect("{")
            pairs = []
            while True:
                lab = self.ident("label")
                self.expect(":")
                pairs.append((lab, self.process()))
                if self.kind() == ",":
                    self.next()
                    continue
                self.expect("}")
                return PBra(name, tuple(pairs))
        return PVar(name)

    # -- sessions and contexts ------------------------------------------

    def session(self) -> Session:
        pairs = []
        while True:
            name = self.ident("participant")
            self.expect("::")
            pairs.append((name, self.process()))
            if self.kind() == "|":
                self.next()
                continue
            return session(pairs)

    def context(self) -> TypingContext:
        pairs = []
        while True:
            name = self.ident("participant")
            self.expect(":")
            pairs.append((name, self.local()))
            if self.kind() == ",":
                self.next()
                continue
            return typing_context(pairs)


def parse_local(text: str) -> LocalT:
    p = _P(text)
    t = p.local()
    p.done()
    return validate_local(uniquify_binders(t))


def parse_global(text: str) -> GlobalT:
    p = _P(text)
    g = p.global_()
    p.done()
    return validate_global(uniquify_binders(g))


def parse_expr(text: str):
    p = _P(text)
    e = p.expr()
    p.done()
    return e


def parse_process(text: str) -> Proc:
    p = _P(text)
    proc = p.process()
    p.done()
    proc = uniquify_binders(proc)
    check_guarded_proc(proc)
    return proc


def parse_session(text: str) -> Session:
    p = _P(text)
    s = p.session()
    p.done()
    out = session((n, uniquify_binders(q)) for n, q in s.roles)
    for _, q in out.roles:
        check_guarded_proc(q)
    return out


def parse_context(text: str) -> TypingContext:
    p = _P(text)
    c = p.context()
    p.done()
    return typing_context(
        (n, validate_local(uniquify_binders(t))) for n, t in c.entries
    )


_CATEGORIES = {
    "local": parse_local,
    "global": parse_global,
    "expr": parse_expr,
    "process": parse_process,
    "session": parse_session,
    "context": parse_context,
}


def parse(category: str, text: str):
    """Parse `text` as one of local | global | expr | process | session |
    context, enforcing all structural invariants."""
    try:
        fn = _CATEGORIES[category]
    except KeyError:
        raise ValueError(f"unknown category {category!r}") from None
    return fn(text)
