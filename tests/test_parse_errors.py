"""Golden outcomes of the parser on malformed input.

Every case is a category and a text: the fixed error cases of the test
suite, plus seeded truncations and token-level mutations of printed random
terms in all six categories.  The outcome of a case is `str(error)` with
the exception's class, or the printed result when the text still parses.
The golden file pins them all, so a change to the parser that moves an
error message, an offset or the order in which errors are found shows up
here.  Regenerate it with `PYTHONPATH=src python tests/test_parse_errors.py`.
"""

from __future__ import annotations

import random
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import rand_context, rand_expr, rand_global, rand_local, rand_process  # noqa: E402

from mpstk.ast import session  # noqa: E402
from mpstk.parse import parse  # noqa: E402
from mpstk.printer import show  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden" / "parse_errors.txt"

FIXED = [
    ("global", "p->p{l: end}"),
    ("global", "p->p(int); end"),
    ("global", "p->p(int); end extra"),
    ("local", "p+{l1: end, l1: end}"),
    ("local", "rec t. t"),
    ("local", "rec t. rec u. t"),
    ("local", "rec t. rec t. t"),
    ("local", "p+{l2: rec t. t, l1: end}"),
    ("process", "rec X. if true then X else X"),
    ("process", "rec X. rec X. X"),
    ("local", "p!(int); t"),
    ("local", "rec t. p!(int); u"),
    ("local", "p!(int)"),
    ("local", "p!(int); $ end"),
    ("local", "p!(int);\t\n #"),
    ("local", "p!(int);$ end"),
    ("local", "p?(bool) end"),
    ("global", "p->q(int);   q->p{l1 end}"),
    ("local", "p!(float); end"),
    ("local", "p!(int); end end"),
    ("local", ""),
    ("local", "   "),
    ("expr", "true + "),
    ("expr", "(1 + 2"),
    ("expr", "- x"),
    ("expr", "if"),
    ("process", "p!<1>; end"),
    ("process", "1"),
    ("process", "if true 0 else 0"),
    ("process", "if true then 0 0"),
    ("process", "q&{l: 0, l: q!<1>; 0}"),
    ("session", "p::0 | p::0"),
    ("session", "p:0"),
    ("context", "p: end, p: end"),
    ("context", "p: t, q: rec u. u"),
    ("context", "q: t, p: rec u. u"),
    ("context", "p: end q: end"),
]

# what a mutation may insert: every symbol, keyword and a few identifiers
VOCAB = ["(+)", "->", "::", "\\/", "!", "?", "+", "&", "{", "}", "(", ")", ":", ";",
         ",", ".", "<", ">", "|", "*", "-", "end", "rec", "true", "false", "if",
         "then", "else", "neg", "bool", "nat", "int", "0", "7", "p", "q", "t", "t_1",
         "X", "X_1", "l1", "x", "$"]

_TOKEN = re.compile(r"\(\+\)|->|::|\\/|\w+|\S")


def _base(category, rng):
    if category == "local":
        return show(rand_local(rng, 9))
    if category == "global":
        return show(rand_global(rng, 9))
    if category == "expr":
        return show(rand_expr(rng, 6))
    if category == "process":
        return show(rand_process(rng, 8))
    if category == "session":
        return show(session((n, rand_process(rng, 5)) for n in ("p", "q")))
    ctx = rand_context(rng)
    return "p: end" if ctx is None else show(ctx)


def _mutate(text, rng):
    """Truncate the text, or drop, repeat, swap or replace one token, or
    insert one from VOCAB; tokens are re-joined with single spaces."""
    roll = rng.randrange(6)
    if roll == 0:
        return text[:rng.randrange(len(text) + 1)]
    toks = _TOKEN.findall(text)
    i = rng.randrange(len(toks))
    if roll == 1:
        del toks[i]
    elif roll == 2:
        toks.insert(i, toks[i])
    elif roll == 3 and len(toks) > 1:
        j = min(i + 1, len(toks) - 1)
        toks[i], toks[j] = toks[j], toks[i]
    elif roll == 4:
        toks[i] = rng.choice(VOCAB)
    else:
        toks.insert(i, rng.choice(VOCAB))
    return " ".join(toks)


def cases():
    out = list(FIXED)
    rng = random.Random(20261018)
    for category in ("local", "global", "expr", "process", "session", "context"):
        for _ in range(500):
            out.append((category, _mutate(_base(category, rng), rng)))
    return out


def outcome(category, text):
    try:
        return "ok " + show(parse(category, text))
    except Exception as e:  # the class is part of the outcome
        return f"{type(e).__name__}: {e}"


def lines():
    return [f"{category}\t{text!r}\t{outcome(category, text)}" for category, text in cases()]


def test_parse_outcomes_match_the_golden_file():
    want = GOLDEN.read_text().splitlines()
    got = lines()
    assert len(got) == len(want)
    diff = [(w, g) for w, g in zip(want, got) if w != g]
    assert not diff, f"{len(diff)} outcomes differ, first: {diff[0]}"


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(lines()) + "\n")
