"""The word tokenizer against the per-token tokenizer it replaced.

`parse.tokenize` keeps no offsets: it returns the words of a text, an end
word "", and the kind of each distinct word, and `parse._offset` scans the
text again when an error needs an offset.  `_reference`, kept here as the
tokenizer was, made one match and one (kind, offset, value) tuple per
token.  On three corpora both must give the same tokens, kinds, offsets and
bad character, and `parse` must give the same result or error as before
this representation: the digest of its outcomes was taken with the
reference tokenizer in place.
"""

import hashlib
import random
import re

import pytest

from conftest import (rand_context, rand_expr, rand_fair_context, rand_global, rand_local,
                      rand_process, rand_qbf)
from test_parse_errors import cases, outcome

from mpstk.ast import session
from mpstk.hardness import DF, LIVE, SAFETY, gen_qbf_context
from mpstk.parse import ParseError, _offset, parse, tokenize
from mpstk.printer import show

_REFERENCE_RE = re.compile(
    r"(?P<sym>\(\+\)|->|::|\\/|[!?+&{}():;,.<>|*-])|(?P<NUM>\d+)"
    r"|(?P<IDENT>[A-Za-z][A-Za-z0-9_]*)|(?P<bad>\S)")


def _reference(text):
    """(kind, offset, value) per token, then ("EOF", len(text), None)."""
    out = []
    for m in _REFERENCE_RE.finditer(text):
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


# sha256 of the outcome lines of every case of the three corpora, in order
OUTCOMES_SHA256 = "583a2888c84a4eb75c9d49ff79f24e2269fbdf847b58ca1d0485b31356b2e790"


def build_corpora():
    """(name, [(category, text, the term it prints or None)]) for the
    seeded error corpus of test_parse_errors, 200 QBF gadget contexts and
    printed conftest terms of all six categories."""
    errors = [(c, t, None) for c, t in cases()]
    rng = random.Random(29)
    qbf = []
    for k in range(200):
        ctx = gen_qbf_context(rand_qbf(rng, rng.randint(1, 3), rng.randint(1, 3)),
                              (SAFETY, DF, LIVE)[k % 3])
        qbf.append(("context", show(ctx), ctx))
    terms = []
    for _ in range(150):
        sess = session((n, rand_process(rng, 5)) for n in ("p", "q"))
        for category, t in (("local", rand_local(rng, 9)), ("global", rand_global(rng, 9)),
                            ("expr", rand_expr(rng, 6)), ("process", rand_process(rng, 8)),
                            ("session", sess), ("context", rand_context(rng)),
                            ("context", rand_fair_context(rng))):
            if t is not None:
                terms.append((category, show(t), t))
    return [("errors", errors), ("qbf", qbf), ("terms", terms)]


@pytest.fixture(scope="module")
def corpora():
    return build_corpora()


def _samples(n, rng):
    """The word indices whose offsets are checked: the first, the last,
    the end and a few between (each `_offset` call rescans the text)."""
    return sorted({0, n // 2, max(n - 1, 0), n, *(rng.randrange(n + 1) for _ in range(4))})


def test_words_kinds_and_offsets_match_the_reference(corpora):
    rng = random.Random(30)
    for name, corpus in corpora:
        for category, text, _ in corpus:
            try:
                want = _reference(text)
            except ParseError as e:
                with pytest.raises(ParseError) as err:
                    tokenize(text)
                assert (str(err.value), err.value.pos) == (str(e), e.pos), (name, text)
                continue
            words, kinds = tokenize(text)
            got = [(kinds[w], int(w) if kinds[w] == "NUM" else w if kinds[w] == "IDENT"
                    else None) for w in words]
            assert got == [(k, v) for k, _, v in want], (name, text)
            assert all(kinds[w] == w for w in words if kinds[w] not in ("NUM", "IDENT", "EOF"))
            for i in _samples(len(words) - 1, rng):
                assert _offset(text, i) == want[i][1], (name, text, i)


def test_parse_outcomes_are_unchanged(corpora):
    """Every result and error is as it was, and a printed term that parses
    back to itself is the same (hash-consed) node."""
    lines = []
    for name, corpus in corpora:
        for category, text, term in corpus:
            lines.append(f"{category}\t{text!r}\t{outcome(category, text)}")
            if name == "qbf":
                assert parse(category, text) is term
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == OUTCOMES_SHA256
