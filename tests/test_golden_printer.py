"""Exact text of the printer over a seeded corpus of every category.

One digest pins `show(x)` for about 3,800 random terms: local, global and
process terms at fuel 2 to 10, expressions, typing contexts, sessions, and
local types with sort-variable payloads.  The round-trip tests check only
that printing and parsing back gives an alpha-equivalent term; a change to
the printer that keeps every text parseable but moves a space, a
parenthesis or a separator fails here.  The digest is the same under any
PYTHONHASHSEED.
"""

import hashlib
import random

from conftest import (
    PEERS, rand_context, rand_expr, rand_global, rand_local, rand_process,
)
from mpstk.ast import SortVar, TBra, TIn, TOut, TRec, TSel, session
from mpstk.printer import show

FUELS = range(2, 11)
PER_FUEL = 100


def _sort_vars(rng, t):
    """t with each message payload replaced by a sort variable, half the time."""
    if isinstance(t, (TIn, TOut)):
        payload = SortVar(rng.choice("abc")) if rng.random() < 0.5 else t.payload
        return type(t)(t.peer, payload, _sort_vars(rng, t.cont))
    if isinstance(t, (TSel, TBra)):
        return type(t)(t.peer, tuple((l, _sort_vars(rng, b)) for l, b in t.branches))
    if isinstance(t, TRec):
        return TRec(t.var, _sort_vars(rng, t.body))
    return t


def _corpus():
    rng = random.Random(23)
    terms = [gen(rng, fuel) for gen in (rand_local, rand_global, rand_process)
             for fuel in FUELS for _ in range(PER_FUEL)]
    terms += [rand_expr(rng, rng.randint(1, 8), ("x", "y")) for _ in range(400)]
    contexts = (rand_context(rng, rng.randint(2, 7)) for _ in range(300))
    terms += [c for c in contexts if c is not None]
    for _ in range(300):
        names = rng.sample(PEERS, rng.randint(1, 3))
        terms.append(session(
            (p, rand_process(rng, rng.randint(2, 9), peers=[q for q in PEERS if q != p]))
            for p in names))
    terms += [_sort_vars(rng, rand_local(rng, rng.randint(2, 10))) for _ in range(100)]
    return terms


PRINTER_SHA256 = "8281805e6a4bf8ae17f0053057be7ac3224a40bbf267295194359a2f8bcb202d"


def test_golden_printer_text_is_exact():
    texts = [show(x) for x in _corpus()]
    assert len(texts) == 3800
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == PRINTER_SHA256
