"""QBF hardness gadgets for the typing-context property checkers.

A quantified Boolean formula with a 3CNF matrix is compiled to a typing
context over a chain s, p1..pn, r1..r(m+1): every variable participant
tries false then (if needed) true, clause participants query the current
assignment through the chain, and the controller s loops while the formula
keeps evaluating to true, entering a bad state otherwise.  The context
satisfies the chosen property iff the formula is true; eval_qbf is the
brute-force oracle for cross-validation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .ast import (
    BOOL, INT, LocalT, SessionTypeError,
    TBra, TEnd, TIn, TOut, TRec, TSel, TVar, TypingContext, branches, typing_context,
)
from .context import CHECKERS

SAFETY, DF, LIVE = "safety", "df", "live"


@dataclass(frozen=True)
class QBF:
    prefix: tuple[tuple[str, str], ...]  # ('E' | 'A', variable)
    clauses: tuple[tuple[tuple[str, bool], ...], ...]  # 3 literals (var, positive)

    def __post_init__(self):
        bound = [v for _, v in self.prefix]
        if len(set(bound)) != len(bound):
            raise SessionTypeError("duplicate quantified variable")
        for q, _ in self.prefix:
            if q not in ("E", "A"):
                raise SessionTypeError(f"bad quantifier {q!r}")
        for cl in self.clauses:
            if len(cl) != 3:
                raise SessionTypeError("clauses must have exactly 3 literals")
            for v, _ in cl:
                if v not in bound:
                    raise SessionTypeError(f"unbound variable {v}")
        if not self.clauses:
            raise SessionTypeError("need at least one clause")

    def variables(self) -> list[str]:
        return [v for _, v in self.prefix]


def eval_qbf(f: QBF, _limit: int = 20) -> bool:
    """Truth by exhaustive quantifier expansion (oracle scale)."""
    if len(f.prefix) > _limit:
        raise SessionTypeError(f"QBF oracle limited to {_limit} variables")

    def matrix(assign) -> bool:
        return all(
            any(assign[v] == pos for v, pos in clause) for clause in f.clauses
        )

    def go(i, assign) -> bool:  # recursive: one level per variable, at most _limit
        if i == len(f.prefix):
            return matrix(assign)
        q, v = f.prefix[i]
        results = (go(i + 1, {**assign, v: b}) for b in (False, True))
        return any(results) if q == "E" else all(results)

    return go(0, {})


def parse_qbf(text: str) -> QBF:
    """Grammar: `A x. E y. (x | ~y | y) & (...)`."""
    head, _, rest = text.rpartition(".")
    prefix = []
    for part in head.replace(".", " ").split():
        if part in ("A", "E"):
            prefix.append([part, None])
        else:
            if not prefix or prefix[-1][1] is not None:
                raise SessionTypeError(f"misplaced variable {part!r} in prefix")
            prefix[-1][1] = part
    clauses = []
    for chunk in rest.split("&"):
        chunk = chunk.strip()
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise SessionTypeError(f"clause must be parenthesised: {chunk!r}")
        lits = []
        for lit in chunk[1:-1].split("|"):
            lit = lit.strip()
            neg = lit.startswith("~")
            lits.append((lit[1:].strip() if neg else lit, not neg))
        clauses.append(tuple(lits))
    return QBF(tuple((q, v) for q, v in prefix), tuple(clauses))


def show_qbf(f: QBF) -> str:
    pre = " ".join(f"{q} {v}." for q, v in f.prefix)
    mat = " & ".join(
        "(" + " | ".join(("" if pos else "~") + v for v, pos in cl) + ")"
        for cl in f.clauses
    )
    return f"{pre} {mat}"


# ---------------------------------------------------------------------------
# Gadget generation


def _query_relay(left, right, lab, back) -> tuple[str, LocalT]:
    """Forward query `lab` leftward, await the answer, relay it rightward,
    resume at `back`."""
    answer = TBra(left, (
        ("no", TSel(right, (("no", back),))),
        ("yes", TSel(right, (("yes", back),))),
    ))
    return (lab, TSel(left, ((lab, answer),)))


def gen_qbf_context(f: QBF, prop: str = SAFETY) -> TypingContext:
    """The reduction context for formula `f` and the selected property.

    The bad state for deadlock-freedom and liveness is `end` (a stuck,
    non-terminated chain); for safety it is an output whose payload sort
    clashes with p1's pending integer input, so the bad state violates the
    safe-state condition on outputs facing inputs.
    """
    n = len(f.prefix)
    m = len(f.clauses)
    if n < 1 or m < 1:
        raise SessionTypeError("need n >= 1 variables and m >= 1 clauses")
    variables = f.variables()
    pname = {v: f"p{i + 1}" for i, v in enumerate(variables)}
    parts = ["s"] + [f"p{i + 1}" for i in range(n)] + [f"r{i + 1}" for i in range(m + 1)]

    if prop == SAFETY:
        tbad: LocalT = TOut("p1", BOOL, TEnd())
    elif prop in (DF, LIVE):
        tbad = TEnd()
    else:
        raise ValueError(f"unknown property {prop!r}")

    entries: list[tuple[str, LocalT]] = []

    # controller
    entries.append(("s", TRec("t", TOut("p1", INT, TBra("p1", (
        ("doneno", tbad),
        ("doneyes", TVar("t")),
    ))))))

    # variable participants
    for i in range(1, n + 1):
        left = parts[i - 1]
        right = parts[i + 1]
        me = f"p{i}"
        quant = f.prefix[i - 1][0]
        resolve = "doneyes" if quant == "E" else "doneno"
        resolved = "doneno" if quant == "E" else "doneyes"

        def query_branches(mine_answer, back):
            out = [(f"query_{me}", TSel(right, ((mine_answer, back),)))]
            for j in range(1, n + 1):
                if j != i:
                    out.append(_query_relay(left, right, f"query_p{j}", back))
            return out

        t_true = TRec("t3", TBra(right, branches(
            query_branches("yes", TVar("t3")) + [
                ("doneno", TSel(left, (("doneno", TVar("t1")),))),
                ("doneyes", TSel(left, (("doneyes", TVar("t1")),))),
            ]
        )))
        t_false = TRec("t2", TBra(right, branches(
            query_branches("no", TVar("t2")) + [
                (resolve, TSel(left, ((resolve, TVar("t1")),))),
                (resolved, TOut(right, INT, t_true)),
            ]
        )))
        entries.append((me, TRec("t1", TIn(left, INT, TOut(right, INT, t_false)))))

    # clause participants
    for i in range(1, m + 1):
        left = parts[n + i - 1]
        right = parts[n + i + 1]
        me = f"r{i}"
        literals = f.clauses[i - 1]

        # clause = disjunction: a true literal reports doneyes at once, a
        # false one moves to the next literal, all-false reports doneno
        success = TSel(left, (("doneyes", TVar("t1")),))
        body: LocalT = TSel(left, (("doneno", TVar("t1")),))
        for v, pos in reversed(literals):
            yes_cont, no_cont = (success, body) if pos else (body, success)
            body = TSel(left, ((f"query_{pname[v]}", TBra(left, (
                ("no", no_cont),
                ("yes", yes_cont),
            ))),))

        relays = [
            _query_relay(left, right, f"query_p{j}", TVar("t2"))
            for j in range(1, n + 1)
        ]
        wait = TRec("t2", TBra(right, branches(relays + [
            ("doneno", TSel(left, (("doneno", TVar("t1")),))),
            ("doneyes", body),
        ])))
        entries.append((me, TRec("t1", TIn(left, INT, TOut(right, INT, wait)))))

    # terminal clause participant reports the empty conjunction: true
    last_left = parts[n + m]
    entries.append((f"r{m + 1}", TRec("t1", TIn(last_left, INT,
                                               TSel(last_left, (("doneyes", TVar("t1")),))))))

    return typing_context(entries)


def protocol_summary(f: QBF) -> str:
    n, m = len(f.prefix), len(f.clauses)
    lines = [
        f"QBF gadget for {show_qbf(f)}",
        f"participants: s, p1..p{n} (variables), r1..r{m + 1} (clauses)",
        "s queries p1 in a loop; p_i tries v_i = false then true and combines",
        "the subordinate answers per its quantifier; r_i asks the truth of",
        "clauses i..m, querying literal values through the chain;",
        f"r{m + 1} reports the empty conjunction (doneyes).",
    ]
    return "\n".join(lines)


def validate_reduction(f: QBF, prop: str, budget: int = 1_000_000) -> bool:
    """Checker verdict on the generated context == brute-force QBF truth."""
    want = eval_qbf(f)
    got = CHECKERS[prop](gen_qbf_context(f, prop), budget).holds
    return want == got


def all_small_qbfs(n: int, m: int = 1):
    """Exhaustive QBFs over n variables with m clauses: every quantifier
    pattern and every ordered literal (variable, sign) pattern."""
    variables = [f"v{i + 1}" for i in range(n)]
    lits = [(v, pos) for v in variables for pos in (True, False)]
    for quants in itertools.product("EA", repeat=n):
        prefix = tuple(zip(quants, variables))
        for clause_combo in itertools.combinations_with_replacement(
            itertools.product(lits, repeat=3), m
        ):
            yield QBF(prefix, tuple(tuple(cl) for cl in clause_combo))
