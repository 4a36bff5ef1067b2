"""Workload inputs and the oracle checks on their answers.

This module runs in run.py's process, never in a timed
worker.  `make_batch(workload, seed, index, store)` returns the queries of
one batch: each is a job the worker executes (`job`) plus what the oracle
needs to check the answer (`check`, called with the worker's rendered
answer).  Inputs come only from `random.Random` streams seeded by the
workload name, the seed and the batch index, so the same seed gives the
same inputs in every process and under every PYTHONHASHSEED.

Every answer is checked against an oracle that is independent of the code
path that produced it: the QBF evaluator for the gadgets, the closed-form
counts of the worst-case families, the other subtyping decider, the
projection lattice (plain => full => subset and plain => Tirore =>
subset, with graph-equivalent results), the brute-force liveness checker
and the reduction semantics.
"""

from __future__ import annotations

import json
import math
import os
import random
from collections import Counter

from mpstk.ast import (
    GChoice, GMsg, GRec, is_closed, participants, session, size, typing_context,
)
from mpstk.context import BudgetExceeded as BRUTE_FORCE_BUDGET
from mpstk.context import (
    brute_force_liveness, check_deadlock_freedom, check_safety, reachable_graph,
)
from mpstk.hardness import eval_qbf, gen_qbf_context, show_qbf
from mpstk.inference import infer
from mpstk.parse import parse
from mpstk.pipeline import synth_process
from mpstk.printer import show, show_context
from mpstk.projection import (
    FULL, NotBalanced, ProjUndefined, project_inductive, project_subset,
    project_tirore,
)
from mpstk.semantics import explore_session
from mpstk.subtyping import graph_equiv, subtype_inductive, subtype_sim, subtype_sim_matching
from mpstk.typegraph import is_balanced

import gen

WORKLOADS = ("qbf-refute", "qbf-verify", "paper-families", "random-pipeline")

PROPS = ("safety", "df", "live")

# Queries per worker process.  Each batch is a fixed amount of work so that
# peak memory and memo sizes compare across commits; sized to run 1-3 s per
# batch on a 2-core x86 container.
BATCH_QUERIES = {"qbf-refute": 30, "qbf-verify": 48, "random-pipeline": 1200}

# Strata of the QBF gadgets: (variables, clauses, fewest, most reachable
# states), cycled through within a batch, each with every property in turn.
# A query's cost follows its gadget's state count, which varies five-fold
# between formulas of one shape; stratifying by it makes every batch the
# same mix, so runs on different seeds compare.
REFUTE_STRATA = (
    (2, 2, 20, 30), (2, 2, 25, 35), (2, 2, 30, 40), (2, 2, 35, 45), (2, 2, 25, 40),
    (3, 1, 20, 30), (3, 1, 25, 35), (3, 1, 30, 40), (3, 1, 35, 45), (3, 1, 25, 40),
)
VERIFY_STRATA = (
    (3, 1, 27, 43), (3, 1, 60, 80), (3, 2, 40, 60), (3, 2, 82, 108),
    (4, 1, 33, 52), (4, 1, 72, 98), (4, 2, 52, 78), (4, 2, 102, 128),
)

MAX_DRAWS = 20_000

# Fewest batches per run, so that every run has enough samples for a p90
# latency with ten samples beyond it.
MIN_BATCHES = {"qbf-refute": 4, "qbf-verify": 2, "paper-families": 4, "random-pipeline": 2}

# Seconds one pass over one batch took at the reference speed (probe.py)
# when the benchmark was defined.
PASS_S = {"qbf-refute": 0.86, "qbf-verify": 0.41, "paper-families": 0.29, "random-pipeline": 0.55}


def batch_count(workload: str, seconds: float, passes: int) -> int:
    """Batches a run times: as many as `passes` passes took about `seconds`
    over at the reference speed when the benchmark was defined, and at
    least MIN_BATCHES.  The count depends on nothing measured, so a seed
    names the same inputs on every machine and every commit."""
    return max(MIN_BATCHES[workload], round(seconds / (passes * PASS_S[workload])))

RANDOM_KINDS = (
    "project-plain", "project-full", "project-tbc", "project-subset",
    "infer", "subtype-sim", "subtype-inductive", "topdown",
    "bottomup-safety", "bottomup-df", "bottomup-live", "check-session",
)

# Inductive subtyping budget of the oracle, as the CLI's default.
ORACLE_BUDGET = 1_000_000


class Store:
    """Writes query inputs as files under one directory of the checkout."""

    def __init__(self, root: str):
        self.root = root
        self.count = 0
        os.makedirs(root, exist_ok=True)

    def put(self, text: str) -> str:
        self.count += 1
        path = os.path.join(self.root, f"in{self.count}.mpst")
        with open(path, "w") as fh:
            fh.write(text)
        return path


class Query:
    """One query: the worker job, the oracle, and for the mix summary its
    kind and the size of its input."""

    __slots__ = ("job", "check", "kind", "size")

    def __init__(self, job: dict, check, kind: str, size: int):
        self.job = job
        self.check = check  # answer text -> failure reason or None
        self.kind = kind
        self.size = size


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # str seeds hash through sha512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}/{index}")


def make_batch(workload: str, seed: int, index: int, store: Store) -> list[Query]:
    rng = _rng(workload, seed, index)
    if workload == "qbf-refute":
        return _qbf_batch(rng, store, want=False)
    if workload == "qbf-verify":
        return _qbf_batch(rng, store, want=True)
    if workload == "paper-families":
        return _family_batch(rng)
    if workload == "random-pipeline":
        return _random_batch(rng, store)
    raise ValueError(f"unknown workload {workload!r}")


def _expect(cond: bool, why: str):
    return None if cond else why


# ---------------------------------------------------------------------------
# QBF gadgets


def _qbf_batch(rng, store: Store, want: bool) -> list[Query]:
    strata = VERIFY_STRATA if want else REFUTE_STRATA
    n_queries = BATCH_QUERIES["qbf-verify" if want else "qbf-refute"]
    seen: set[str] = set()
    out = []
    for i in range(n_queries):
        prop = PROPS[i % len(PROPS)]
        n, m, lo, hi = strata[(i // len(PROPS)) % len(strata)]
        for _ in range(MAX_DRAWS):
            f = gen.rand_qbf(rng, n, m)
            text = show_qbf(f)
            if text in seen or eval_qbf(f) != want:
                continue
            ctx = gen_qbf_context(f, prop)
            states = len(reachable_graph(ctx).states)
            if lo <= states < hi:
                seen.add(text)
                break
        else:
            raise ValueError(f"no {want} QBF with {n} variables, {m} clauses and "
                             f"{lo}-{hi} {prop} states in {MAX_DRAWS} draws")
        kind = f"{'gen-qbf' if want else 'check-context'}-{prop}"
        if want:
            job = {"argv": ["--json", "gen", "qbf", "--formula", text,
                            "--prop", prop, "--validate"]}
            check = _check_verified
        else:
            path = store.put(show_context(ctx))
            job = {"argv": ["--json", "check-context", path, "--prop", prop, "--trace"]}
            check = _check_refuted
        out.append(Query(job, check, kind, states))
    return out


def _check_refuted(answer: str):
    """The formula is false, so the property fails, with a trace."""
    a = json.loads(answer)
    if a["holds"]:
        return "oracle:holds!=eval_qbf"
    return _expect(len(a.get("trace", ())) >= 1, "oracle:no-trace")


def _check_verified(answer: str):
    """The formula is true; `reduction_valid` says the checker agreed."""
    a = json.loads(answer)
    if a["qbf_true"] is not True:
        return "oracle:qbf_true!=eval_qbf"
    return _expect(a["reduction_valid"] is True, "oracle:holds!=eval_qbf")


# ---------------------------------------------------------------------------
# Worst-case families of the paper

COPRIME_PAIRS = ((47, 53), (49, 51), (50, 53), (51, 52), (53, 55), (52, 55))
PRIME_SETS = ((2, 3, 5, 7), (3, 5, 13), (2, 5, 19), (2, 7, 13), (2, 3, 31))
LCM_SETS = ((3, 5, 14), (5, 6, 7), (2, 3, 5, 7), (3, 7, 10), (2, 5, 21))


def _family_batch(rng) -> list[Query]:
    """One ladder: every family at three sizes.  The sizes are fixed where
    one step changes the cost several-fold and drawn from a narrow range
    elsewhere, so that no point dominates and ladders compare."""
    points = [
        *[("coprime", list(pair)) for pair in rng.sample(COPRIME_PAIRS, 3)],
        *[("exp-sim", k) for k in (8, 9, 10)],
        *[("inductive-blowup", k) for k in (1, 2, 3)],
        *[("plain-nlogn", n) for n in (4, 5, 6)],
        *[("fullmerge-quadratic", rng.randint(lo, lo + 15)) for lo in (100, 170, 235)],
        *[("fullmerge-nlog2", k) for k in (7, 8, 9)],
        *[("subset-primes", list(ps)) for ps in rng.sample(PRIME_SETS, 3)],
        *[("tirore", rng.randint(lo, lo + 5)) for lo in (60, 85, 110)],
        *[("lcm", list(ds)) for ds in rng.sample(LCM_SETS, 3)],
    ]
    rng.shuffle(points)
    return [Query({"family": f, "params": p}, _family_check(f, p), f"bench-{f}",
                  math.prod(p) if isinstance(p, list) else p)
            for f, p in points]


def family_input(family: str, params):
    """The AST a family point runs on, from the public generators; the
    worker calls this outside its timed region."""
    from mpstk.inference import gen_lcm_process
    from mpstk.projection import gen_lowerbound_family
    from mpstk.subtyping import gen_coprime_pair, gen_exponential_pair

    if family == "coprime":
        return gen_coprime_pair(*params)
    if family in ("exp-sim", "inductive-blowup"):
        return gen_exponential_pair(params)
    if family == "subset-primes":
        return gen_lowerbound_family("cf_primes", params)
    if family == "lcm":
        return gen_lcm_process(params)
    name = {"plain-nlogn": "plain_nlogn", "fullmerge-quadratic": "fullmerge_quadratic",
            "fullmerge-nlog2": "fullmerge_nlog2", "tirore": "tirore_quadratic"}[family]
    return gen_lowerbound_family(name, params)


# participant each projection family projects onto, as `mpstk bench` does
FAMILY_ROLE = {"plain-nlogn": "r", "fullmerge-quadratic": "p", "fullmerge-nlog2": "r",
               "subset-primes": "q", "tirore": "p"}


TIRORE_PROJECTION = parse("local", "rec t. q!(int); t")


def _family_check(family: str, params):
    def check(answer: str):
        a = json.loads(answer)
        if family == "coprime":
            return _expect(a["result"] and a["work"] == params[0] * params[1],
                           "oracle:product-nodes!=n1*n2")
        if family == "exp-sim":
            # T_k <= T_{k+1} holds for the whole family
            return _expect(a["result"] is True, "oracle:exp-family-verdict")
        if family == "inductive-blowup":
            return _expect(a["result"] == subtype_sim(*family_input(family, params)).result,
                           "oracle:inductive!=sim")
        if family == "subset-primes":
            return _expect(a["work"] == math.prod(params) + 2, "oracle:subset-states")
        if family == "lcm":
            return _expect(a["work"] == math.lcm(*params), "oracle:branch-cycle!=lcm")
        mine = parse("local", a["type"])
        if family == "tirore":
            # both branches project onto p as streams of q!(int); the
            # subset construction takes seconds on this family
            return _expect(graph_equiv(mine, TIRORE_PROJECTION), "oracle:tirore-projection")
        sub = project_subset(family_input(family, params), FAMILY_ROLE[family])
        return _expect(graph_equiv(mine, sub), "oracle:projection!=subset")
    return check


# ---------------------------------------------------------------------------
# Many small inputs through every subcommand


def _closed_local(rng, fuel):
    while True:
        t = gen.rand_local(rng, fuel)
        if is_closed(t):
            return parse("local", show(t))


def _has_msg(g) -> bool:
    if isinstance(g, GMsg):
        return True
    if isinstance(g, GChoice):
        return any(_has_msg(b) for _, b in g.branches)
    return isinstance(g, GRec) and _has_msg(g.body)


def _balanced_global(rng, fuel, label_only=False):
    while True:
        g = gen.rand_global(rng, fuel)
        if label_only and _has_msg(g):
            continue
        if is_closed(g) and len(participants(g)) >= 2 and is_balanced(g):
            return parse("global", show(g))


def _projectable_session(rng):
    """A balanced global type and the session synthesised from its full
    projections; half of them exchange labels only."""
    label_only = rng.random() < 0.5
    while True:
        g = _balanced_global(rng, 10, label_only)
        try:
            procs = [(p, synth_process(project_inductive(g, p, FULL)))
                     for p in sorted(participants(g))]
        except ProjUndefined:
            continue
        return g, parse("session", show(session(procs)))


def _project(g, p, algo):
    try:
        if algo == "subset":
            return project_subset(g, p)
        if algo == "tbc":
            return project_tirore(g, p)
        return project_inductive(g, p, algo)
    except (ProjUndefined, NotBalanced):
        return None


# the projection lattice: (weaker, stronger) pairs, both graph-equivalent
# when the weaker one is defined
LATTICE = (("plain", "full"), ("full", "subset"), ("plain", "tbc"), ("tbc", "subset"))


def _project_check(g, p, algo):
    def check(answer: str):
        a = json.loads(answer)
        mine = parse("local", a["type"]) if a["defined"] else None
        for lo, hi in LATTICE:
            if algo not in (lo, hi):
                continue
            lo_t = mine if lo == algo else _project(g, p, lo)
            hi_t = mine if hi == algo else _project(g, p, hi)
            if lo_t is not None and (hi_t is None or not graph_equiv(lo_t, hi_t)):
                return f"oracle:lattice-{lo}=>{hi}"
        return None
    return check


def _infer_check(t, proc):
    def check(answer: str):
        a = json.loads(answer)
        if not a["typable"]:
            return "oracle:synthesised-process-untypable"
        r = infer(proc)
        ok, _ = subtype_sim_matching(r.min_type, t)
        if not ok:
            return "oracle:min-type-not-below-source"
        return _expect(a["min_type"] == show(r.min_type), "oracle:min-type-differs")
    return check


def _subtype_check(t1, t2, algo):
    def check(answer: str):
        got = json.loads(answer)["result"]
        if algo == "sim":
            other = subtype_inductive(t1, t2, ORACLE_BUDGET).result
        else:
            other = subtype_sim(t1, t2).result
        return _expect(got == other, "oracle:sim!=inductive")
    return check


def _minima_context(sess):
    minima = {}
    for p, q in sess.roles:
        r = infer(q)
        if not r.typable:
            return None
        minima[p] = r.min_type
    return typing_context(minima.items())


def _brute_force_live(ctx, verdict: bool) -> bool:
    """The literal counterwitness search, where it is affordable: paths up
    to 6 steps, then 10 on disagreement (a bounded search can miss a longer
    counterwitness).  Past its step budget it is inconclusive and the
    verdict stands; the semantic check still applies."""
    for bound, budget in ((6, 1_000), (10, 20_000)):
        try:
            oracle = brute_force_liveness(ctx, bound=bound, budget=budget)
        except BRUTE_FORCE_BUDGET:
            return verdict
        if oracle == verdict:
            return oracle
    return oracle


def _session_check(sess, kind):
    """bottomup-*: a holding verdict must agree with the reduction
    semantics (and, for liveness, with the brute-force checker);
    check-session: error-free whenever the inferred context is safe."""

    def check(answer: str):
        a = json.loads(answer)
        if kind == "topdown":
            return _expect(a["accepted"], "oracle:topdown-rejects-own-projections")
        if kind == "check-session":
            ctx = _minima_context(sess)
            if ctx is not None and check_safety(ctx).holds and a["error_reached"]:
                return "oracle:safe-session-reached-error"
            if ctx is not None and check_deadlock_freedom(ctx).holds and a["stuck_nonterminal"]:
                return "oracle:df-session-stuck"
            return None
        prop = kind.split("-", 1)[1]
        if prop == "live":
            ctx = _minima_context(sess)
            if ctx is not None and a["accepted"] != _brute_force_live(ctx, a["accepted"]):
                return "oracle:live!=brute-force"
        if not a["accepted"]:
            return None
        rep = explore_session(sess)
        if prop == "safety":
            return _expect(not rep.error_reached, "oracle:safe-session-reached-error")
        return _expect(not rep.stuck_nonterminal, "oracle:df-session-stuck")
    return check


def _random_batch(rng, store: Store) -> list[Query]:
    out = []
    seen: set[str] = set()
    per_kind = BATCH_QUERIES["random-pipeline"] // len(RANDOM_KINDS)
    for _ in range(per_kind):
        for kind in RANDOM_KINDS:
            while True:
                texts, check, n, flags = _random_input(rng, kind)
                if not seen.intersection(texts):
                    break
            seen.update(texts)
            verb = kind if kind == "check-session" else kind.partition("-")[0]
            argv = ["--json", verb, *map(store.put, texts), *flags]
            out.append(Query({"argv": argv}, check, kind, n))
    return out


def _random_input(rng, kind):
    """A fresh input for `kind`: its file texts, oracle, size and flags.
    The batch redraws any input whose text an earlier query used, so no
    file is answered twice in one process."""
    variant = kind.partition("-")[2]
    if kind.startswith("project-"):
        g = _balanced_global(rng, 10)
        p = rng.choice(sorted(participants(g)))
        return ([show(g)], _project_check(g, p, variant), size(g),
                ["--role", p, "--algo", variant])
    if kind == "infer":
        t = _closed_local(rng, 9)
        proc = parse("process", show(synth_process(t)))
        return [show(proc)], _infer_check(t, proc), size(proc), []
    if kind.startswith("subtype-"):
        while True:
            t1, t2 = gen.rand_local_pair(rng, 8)
            if is_closed(t1) and is_closed(t2):
                break
        t1, t2 = parse("local", show(t1)), parse("local", show(t2))
        return ([show(t1), show(t2)], _subtype_check(t1, t2, variant),
                size(t1) + size(t2), ["--algo", variant])
    g, sess = _projectable_session(rng)
    check = _session_check(sess, kind)
    if kind == "topdown":
        return [show(sess), show(g)], check, size(g), ["--kind", "full"]
    if kind == "check-session":
        return [show(sess)], check, size(g), []
    return [show(sess)], check, size(g), ["--prop", variant]


def outcome(answer: str) -> str:
    """The verdict of a rendered answer, for the mix summary."""
    a = json.loads(answer)
    for key in ("holds", "result", "defined", "typable", "accepted", "reduction_valid"):
        if key in a:
            return f"{key}={a[key]}"
    if "error_reached" in a:
        return f"error_reached={a['error_reached']}"
    return "answered"
