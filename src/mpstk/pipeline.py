"""Top-down and bottom-up verification pipelines on each process's minimum
type graph, quotiented by bisimulation and handed on as it is.  Top-down:
participants, then projection of the global type per participant, then
inference, then subtyping, accepting iff the roles are pt(G) and every
minimum graph is a subtype of the corresponding projection.  Bottom-up:
inference, then a model check of the LTS of the minimum graphs for the
requested property.

Both run their (name, step) pairs through one runner, `_run`, which times
every step the same way and stops at the first failure.  A failure's text
is made once, where it is raised or returned: an inference failure reaches
the pipeline as the `Untypable` that `infer` caught, never as text parsed
back.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .ast import (
    BOOL, FALSE, INACT, INT, NAT, TRUE,
    EInt, ENat, ENonDet, LocalT, PBra, PCond, PRec, PRecv, PSel, PSend, PVar,
    Proc, Session,
    TBra, TEnd, TIn, TOut, TRec, TVar, fold, participants, uniquify_binders,
)
from .context import CHECKERS, ContextLTS
from .inference import Untypable, infer
from .projection import NotBalanced, ProjUndefined, project
from .subtyping import subtype_sim_matching
from .typegraph import TypeGraph, quotient


def synth_process(t: LocalT) -> Proc:
    """A process realizing a local type: literals witness the payload sorts
    and a nondeterministic conditional chain drives multi-label selections."""

    def literal(u, env):
        if type(u) is not TOut:
            return None
        s = u.payload
        if s == BOOL:
            return TRUE
        if s == NAT:
            return ENat(1)
        if s == INT:
            return EInt(-1)
        raise ValueError(f"cannot synthesise a literal of sort {s}")

    def realize(t, kids, lit) -> Proc:
        if type(t) is TEnd:
            return INACT
        if type(t) is TVar:
            return PVar(t.var)
        if type(t) is TRec:
            return PRec(t.var, kids[0])
        if type(t) is TIn:
            return PRecv(t.peer, "x", kids[0])
        if type(t) is TOut:
            return PSend(t.peer, lit, kids[0])
        if type(t) is TBra:
            return PBra(t.peer, tuple(zip([l for l, _ in t.branches], kids)))
        arms = [PSel(t.peer, l, k) for (l, _), k in zip(t.branches, kids)]
        out = arms[-1]
        for arm in reversed(arms[:-1]):
            out = PCond(ENonDet(TRUE, FALSE), arm, out)
        return out

    return uniquify_binders(fold(t, realize, literal))


class StageReport(NamedTuple):
    name: str
    ok: bool
    detail: str = ""
    millis: float = 0.0


class PipelineReport(NamedTuple):
    accepted: bool
    stages: list[StageReport]

    def fail_reason(self) -> str:
        for s in self.stages:
            if not s.ok:
                return f"{s.name}: {s.detail}"
        return ""


def _run(stages) -> PipelineReport:
    """Run the (name, step) pairs in order, each timed the same way, until
    the first failure.  A step returns nothing when it succeeds, else the
    detail of its failure; ProjUndefined, NotBalanced and Untypable it
    raises give their text as the detail."""
    reports: list[StageReport] = []
    for name, step in stages:
        t0 = time.perf_counter()
        try:
            detail = step() or ""
        except (ProjUndefined, NotBalanced, Untypable) as e:
            detail = str(e)
        reports.append(StageReport(name, not detail, detail, (time.perf_counter() - t0) * 1000.0))
        if detail:
            return PipelineReport(False, reports)
    return PipelineReport(True, reports)


def _minima(sess: Session, budget: int) -> dict[str, TypeGraph]:
    """Each role's minimum type graph, quotiented by bisimulation, in name
    order; the first untypable role raises its failure, named by the role."""
    minima = {}
    for p, q in sess.roles:
        r = infer(q, budget)
        if not r.typable:
            raise Untypable(f"{p}: {r.error.reason}", r.error.node)
        minima[p] = quotient(r.graph)
    return minima


def run_topdown(sess: Session, g, kind: str = "full", budget: int = 1_000_000) -> PipelineReport:
    """kind: one of projection.KINDS.  `budget` bounds the subset
    construction, Tirore's check, each minimum type graph and each subtyping
    product."""
    pts: list[str] = []
    projections: dict[str, object] = {}
    minima: dict[str, TypeGraph] = {}

    def check_participants():
        pts.extend(sorted(participants(g)))
        roles = sorted(sess.mapping())
        if roles != pts:
            return f"session roles {roles} != pt(G) {pts}"

    def project_all():
        for p in pts:
            projections[p] = project(g, p, kind, budget)

    def subtype_all():
        # minimum graphs may carry residual sort variables; they must unify
        # with the projection's concrete sorts
        for p in pts:
            if not subtype_sim_matching(minima[p], projections[p], budget)[0]:
                return f"{p}: minimum type is not a subtype of the projection"

    return _run([("participants", check_participants),
                 ("projection", project_all),
                 ("inference", lambda: minima.update(_minima(sess, budget))),
                 ("subtyping", subtype_all)])


def run_bottomup(sess: Session, prop: str = "safety", budget: int = 1_000_000) -> PipelineReport:
    minima: dict[str, TypeGraph] = {}

    def check():
        if not CHECKERS[prop](ContextLTS(minima), budget).holds:
            return "property violated"

    return _run([("inference", lambda: minima.update(_minima(sess, budget))),
                 (f"check-{prop}", check)])
