"""Top-down and bottom-up verification pipelines on each process's minimum
type graph, quotiented by bisimulation and handed on as it is.  Top-down:
project the global type per participant and accept iff every minimum graph
is a subtype of the corresponding projection (plus the participant-set side
condition).  Bottom-up: model-check the LTS of the minimum graphs directly
for the requested property.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

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


@dataclass
class StageReport:
    name: str
    ok: bool
    detail: str = ""
    millis: float = 0.0


@dataclass
class PipelineReport:
    accepted: bool
    stages: list[StageReport] = field(default_factory=list)

    def fail_reason(self) -> str:
        for s in self.stages:
            if not s.ok:
                return f"{s.name}: {s.detail}"
        return ""


def _timed(report: PipelineReport, name: str, fn):
    t0 = time.perf_counter()
    try:
        out = fn()
        ok, detail = True, ""
    except (ProjUndefined, NotBalanced, Untypable) as e:
        out, ok, detail = None, False, str(e)
    ms = (time.perf_counter() - t0) * 1000.0
    report.stages.append(StageReport(name, ok, detail, ms))
    return out, ok


def _minima(sess: Session, budget: int) -> dict[str, TypeGraph]:
    """Each role's minimum type graph, quotiented by bisimulation, in name
    order; the first untypable role raises."""
    minima = {}
    for p, q in sess.roles:
        r = infer(q, budget)
        if not r.typable:
            raise Untypable(f"{p}: {r.failure.removeprefix('untypable: ')}")
        minima[p] = quotient(r.graph)
    return minima


def run_topdown(sess: Session, g, kind: str = "full", budget: int = 1_000_000) -> PipelineReport:
    """kind: one of projection.KINDS.  `budget` bounds the subset
    construction, Tirore's check, each minimum type graph and each subtyping
    product."""
    report = PipelineReport(accepted=False)
    roles = dict(sess.roles)
    pts = participants(g)
    if set(roles) != set(pts):
        report.stages.append(StageReport(
            "participants", False,
            f"session roles {sorted(roles)} != pt(G) {sorted(pts)}"))
        return report
    report.stages.append(StageReport("participants", True))

    projections: dict[str, object] = {}

    def project_all():
        for p in sorted(pts):
            projections[p] = project(g, p, kind, budget)
        return projections

    _, ok = _timed(report, "projection", project_all)
    if not ok:
        return report

    minima, ok = _timed(report, "inference", lambda: _minima(sess, budget))
    if not ok:
        return report

    def subtype_all():
        # minimum graphs may carry residual sort variables; they must unify
        # with the projection's concrete sorts
        for p in sorted(pts):
            ok, _ = subtype_sim_matching(minima[p], projections[p], budget)
            if not ok:
                raise Untypable(
                    f"{p}: minimum type is not a subtype of the projection")
        return True

    _, ok = _timed(report, "subtyping", subtype_all)
    report.accepted = ok
    return report


def run_bottomup(sess: Session, prop: str = "safety", budget: int = 1_000_000) -> PipelineReport:
    report = PipelineReport(accepted=False)
    minima, ok = _timed(report, "inference", lambda: _minima(sess, budget))
    if not ok:
        return report

    t0 = time.perf_counter()
    verdict = CHECKERS[prop](ContextLTS(minima), budget)
    ms = (time.perf_counter() - t0) * 1000.0
    report.stages.append(StageReport(f"check-{prop}", verdict.holds,
                                     "" if verdict.holds else "property violated", ms))
    report.accepted = verdict.holds
    return report
