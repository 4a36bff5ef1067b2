"""Command-line frontend.

Subcommands: parse, subtype, project, infer, check-context, check-session,
gen qbf, topdown, bottomup, bench, graph.  Exit codes: 0 accept/holds,
1 reject/violation, 2 input error, 3 budget or timeout.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import context as ctx_mod
from .ast import BudgetExceeded, SessionTypeError, size
from .bench import CSV_COLUMNS, FAMILIES, bench_family, read_params, write_csv
from .context import brute_force_liveness
from .hardness import eval_qbf, gen_qbf_context, parse_qbf, protocol_summary
from .inference import infer, show_constraint
from .parse import parse
from .pipeline import run_bottomup, run_topdown
from .printer import show, show_context, show_local
from .projection import KINDS, NotBalanced, ProjUndefined, project
from .semantics import explore_session
from .subtyping import subtype_inductive, subtype_sim
from .typegraph import dot_global_graph, dot_type_graph, global_graph, graph_text, local_graph

OK, REJECT, INPUT_ERROR, BUDGET = 0, 1, 2, 3


def budget(text: str) -> int:
    """A `--budget` value: an integer of at least 1 (argparse exits 2 on
    any other)."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"budget must be at least 1, got {n}")
    return n


def _read(path: str) -> str:
    # a file, or stdin for "-", is UTF-8 whatever the locale, its newlines
    # kept as they are, so that both give the same offsets
    if path == "-":
        return sys.stdin.buffer.read().decode("utf-8")
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def _emit(args, payload: dict, text: str):
    if args.json:
        print(json.dumps(payload, default=str))
    else:
        print(text)


def cmd_parse(args) -> int:
    ast = parse(args.category, _read(args.file))
    _emit(args, {"ok": True, "category": args.category, "pretty": show(ast),
                 "size": size(ast)}, show(ast))
    return OK


def cmd_subtype(args) -> int:
    t1 = parse("local", _read(args.file_a))
    t2 = parse("local", _read(args.file_b))
    if args.algo == "sim":
        r = subtype_sim(t1, t2, args.budget)
        payload = {"result": r.result, "nodes_visited": r.nodes_visited,
                   "edges_visited": r.edges_visited}
        text = f"{'subtype' if r.result else 'not a subtype'}"
        if args.stats:
            text += f" (nodes={r.nodes_visited}, edges={r.edges_visited})"
    else:
        r = subtype_inductive(t1, t2, budget=args.budget)
        payload = {"result": r.result, "judgements": r.judgements}
        text = f"{'subtype' if r.result else 'not a subtype'}"
        if args.stats:
            text += f" (judgements={r.judgements})"
    _emit(args, payload, text)
    return OK if r.result else REJECT


def cmd_project(args) -> int:
    g = parse("global", _read(args.file))
    try:
        t = project(g, args.role, args.algo, args.budget)
    except (ProjUndefined, NotBalanced) as e:
        _emit(args, {"defined": False, "reason": str(e)}, f"undefined: {e}")
        return REJECT
    if args.algo == "subset":  # a type graph, well-formed by construction
        payload = {"defined": True, "type": graph_text(t, t.init),
                   "graph_nodes": len(t.real_nodes())}
    else:
        payload = {"defined": True, "type": show_local(t)}
    if args.dot:
        graph = t if args.algo == "subset" else local_graph(t)
        with open(args.dot, "w") as fh:
            fh.write(dot_type_graph(graph, f"projection onto {args.role}"))
    _emit(args, payload, payload["type"])
    return OK


def cmd_infer(args) -> int:
    p = parse("process", _read(args.file))
    r = infer(p, args.budget)
    payload = {"typable": r.typable}
    if args.emit_constraints:
        payload["constraints"] = [show_constraint(c) for c in r.derivation.constraints]
    if r.typable:
        payload["min_type"] = graph_text(r.graph, r.graph.init)
        if args.dot:
            with open(args.dot, "w") as fh:
                fh.write(dot_type_graph(r.graph, "minimum type graph"))
        _emit(args, payload, payload["min_type"])
        return OK
    payload["failure"] = r.failure
    if r.failure_node:
        payload["failure_node"] = sorted(r.failure_node)
    _emit(args, payload, r.failure)  # Untypable's message, which says "untypable: "
    return REJECT


def cmd_check_context(args) -> int:
    ctx = parse("context", _read(args.file))
    v = ctx_mod.CHECKERS[args.prop](ctx, args.budget)
    if args.dot:
        marked = set(v.trace.states()) if v.trace is not None else set()
        with open(args.dot, "w") as fh:
            fh.write(ctx_mod.dot_context_graph(v.graph, marked))
    payload = {"prop": args.prop, "holds": v.holds, "states": v.states, "edges": v.edges}
    lines = [f"{args.prop}: {'holds' if v.holds else 'violated'} "
             f"({v.states} states, {v.edges} edges)"]
    if args.oracle and args.prop == "live":
        oracle = brute_force_liveness(ctx, args.oracle_bound, args.budget)
        payload["oracle"] = oracle
        lines.append(f"oracle: {'live' if oracle else 'not live'}")
    if v.trace is not None and args.trace:
        shown = v.trace.rendered()  # one string per state, final last
        labels = [str(lab) for _, lab in v.trace.steps]
        cycle_start = v.trace.cycle_start
        payload["trace"] = [{"context": text, "label": lab} for text, lab in zip(shown, labels)]
        payload["cycle_start"] = cycle_start
        for i, (text, lab) in enumerate(zip(shown, labels)):
            marker = " (cycle)" if cycle_start is not None and i >= cycle_start else ""
            lines.append(f"  {text}  --[{lab}]-->{marker}")
        lines.append(f"  {shown[-1]}")
    _emit(args, payload, "\n".join(lines))
    return OK if v.holds else REJECT


def cmd_check_session(args) -> int:
    sess = parse("session", _read(args.file))
    rep = explore_session(sess, args.depth, args.budget)
    payload = {
        "error_reached": rep.error_reached,
        "stuck_nonterminal": rep.stuck_nonterminal,
        "states": rep.states,
        "steps": rep.steps,
    }
    ok = not rep.error_reached and not rep.stuck_nonterminal
    _emit(args, payload,
          f"errors: {rep.error_reached}, stuck non-inact: {rep.stuck_nonterminal}, "
          f"states: {rep.states}")
    return OK if ok else REJECT


def cmd_gen(args) -> int:
    f = parse_qbf(args.formula)
    ctx = gen_qbf_context(f, args.prop)
    text = show_context(ctx)
    try:
        truth = eval_qbf(f)
    except SessionTypeError:  # past the exponential oracle's limit: unknown
        if args.validate:
            raise
        truth = None
    payload = {"context": text, "participants": ctx.participants(), "qbf_true": truth}
    lines = [text, "", protocol_summary(f)]
    if args.validate:
        ok = ctx_mod.CHECKERS[args.prop](ctx, args.budget).holds == payload["qbf_true"]
        payload["reduction_valid"] = ok
        lines.append(f"reduction valid: {ok}")
        _emit(args, payload, "\n".join(lines))
        return OK if ok else REJECT
    _emit(args, payload, "\n".join(lines))
    return OK


def _emit_pipeline(args, rep, accepted: str, rejected: str) -> int:
    """A pipeline report: its stages in JSON, else the verdict text."""
    payload = {"accepted": rep.accepted,
               "stages": [{"name": s.name, "ok": s.ok, "detail": s.detail,
                           "millis": round(s.millis, 3)} for s in rep.stages]}
    _emit(args, payload, accepted if rep.accepted else f"{rejected}: {rep.fail_reason()}")
    return OK if rep.accepted else REJECT


def cmd_topdown(args) -> int:
    sess = parse("session", _read(args.session))
    g = parse("global", _read(args.global_file))
    return _emit_pipeline(args, run_topdown(sess, g, args.kind, args.budget),
                          "accepted", "rejected")


def cmd_bottomup(args) -> int:
    sess = parse("session", _read(args.session))
    return _emit_pipeline(args, run_bottomup(sess, args.prop, args.budget),
                          "holds", "violated or untypable")


def cmd_bench(args) -> int:
    records = bench_family(args.family, read_params(args.family, args.params), budget=args.budget)
    if args.out:
        write_csv(records, args.out)
    print("\t".join(CSV_COLUMNS))
    for r in records:
        print("\t".join(map(str, r)))
    return OK


def cmd_graph(args) -> int:
    t = parse(args.category, _read(args.file))
    dot = (dot_type_graph(local_graph(t)) if args.category == "local"
           else dot_global_graph(global_graph(t)))
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(dot)
    else:
        print(dot)
    return OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mpstk", description=__doc__)
    ap.add_argument("--json", action="store_true", help="JSON output")
    ap.add_argument("--budget", type=budget, default=1_000_000,
                    help="state/judgement budget")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("parse")
    p.add_argument("category", choices=["local", "global", "expr", "process", "session", "context"])
    p.add_argument("file")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("subtype")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--algo", choices=["sim", "inductive"], default="sim")
    p.add_argument("--stats", action="store_true")
    p.set_defaults(fn=cmd_subtype)

    p = sub.add_parser("project")
    p.add_argument("file")
    p.add_argument("--role", required=True)
    p.add_argument("--algo", choices=KINDS, default="full")
    p.add_argument("--dot")
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("infer")
    p.add_argument("file")
    p.add_argument("--emit-constraints", action="store_true")
    p.add_argument("--dot")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("check-context")
    p.add_argument("file")
    p.add_argument("--prop", choices=list(ctx_mod.CHECKERS), required=True)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--oracle-bound", type=int, default=8)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--dot", help="write the reachable context graph")
    p.set_defaults(fn=cmd_check_context)

    p = sub.add_parser("check-session")
    p.add_argument("file")
    p.add_argument("--depth", type=int, default=12)
    p.set_defaults(fn=cmd_check_session)

    p = sub.add_parser("gen")
    p.add_argument("what", choices=["qbf"])
    p.add_argument("--formula", required=True)
    p.add_argument("--prop", choices=list(ctx_mod.CHECKERS), default="safety")
    p.add_argument("--validate", action="store_true")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("topdown")
    p.add_argument("session")
    p.add_argument("global_file")
    p.add_argument("--kind", choices=KINDS, default="full")
    p.set_defaults(fn=cmd_topdown)

    p = sub.add_parser("bottomup")
    p.add_argument("session")
    p.add_argument("--prop", choices=list(ctx_mod.CHECKERS), default="safety")
    p.set_defaults(fn=cmd_bottomup)

    p = sub.add_parser("bench")
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.add_argument("--params", required=True,
                   help="comma-separated points; coprime: 3x4,5x7; lcm: 2x3,2x3x5")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("graph")
    p.add_argument("file")
    p.add_argument("--category", choices=["local", "global"], default="local")
    p.add_argument("--dot")
    p.set_defaults(fn=cmd_graph)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return BUDGET
    except (SessionTypeError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
