"""Spans around the calls into each layer of mpstk, for the traced run.

`install()` replaces the named public functions with plain wrappers
wherever their callers look them up: in every `mpstk` module namespace,
in module-level dispatch tables (such as the property-checker dicts) and
in the worker's own namespace.  Methods are replaced on their class.  A
function missing from the code under test is skipped, so its metrics
read 0; so does a count whose result field is gone.

Each wrapped call records a span (name, start, end, parent span, query
id).  A call whose innermost open span has the same name (direct
recursion, or one printer function calling another) runs unwrapped, so a
layer's recursion costs one span.  Self time is a span's duration minus
the durations of its child spans; the per-query root span's self time is
the time no layer covers.  Counts are read from the result objects the
wrapped functions return.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

LAYERS = ("parse", "printer", "ast", "typegraph", "subtyping", "projection",
          "inference", "context", "hardness", "semantics", "pipeline")


def _parse_chars(counts, args, kwargs, r):
    text = args[1] if len(args) > 1 else kwargs.get("text", "")
    counts["parse.chars"] += len(text)


def _graph_nodes(counts, args, kwargs, r):
    counts["typegraph.graph_nodes"] += r.node_count()


def _product_nodes(counts, args, kwargs, r):
    counts["subtyping.product_nodes"] += r.nodes_visited


def _judgements(counts, args, kwargs, r):
    counts["subtyping.judgements"] += r.judgements


def _merge_ops(counts, args, kwargs, r):
    counter = args[3] if len(args) > 3 else kwargs.get("counter")
    if counter is not None:
        counts["projection.merge_ops"] += counter.ops


def _subset_states(counts, args, kwargs, r):
    counts["projection.subset_states"] += len(r.real_nodes())


def _inference(counts, args, kwargs, r):
    counts["inference.constraints"] += len(r.derivation.constraints)
    if r.graph is not None:
        counts["inference.min_graph_nodes"] += len(r.graph.real_nodes())


def _verdict(counts, args, kwargs, r):
    counts["context.states"] += r.states
    counts["context.edges"] += r.edges
    if r.trace is not None:
        counts["context.trace_steps"] += len(r.trace.steps)


def _semantic_states(counts, args, kwargs, r):
    counts["semantics.states"] += r.states


_PRINTERS = ("show", "show_local", "show_global", "show_context", "show_session",
             "show_process", "show_expr")

# (module, attribute, span name, hook reading counts from the result)
TARGETS = [
    ("mpstk.parse", "parse", "parse", _parse_chars),
    *[("mpstk.printer", name, "printer", None) for name in _PRINTERS],
    ("mpstk.ast", "alpha_canon", "ast.alpha_canon", None),
    ("mpstk.typegraph", "local_graph", "typegraph.local_graph", _graph_nodes),
    ("mpstk.typegraph", "graph_to_type", "typegraph.graph_to_type", None),
    ("mpstk.typegraph", "global_graph", "typegraph.global_graph", None),
    ("mpstk.typegraph", "is_balanced", "typegraph.is_balanced", None),
    ("mpstk.subtyping", "subtype_sim", "subtyping.sim", _product_nodes),
    ("mpstk.subtyping", "subtype_inductive", "subtyping.inductive", _judgements),
    ("mpstk.subtyping", "subtype_sim_matching", "subtyping.sim_matching", None),
    ("mpstk.projection", "project_inductive", "projection.inductive", _merge_ops),
    ("mpstk.projection", "project_tirore", "projection.tirore", None),
    ("mpstk.projection", "project_subset", "projection.subset", _subset_states),
    ("mpstk.inference", "infer", "inference.infer", _inference),
    ("mpstk.context", "check_safety", "context.check", _verdict),
    ("mpstk.context", "check_deadlock_freedom", "context.check", _verdict),
    ("mpstk.context", "check_liveness", "context.check", _verdict),
    ("mpstk.context", "reachable_graph", "context.reachable_graph", None),
    ("mpstk.context", "ContextLTS.context_of", "context.context_of", None),
    ("mpstk.hardness", "gen_qbf_context", "hardness.gen_qbf_context", None),
    ("mpstk.hardness", "eval_qbf", "hardness.eval_qbf", None),
    ("mpstk.hardness", "parse_qbf", "hardness.parse_qbf", None),
    ("mpstk.hardness", "protocol_summary", "hardness.protocol_summary", None),
    ("mpstk.hardness", "validate_reduction", "hardness.validate_reduction", None),
    ("mpstk.semantics", "explore_session", "semantics.explore_session", _semantic_states),
    ("mpstk.pipeline", "run_topdown", "pipeline.topdown", None),
    ("mpstk.pipeline", "run_bottomup", "pipeline.bottomup", None),
]

# called too often for a span each: counted only
COUNTED = [("mpstk.context", "ContextLTS.sync_steps", "context.sync_steps.calls")]

MEMOS = [("mpstk.ast", "_fv_memo"), ("mpstk.ast", "_unfold_memo"),
         ("mpstk.ast", "_canon_memo"), ("mpstk.subtyping", "_unfold1_memo")]


def memo_entries() -> int:
    """Entries in the process-global memo tables of the ast layer."""
    return sum(len(getattr(sys.modules.get(m), name, ())) for m, name in MEMOS)


class Tracer:
    def __init__(self):
        self.spans: list = []    # (name, start, end, parent index, query id)
        self.open: list = []     # (span index, name) of the open spans
        self.counts: Counter = Counter()
        self.query = -1

    def wrap(self, name, fn, hook=None):
        spans, opened, counts, clock = self.spans, self.open, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            if opened and opened[-1][1] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = opened[-1][0] if opened else -1
            opened.append((idx, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                opened.pop()
                spans[idx] = (name, start, end, parent, self.query)
            if hook is not None:
                try:
                    hook(counts, args, kwargs, result)
                except AttributeError:  # result no longer has the field
                    pass
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self, extra_namespaces=()):
        """Wrap every target that exists in the loaded code."""
        for module, attr, name, hook in TARGETS:
            self._replace(module, attr, lambda fn, n=name, h=hook: self.wrap(n, fn, h),
                          extra_namespaces)
        for module, attr, name in COUNTED:
            self._replace(module, attr, lambda fn, n=name: self.count(n, fn), extra_namespaces)

    def _replace(self, module, attr, make, extra_namespaces):
        mod = sys.modules.get(module)
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        fn = getattr(owner, fn_name, None)
        if fn is None:
            return
        wrapped = make(fn)
        if owner_name:
            setattr(owner, fn_name, wrapped)
            return
        namespaces = [vars(m) for name, m in list(sys.modules.items())
                      if name == "mpstk" or name.startswith("mpstk.")]
        namespaces += list(extra_namespaces)
        for ns in namespaces:
            for key, value in list(ns.items()):
                if value is fn:
                    ns[key] = wrapped
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is fn:
                            value[k] = wrapped

    def metrics(self) -> dict:
        """Calls and self time per span name, self time per layer, the
        counts, and the root spans' totals."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            self_s = end - start - child[i]
            if parent < 0:
                out["trace.query_s"] += end - start
                out["trace.unattributed_s"] += self_s
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            layer = name.split(".", 1)[0]
            if layer != name:
                out[f"{layer}.self_s"] += self_s
        out["trace.spans"] = len(self.spans)
        out.update(self.counts)
        return dict(out)
