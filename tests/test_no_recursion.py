"""No function of mpstk recurses, except where its depth is bounded.

Every walk over an AST goes through `ast.fold`, which keeps its own stack,
so no input is too deep for the interpreter's recursion limit.  This lint
parses each module of `src/mpstk`, builds its call graph over calls by bare
name and `self.` method calls, and fails on any cycle outside ALLOWED, and
on an entry of ALLOWED that lies on no cycle.
A call through an attribute of another object, `super()` included, is not
followed.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mpstk"

# (module, function) -> why its depth is bounded
ALLOWED = {
    ("hardness", "eval_qbf.go"): "one level per quantified variable, at most _limit (20)",
    ("context", "brute_force_liveness.dfs"): "one level per step, at most `bound`",
}


def _own_nodes(fn):
    """The nodes of a function's body, outside the functions nested in it."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _call_graph(tree: ast.Module) -> dict[str, set[str]]:
    """Qualified function name -> the qualified names it calls.  A bare name
    resolves to a function nested in an enclosing function, or else to a
    module-level one, unless a parameter shadows it."""
    graph: dict[str, set[str]] = {}

    def scan(body, prefix: str, cls: str | None, visible: dict[str, str]):
        defs = [n for n in body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        if cls is None:
            visible = {**visible, **{f.name: prefix + f.name for f in defs}}
        for node in body:
            if isinstance(node, ast.ClassDef):
                scan(node.body, f"{prefix}{node.name}.", node.name, visible)
        for fn in defs:
            name = prefix + fn.name
            params = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
            nested = [n for n in _own_nodes(fn) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
            inner = {k: v for k, v in visible.items() if k not in params}
            inner.update({f.name: f"{name}.{f.name}" for f in nested})
            graph[name] = set()
            for node in _own_nodes(fn):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if isinstance(f, ast.Name) and f.id in inner:
                    graph[name].add(inner[f.id])
                elif (cls is not None and isinstance(f, ast.Attribute)
                      and isinstance(f.value, ast.Name) and f.value.id == "self"):
                    graph[name].add(f"{cls}.{f.attr}")
            scan(nested, f"{name}.", None, inner)

    scan(tree.body, "", None, {})
    return graph


def _cycles(graph: dict[str, set[str]]) -> set[str]:
    """The functions that lie on a cycle of the call graph."""
    on_cycle = set()
    for start in graph:
        seen, stack = set(), list(graph[start])
        while stack:
            f = stack.pop()
            if f == start:
                on_cycle.add(start)
                break
            if f in seen or f not in graph:
                continue
            seen.add(f)
            stack.extend(graph[f])
    return on_cycle


def recursive_functions() -> set[tuple[str, str]]:
    out = set()
    for path in sorted(SRC.glob("*.py")):
        graph = _call_graph(ast.parse(path.read_text()))
        out |= {(path.stem, f) for f in _cycles(graph)}
    return out


def test_only_bounded_functions_recurse():
    found = recursive_functions()
    assert found - ALLOWED.keys() == set(), sorted(found - ALLOWED.keys())


def test_every_allowed_function_recurses():
    stale = ALLOWED.keys() - recursive_functions()
    assert stale == set(), sorted(stale)


def test_the_lint_finds_recursion():
    graph = _call_graph(ast.parse(
        "def f(x):\n    return f(x)\n\n"
        "def g(x):\n    def h(y):\n        return h(y)\n    return h(x)\n\n"
        "def a(x):\n    return b(x)\n\ndef b(x):\n    return a(x)\n\n"
        "class C:\n    def m(self):\n        return self.m()\n\n"
        "    def __init__(self):\n        super().__init__()\n\n"
        "def p(fn):\n    return fn(1)\n\ndef fn(x):\n    return p(x)\n"))
    assert _cycles(graph) == {"f", "g.h", "a", "b", "C.m"}


def test_importing_mpstk_keeps_the_recursion_limit():
    code = ("import sys; before = sys.getrecursionlimit(); import mpstk, mpstk.cli; "
            "print(before, sys.getrecursionlimit())")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout.split()
    assert out[0] == out[1]
