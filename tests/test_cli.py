"""CLI smoke tests: exit codes, JSON output, file plumbing."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mpstk.bench import FAMILIES
from mpstk.cli import main
from mpstk.context import check_liveness, check_safety
from mpstk.parse import parse

GOLDEN = Path(__file__).parent / "golden" / "check_context"

G_IF = "rec t. q->r{l1: r->p{l1: t}, l2: r->p{l2: end}}"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def test_parse_ok(files, capsys):
    f = files("t.mpst", "rec t. p+{l1: t, l2: end}")
    assert main(["parse", "local", f]) == 0
    assert "rec t" in capsys.readouterr().out


def test_parse_context(files, capsys):
    """A context prints, with its size: each entry plus one, and the comma."""
    f = files("c.ctx", "q: end, p: q!(int); end")
    assert main(["--json", "parse", "context", f]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pretty"] == "p: q!(int); end, q: end" and out["size"] == 6


def test_python_m_mpstk(files):
    """`python -m mpstk` runs the same frontend as the `mpstk` script."""
    f = files("t.mpst", "rec t. p+{l1: t, l2: end}")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-m", "mpstk", "parse", "local", f],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "rec t. p+{l1: t, l2: end}"


def test_parse_20000_deep_local_type(files):
    """A 20,000-deep chain of outputs parses and prints (exit 0)."""
    f = files("deep.mpst", "p!(int); " * 20_000 + "end")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-m", "mpstk", "parse", "local", f],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.count("p!(int); ") == 20_000


def test_parse_error_exit_code(files, capsys):
    f = files("bad.mpst", "rec t. t")
    assert main(["parse", "local", f]) == 2


def test_unreadable_input_is_an_input_error(tmp_path, capsys):
    """A directory or a missing file exits 2 with one error line."""
    for path in (str(tmp_path), str(tmp_path / "missing.mpst")):
        assert main(["parse", "local", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_input_is_read_as_utf8_in_any_locale(tmp_path):
    """Files and stdin decode as UTF-8 under the C locale too: `é` is the
    parser's bad character, not the codec's, and `٣` is a number."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "LANG")}
    env.update(PYTHONPATH=src, LC_ALL="C", PYTHONUTF8="0")
    for category, text, code, out in (
            ("local", "p!(int); é end", 2, "unexpected character '\\xe9' (at offset 9)"),
            ("process", "q!<٣>; 0", 0, "q!<3>; 0")):
        f = tmp_path / "t.mpst"
        f.write_bytes(text.encode("utf-8"))
        for path in (str(f), "-"):
            run = subprocess.run([sys.executable, "-m", "mpstk", "parse", category, path],
                                 env=env, input=f.read_bytes(), capture_output=True, timeout=60)
            assert run.returncode == code, run.stderr
            assert out in (run.stdout if code == 0 else run.stderr).decode("ascii")


def test_file_and_stdin_give_the_same_offsets(tmp_path):
    """A file's newlines are read as they are, as stdin's are: the `\r` of
    a CRLF counts in the offset either way."""
    f = tmp_path / "t.mpst"
    f.write_bytes(b"p!(int);\r\n$end")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for path in (str(f), "-"):
        run = subprocess.run([sys.executable, "-m", "mpstk", "parse", "local", path],
                             env=env, input=f.read_bytes(), capture_output=True, timeout=60)
        assert run.returncode == 2
        assert b"unexpected character '$' (at offset 10)" in run.stderr


def test_untypable_is_said_once(files, capsys):
    """`infer` and the pipelines' inference stage say "untypable" once."""
    p = files("p.mpst", "p?(x); p!<x + 1>; 0")
    sess = files("s.sess", "q::p?(x); p!<x + 1>; 0 | p::q!<1>; q?(y); 0")
    g = files("g.mpst", "p->q(int); q->p(int); end")
    reason = "untypable: sorts nat and int forced equal\n"
    assert main(["infer", p]) == 1
    assert capsys.readouterr().out == reason
    stage = "inference: untypable: q: sorts nat and int forced equal\n"
    assert main(["bottomup", sess, "--prop", "safety"]) == 1
    assert capsys.readouterr().out == "violated or untypable: " + stage
    assert main(["topdown", sess, g]) == 1
    assert capsys.readouterr().out == "rejected: " + stage


def test_subtype_json(files, capsys):
    a = files("a.mpst", "rec t. p+{l1: p+{l1: t}, l2: end}")
    b = files("b.mpst", "rec t. p+{l1: t, l2: end}")
    assert main(["--json", "subtype", a, b, "--algo", "sim", "--stats"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"] is True and out["nodes_visited"] >= 1
    assert main(["subtype", b, a]) == 1  # not a subtype


def test_subtype_inductive(files, capsys):
    a = files("a.mpst", "end")
    b = files("b.mpst", "end")
    assert main(["--json", "subtype", a, b, "--algo", "inductive"]) == 0
    assert json.loads(capsys.readouterr().out)["judgements"] == 1


def test_project_all_algos(files, capsys):
    g = files("g.mpst", G_IF)
    assert main(["project", g, "--role", "p", "--algo", "plain"]) == 1
    assert main(["project", g, "--role", "p", "--algo", "full"]) == 0
    assert main(["project", g, "--role", "p", "--algo", "tbc"]) == 1
    assert main(["--json", "project", g, "--role", "p", "--algo", "subset"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["defined"] and out["graph_nodes"] >= 2


def test_project_dot(files, tmp_path, capsys):
    g = files("g.mpst", G_IF)
    dot = str(tmp_path / "out.dot")
    assert main(["project", g, "--role", "p", "--algo", "full", "--dot", dot]) == 0
    assert "digraph" in open(dot).read()


def test_infer(files, capsys):
    f = files("p.mpst", "rec X. p?(x); p!<x>; X")
    assert main(["--json", "infer", f, "--emit-constraints"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["typable"] and out["min_type"].startswith("rec")
    bad = files("bad.mpst", "p(+)l; if false then p!<1>; 0 else p?(x); 0")
    assert main(["infer", bad]) == 1


def test_check_context(files, capsys):
    f = files("d7.mpst",
              "q: rec t. p?(int); t, p: rec t. q!(int); t,"
              " r: s?(bool); end, s: r!(int); end")
    assert main(["check-context", f, "--prop", "df"]) == 0
    assert main(["check-context", f, "--prop", "safety", "--trace"]) == 1
    assert main(["--json", "check-context", f, "--prop", "live", "--oracle"]) == 1
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["holds"] is False and out["oracle"] is False


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("prop", ["safety", "df", "live"])
def test_check_context_trace_golden(prop, fmt, capsys):
    """Pinned `check-context --trace` output, text and --json: a false QBF
    gadget (`A x. (x | x | x)`) for safety and df, and a fair-lasso
    liveness violation."""
    argv = ["check-context", str(GOLDEN / f"{prop}.ctx"), "--prop", prop, "--trace"]
    if fmt == "json":
        argv.insert(0, "--json")
    assert main(argv) == 1
    assert capsys.readouterr().out == (GOLDEN / f"{prop}.{fmt}").read_text()


def _highlighted(dot_path) -> set[int]:
    text = open(dot_path).read()
    return {int(n) for n in re.findall(r"^  n(\d+) \[.*fillcolor=lightblue", text, re.M)}


def test_check_context_dot_marks_trace_states(files, tmp_path, capsys):
    # States 0 and 2 differ only in p's node, `rec t. q!; q!; t` or its
    # one-step unfolding, which print the same; only state 0 is on the trace.
    text = ("a: b!(int); b!(bool); end, b: a?(int); a?(int); end,"
            " p: rec t. q!(int); q!(int); t, q: rec t. p?(int); t")
    dot = str(tmp_path / "out.dot")
    assert main(["check-context", files("c.mpst", text), "--prop", "safety", "--dot", dot]) == 1
    v = check_safety(parse("context", text))
    lts, states = v.graph.lts, v.graph.states
    assert lts.show_state(states[0]) == lts.show_state(states[2])
    assert v.trace.states() == [0, 1]
    assert _highlighted(dot) == {0, 1}

    live = str(GOLDEN / "live.ctx")
    assert main(["check-context", live, "--prop", "live", "--dot", dot]) == 1
    v = check_liveness(parse("context", open(live).read()))
    assert v.trace.cycle_start is not None
    assert _highlighted(dot) == set(v.trace.states())


def test_subtype_inductive_budget_exit_code(files, capsys):
    a = files("a.mpst", "rec t. p!(int); p!(int); t")
    b = files("b.mpst", "rec t. p!(int); t")
    assert main(["--budget", "1", "subtype", a, b, "--algo", "inductive"]) == 3
    assert "budget exceeded" in capsys.readouterr().err


def test_project_subset_honours_budget(files, capsys):
    """The subset construction counts its 8 closure states plus Skip."""
    g = files("g.mpst", "p->r{l0: rec t. p->q{a: p->q{a: t}, b: end}, "
                        "l1: rec u. p->q{a: p->q{a: p->q{a: u}}, b: end}}")
    assert main(["--budget", "9", "project", g, "--role", "q", "--algo", "subset"]) == 0
    assert main(["--budget", "8", "project", g, "--role", "q", "--algo", "subset"]) == 3
    assert "budget exceeded" in capsys.readouterr().err


def test_infer_honours_budget(files, capsys):
    f = files("p.mpst", "rec X. p?(x); p!<x>; X")  # a minimum graph of 2 nodes
    assert main(["--budget", "2", "infer", f]) == 0
    assert main(["--budget", "1", "infer", f]) == 3
    assert "budget exceeded" in capsys.readouterr().err


def test_check_session(files):
    ok = files("s.mpst", "p::q!<1>; 0 | q::p?(x); 0")
    assert main(["check-session", ok]) == 0
    bad = files("s2.mpst", "p::q(+)l; 0 | q::p&{m: 0}")
    assert main(["check-session", bad]) == 1


def test_check_session_rejects_a_depth_below_one(files, capsys):
    s = files("s5.mpst", "p::q(+)l; 0 | q::p&{m: 0}")  # the first step errs
    for depth in ("0", "-1"):
        assert main(["check-session", s, "--depth", depth]) == 2
        assert "depth must be at least 1" in capsys.readouterr().err
    assert main(["check-session", s, "--depth", "1"]) == 1


def test_check_session_honours_budget(files, capsys):
    s = files("s3.mpst", "p::q!<0>; rec X. q?(y); q!<y + (1 (+) 2)>; X"
                         " | q::rec Y. p?(z); p!<z>; Y")
    assert main(["check-session", s, "--depth", "50"]) == 0
    assert main(["--budget", "10", "check-session", s, "--depth", "50"]) == 3
    assert "budget exceeded" in capsys.readouterr().err


def test_budget_below_one_is_an_input_error(files, capsys):
    """A budget of 0 or less would stop every search at its first state."""
    c = files("c.ctx", "p: q!(int); end, q: p?(int); end")
    for value in ("0", "-1"):
        with pytest.raises(SystemExit) as e:
            main(["--budget", value, "check-context", c, "--prop", "safety"])
        assert e.value.code == 2
        assert f"budget must be at least 1, got {value}" in capsys.readouterr().err
    assert main(["--budget", "1", "check-context", c, "--prop", "safety"]) == 3
    assert main(["--budget", "2", "check-context", c, "--prop", "safety"]) == 0


def test_liveness_oracle_honours_budget(files, capsys):
    """One state with two self-loops: the oracle's paths double per step."""
    c = files("loop.ctx", "p: rec t. q+{a: t, b: t}, q: rec u. p&{a: u, b: u}")
    oracle = ["check-context", c, "--prop", "live", "--oracle", "--oracle-bound", "6"]
    assert main(oracle) == 0
    assert "oracle: live" in capsys.readouterr().out
    assert main(["--budget", "10", *oracle]) == 3
    assert "budget exceeded" in capsys.readouterr().err


def test_liveness_oracle_rejects_a_bound_below_one(files, capsys):
    """A bound of 0 sees no lasso, so it would call this non-live context live."""
    c = files("c.ctx", "p: rec v. q+{l1: v, l4: v}, q: rec v. p&{l1: v, l4: v}, r: p?(int); end")
    for bound in ("0", "-1"):
        assert main(["check-context", c, "--prop", "live", "--oracle", "--oracle-bound", bound]) == 2
        assert "oracle bound must be at least 1" in capsys.readouterr().err
    assert main(["check-context", c, "--prop", "live", "--oracle", "--oracle-bound", "2"]) == 1
    assert capsys.readouterr().out.endswith("oracle: not live\n")


def test_subtype_sim_honours_budget(files, capsys):
    """Coprime cycles of 3 and 4 inputs: 12 product nodes."""
    a = files("a.mpst", "rec t. p?(int); p?(int); p?(int); t")
    b = files("b.mpst", "rec t. p?(int); p?(int); p?(int); p?(int); t")
    assert main(["--budget", "12", "subtype", a, b]) == 0
    assert main(["--budget", "11", "subtype", a, b]) == 3
    assert "more than 11 product nodes" in capsys.readouterr().err


def test_project_tbc_honours_budget(files, capsys):
    """tirore_quadratic(3): Tirore's check walks 16 pairs."""
    g = files("g.mpst", "q->r{l1: rec u. p->q(int); p->q(int); p->q(int); u, "
                        "l2: rec v. p->q(int); p->q(int); p->q(int); p->q(int); v}")
    assert main(["--budget", "16", "project", g, "--role", "p", "--algo", "tbc"]) == 0
    assert main(["--budget", "15", "project", g, "--role", "p", "--algo", "tbc"]) == 3
    assert "more than 15 product nodes" in capsys.readouterr().err


def test_full_projection_through_a_treap_as_deep_as_it_is_wide(files, capsys):
    """1,200 labels k<r>x<s>, s the least suffix whose crc32 falls in the
    r-th of 1,200 equal bands of 2**32: their treap priorities rise in
    label order, so the full merge's treap is a chain 1,200 deep.  The
    projection prints, and equals the subset construction's."""
    from mpstk.projection import _prio, project_subset
    from mpstk.subtyping import graph_equiv

    labels = (Path(__file__).parent / "golden" / "treap_chain_labels.txt").read_text().split()
    assert len(labels) == 1_200 and labels == sorted(labels)
    assert [_prio(l) for l in labels] == sorted(_prio(l) for l in labels)
    body = ", ".join(f"{l}: end" for l in labels)
    src = f"p->q{{l1: r->s{{{body}}}, l2: r->s{{{body}}}}}"
    assert main(["project", files("g.mpst", src), "--role", "s", "--algo", "full"]) == 0
    full = parse("local", capsys.readouterr().out)
    assert graph_equiv(full, project_subset(parse("global", src), "s"))


def test_topdown_and_bench_honour_the_product_budget(files, capsys):
    """p's one-node minimum type against its 5-cycle projection: 5 product
    nodes; the coprime 3x4 and tirore 3 points walk 12 and 16."""
    s = files("s.mpst", "p::rec X. q!<1>; X | q::rec Y. p?(x); Y")
    g = files("g.mpst", "rec t. " + "p->q(nat); " * 5 + "t")
    assert main(["--budget", "5", "topdown", s, g]) == 0
    assert main(["--budget", "4", "topdown", s, g]) == 3
    assert "more than 4 product nodes" in capsys.readouterr().err
    for family, point in (("coprime", "3x4"), ("tirore", "3")):
        assert main(["--budget", "11", "bench", "--family", family, "--params", point]) == 0
        assert capsys.readouterr().out.split()[-1] == "budget"


def test_check_session_stuck_operand_is_an_error(files, capsys):
    """The condition true \\/ (1 + true) cannot be evaluated, so p steps to
    the error state and never to its then branch."""
    s = files("s4.mpst", "p::if true \\/ (1 + true) then q!<1>; 0 else 0 | q::0")
    assert main(["--json", "check-session", s, "--depth", "3"]) == 1
    assert capsys.readouterr().out == (
        '{"error_reached": true, "stuck_nonterminal": false, "states": 2, "steps": 1}\n')


def test_gen_qbf_validate_builds_and_evaluates_once(monkeypatch, capsys):
    import mpstk.cli as cli
    import mpstk.hardness as hardness

    calls = []
    for mod in (cli, hardness):
        for name in ("gen_qbf_context", "eval_qbf"):
            fn = getattr(hardness, name)
            monkeypatch.setattr(mod, name, lambda *a, fn=fn, n=name: calls.append(n) or fn(*a))
    for formula, prop, code in [("A x. E y. (x | ~y | y)", "live", 0),
                                ("A x. (x | x | x)", "df", 0)]:
        calls.clear()
        assert main(["gen", "qbf", "--formula", formula, "--prop", prop, "--validate"]) == code
        assert sorted(calls) == ["eval_qbf", "gen_qbf_context"]
    assert capsys.readouterr().out.count("reduction valid: True") == 2


def test_gen_qbf(capsys):
    assert main(["gen", "qbf", "--formula", "E x. (x | x | x)",
                 "--prop", "safety", "--validate"]) == 0
    assert main(["--json", "gen", "qbf", "--formula", "A x. (x | x | x)",
                 "--prop", "df"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["qbf_true"] is False


def test_gen_qbf_past_the_oracle_limit(capsys):
    """The gadget is polynomial, the truth oracle exponential: past the
    oracle's 20 variables the gadget is still printed, its truth unknown,
    unless --validate needs the truth."""
    formula = " ".join(f"E x{i}." for i in range(21)) + " (x0 | x1 | x2)"
    assert main(["--json", "gen", "qbf", "--formula", formula, "--prop", "safety"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["qbf_true"] is None and out["participants"]
    assert main(["gen", "qbf", "--formula", formula, "--prop", "safety", "--validate"]) == 2
    assert "QBF oracle limited to 20 variables" in capsys.readouterr().err


def test_topdown_bottomup(files):
    g = files("g.mpst", G_IF)
    sess = files(
        "sess.mpst",
        "p::rec X. r&{l1: X, l2: 0}"
        " | q::rec X. if true (+) false then r(+)l1; X else r(+)l2; 0"
        " | r::rec X. q&{l1: p(+)l1; X, l2: p(+)l2; 0}",
    )
    assert main(["topdown", sess, g, "--kind", "full"]) == 0
    assert main(["topdown", sess, g, "--kind", "plain"]) == 1
    assert main(["--budget", "2", "topdown", sess, g, "--kind", "subset"]) == 3
    assert main(["bottomup", sess, "--prop", "safety"]) == 0
    assert main(["bottomup", sess, "--prop", "live"]) == 0


def test_subset_projection_rejects_a_global_where_p_may_end(files, capsys):
    """In branches l1 and l3, p never acts; the subset construction must not
    answer p's action from l4 alone, and top-down must not accept the session
    synthesised from that answer, which gets stuck."""
    g = files("g.mpst", "r->q{l1: end, l3: q->r{l1: end}, l4: r->p{l3: end}}")
    assert main(["project", g, "--role", "p", "--algo", "subset"]) == 1
    out = capsys.readouterr().out
    assert "r&{l3: end}" not in out and "mixed end and communication heads" in out
    sess = files("s.mpst", "p::r&{l3: 0} | q::r&{l1: 0, l3: r(+)l1; 0, l4: 0}"
                           " | r::if true (+) false then q(+)l1; 0"
                           " else if true (+) false then q(+)l3; q&{l1: 0} else q(+)l4; p(+)l3; 0")
    assert main(["check-session", sess]) == 1
    assert main(["topdown", sess, g, "--kind", "subset"]) == 1


def test_bench_csv(tmp_path, capsys):
    out = str(tmp_path / "bench.csv")
    assert main(["bench", "--family", "coprime", "--params", "3x4,5x7",
                 "--out", out]) == 0
    rows = open(out).read().strip().splitlines()
    assert rows[0] == "family,n,size,time_ns,work,outcome"
    assert rows[1].split(",")[4] == "12"
    assert rows[2].split(",")[4] == "35"


def test_graph_command(files, capsys):
    f = files("t.mpst", "rec t. p+{l1: t, l2: end}")
    assert main(["graph", f, "--category", "local"]) == 0
    assert "digraph" in capsys.readouterr().out


def test_bench_csv_deterministic_modulo_time(tmp_path):
    out1, out2 = str(tmp_path / "b1.csv"), str(tmp_path / "b2.csv")
    for out in (out1, out2):
        assert main(["bench", "--family", "lcm", "--params", "2x3,2x3x5",
                     "--out", out]) == 0

    def strip_time(path):
        rows = [r.split(",") for r in open(path).read().strip().splitlines()]
        return [r[:3] + r[4:] for r in rows]

    assert strip_time(out1) == strip_time(out2)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_bench_params_out_of_range_exit_cleanly(family):
    """Every bench family answers or rejects 0 and -1 with an input error;
    none raises through main."""
    for bad in ("0", "-1"):
        assert main(["bench", "--family", family, f"--params={bad}"]) in (0, 2)


@pytest.mark.parametrize("family,bad,domain", [
    ("fullmerge-nlog2", "-1", "n must be >= 0"),
    ("tirore", "0", "n must be >= 1"),
    ("live-tautology", "0", "n must be >= 1"),
])
def test_bench_params_out_of_range_name_the_domain(family, bad, domain, capsys):
    assert main(["bench", "--family", family, f"--params={bad}"]) == 2
    assert domain in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["0", "3x4x5"])
def test_bench_coprime_points_name_the_form(bad, capsys):
    assert main(["bench", "--family", "coprime", "--params", bad]) == 2
    assert f"coprime points are n1xn2, not {bad}" in capsys.readouterr().err


@pytest.mark.parametrize("family,params,message", [
    ("lcm", "3x", "lcm points are d1xd2x..., not 3x"),
    ("lcm", "2,,3", "lcm points are d1xd2x..., not an empty point"),
    ("plain-nlogn", "", "plain-nlogn points are n, not an empty point"),
    ("coprime", "2xa", "coprime points are n1xn2, not 2xa"),
    ("tirore", "1.5", "tirore points are n, not 1.5"),
])
def test_bench_malformed_points_name_the_form(family, params, message, capsys):
    """A point that is not numbers in the family's form exits 2 naming the
    family, the form and the point, not int()'s message."""
    assert main(["bench", "--family", family, f"--params={params}"]) == 2
    assert f"error: {message}\n" == capsys.readouterr().err


def test_topdown_bottomup_json_stages(files, capsys):
    """Both pipelines print {"accepted", "stages"}, each stage as {name, ok,
    detail, millis}, naming the stages they ran, in order."""
    g = files("g.mpst", G_IF)
    sess = files(
        "sess.mpst",
        "p::rec X. r&{l1: X, l2: 0}"
        " | q::rec X. if true (+) false then r(+)l1; X else r(+)l2; 0"
        " | r::rec X. q&{l1: p(+)l1; X, l2: p(+)l2; 0}",
    )
    runs = [
        (["topdown", sess, g, "--kind", "full"], 0,
         ["participants", "projection", "inference", "subtyping"]),
        (["topdown", sess, g, "--kind", "plain"], 1, ["participants", "projection"]),
        (["bottomup", sess, "--prop", "live"], 0, ["inference", "check-live"]),
        (["bottomup", files("u.mpst", "p::q!<1>; 0 | q::p?(x); p!<x>; 0"), "--prop", "df"], 1,
         ["inference", "check-df"]),
    ]
    for argv, code, names in runs:
        assert main(["--json", *argv]) == code
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"accepted", "stages"} and out["accepted"] is (code == 0)
        assert [s["name"] for s in out["stages"]] == names
        for s in out["stages"]:
            assert set(s) == {"name", "ok", "detail", "millis"}
            assert type(s["ok"]) is bool and type(s["detail"]) is str
            assert type(s["millis"]) is float
        assert [s["ok"] for s in out["stages"]] == [True] * (len(names) - code) + [False] * code
