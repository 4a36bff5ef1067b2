"""Every CLI call ends in a documented exit code.

About 600 in-process calls of `cli.main` on seeded random inputs and on
mutations of them (a truncation, or one to three characters inserted or
deleted), through every subcommand that reads an input file, with and
without --json.  Each call must return 0 (holds), 1 (violation), 2 (input
error) or 3 (budget); no exception may escape.
"""

import random

from conftest import rand_context, rand_global, rand_local, rand_process
from mpstk.ast import session
from mpstk.cli import main
from mpstk.printer import show

CALLS = 600
NOISE = "pqrz;:.,{}()<>!?&+-|~ 0123456789abdeilnrtx'"


def _mutate(rng, text):
    if rng.random() < 0.3:
        return text[:rng.randrange(len(text) + 1)]
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        if i < len(chars) and rng.random() < 0.5:
            del chars[i]
        else:
            chars.insert(i, rng.choice(NOISE))
    return "".join(chars)


def _context(rng):
    ctx = rand_context(rng)
    return show(ctx) if ctx is not None else "p: q!(int); end, q: p?(int); end"


INPUTS = {
    "local": lambda rng: show(rand_local(rng, rng.randint(1, 8))),
    "global": lambda rng: show(rand_global(rng, rng.randint(1, 8))),
    "process": lambda rng: show(rand_process(rng, rng.randint(1, 8))),
    "session": lambda rng: show(session(
        [(p, rand_process(rng, rng.randint(1, 6), peers=[q for q in "pqr" if q != p]))
         for p in rng.sample("pqr", rng.randint(1, 3))])),
    "context": _context,
}

# (the categories of the input files, the arguments after them)
COMMANDS = (
    [(("local", "local"), ["subtype", 0, 1, "--algo", a]) for a in ("sim", "inductive")]
    + [(("global",), ["project", 0, "--role", r, "--algo", a])
       for a in ("plain", "full", "tbc", "subset") for r in "pqz"]
    + [(("process",), ["infer", 0])]
    + [(("context",), ["check-context", 0, "--trace", "--prop", p])
       for p in ("safety", "df", "live")]
    + [(("session", "global"), ["topdown", 0, 1])]
    + [(("session",), ["bottomup", 0, "--prop", p]) for p in ("safety", "df", "live")]
    + [(("session",), ["check-session", 0])]
    + [(("global",), ["graph", 0, "--category", "global"])]
    + [((c,), ["parse", c, 0]) for c in ("context", "session")]
)


def test_every_call_exits_with_a_documented_code(tmp_path, capsys):
    rng = random.Random(31)
    codes = set()
    for n in range(CALLS):
        cats, args = COMMANDS[n % len(COMMANDS)]
        paths = []
        for i, cat in enumerate(cats):
            text = INPUTS[cat](rng)
            if rng.random() < 0.5:
                text = _mutate(rng, text)
            path = tmp_path / f"in{i}.mpst"
            path.write_text(text)
            paths.append(str(path))
        argv = ["--budget", "20000"] + (["--json"] if rng.random() < 0.5 else [])
        argv += [paths[a] if type(a) is int else a for a in args]
        code = main(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        codes.add(code)
        capsys.readouterr()
    assert {0, 1, 2} <= codes
