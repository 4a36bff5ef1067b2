"""Tests of the benchmark itself, on short runs.

    python3 -m pytest perfbench -q

They check that inputs are a function of the seed, that the oracles accept
the answers of this checkout and reject a wrong one, that every query
comes with the probe time around it, that every work counter and state
count of a traced run is identical under different PYTHONHASHSEED values,
that the per-layer self times add up to the traced query time, and that
the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_mpstk()

from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS, Store, make_batch  # noqa: E402

# a prefix of batch 0 per workload: every query kind, a second or two each
SHORT = {"qbf-refute": 6, "qbf-verify": 12, "paper-families": 18, "random-pipeline": 96}


def short_batch(workload, seed, tmp_path):
    return make_batch(workload, seed, 0, Store(str(tmp_path / workload)))[:SHORT[workload]]


def traced(queries, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    return run.run_worker(queries, trace=True, env=env)


def _inputs(queries):
    """The jobs with each input file replaced by its text."""
    def text(arg):
        if os.path.isfile(arg):
            with open(arg) as fh:
                return fh.read()
        return arg
    return [{**q.job, "argv": [text(a) for a in q.job.get("argv", ())]} for q in queries]


def test_inputs_follow_the_seed(tmp_path):
    for w in WORKLOADS:
        a = _inputs(short_batch(w, 5, tmp_path / "a"))
        assert a == _inputs(short_batch(w, 5, tmp_path / "b"))
        assert a != _inputs(short_batch(w, 6, tmp_path / "c"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_exact_across_hash_seeds(workload, tmp_path):
    queries = short_batch(workload, 3, tmp_path)
    runs = [traced(queries, h) for h in (0, 4242)]
    counts = [{k: v for k, v in r["layers"].items() if not k.endswith("_s")} for r in runs]
    assert counts[0] == counts[1]
    assert runs[0]["memo_entries"] == runs[1]["memo_entries"]
    for r in runs:
        assert len(r["probe_s"]) == len(queries) and min(r["probe_s"]) > 0
        failures, mix = Counter(), Counter()
        assert run.check_answers(queries, r, failures, mix) == 0, failures
        layers = r["layers"]
        attributed = sum(layers.get(f"{layer}.self_s", 0) for layer in LAYERS)
        total = attributed + layers["trace.unattributed_s"]
        assert math.isclose(total, layers["trace.query_s"], rel_tol=1e-9)


def test_oracle_rejects_wrong_answers(tmp_path):
    refute = short_batch("qbf-refute", 1, tmp_path)[0]
    answer = json.dumps({"holds": True, "states": 1, "edges": 0})
    assert refute.check(answer) == "oracle:holds!=eval_qbf"
    families = short_batch("paper-families", 1, tmp_path)
    coprime = next(q for q in families if q.job["family"] == "coprime")
    assert coprime.check(json.dumps({"result": True, "work": 1})) is not None
    subset = next(q for q in families if q.job["family"] == "subset-primes")
    assert subset.check(json.dumps({"work": 3})) == "oracle:subset-states"


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90, 90.0)
    assert run.tail([float(i) for i in range(1, 20)]) == (100, 19.0)
    assert run.tail([float(i) for i in range(1, 1011)])[0] == 99


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qbf-refute", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
