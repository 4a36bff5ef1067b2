"""The trimmed fair-cycle search against the untrimmed one it replaced.

`_FairCycles` trims every barb's starting set in one bit-parallel pass
before it refines any; `_Untrimmed`, kept here as the reference, refines
each barb's whole starting set.  A trimmed state lies on no cycle inside
its set, so on every barb both must give the same core, in the same
order, the same starving component and member, and so the same liveness
verdict and trace.
"""

import random
from collections import Counter
from functools import reduce
from operator import or_

import pytest

from conftest import rand_context, rand_fair_context
from mpstk import context
from mpstk.context import check_liveness, reachable_graph


class _Untrimmed(context._FairCycles):
    """The reference search: `core` splits the barb's whole starting set,
    as the search did before the trim."""

    def core(self, barb):
        k = self.observed.get(barb, 0)
        start = tuple(i for i, m in enumerate(self.enabled) if not m & k)
        if start in self._cores:
            return self._cores[start]
        core = self._cores[start] = []
        work = [list(start)]
        while work:
            for comp in self._split(work.pop()):
                inside = set(comp)
                internal = reduce(or_, (1 << k for i in comp for k, j in self.out[i]
                                        if j in inside), 0)
                if not internal:
                    continue
                keep = [i for i in comp if not self.enabled[i] & ~internal]
                if len(keep) == len(comp):
                    core.extend(comp)
                elif keep:
                    work.append(keep)
        return core


@pytest.fixture(scope="module")
def corpus():
    """2,000 contexts of `rand_context` and 2,000 of the fair-biased
    `rand_fair_context`, seeded."""
    rng = random.Random(17)
    out = []
    while len(out) < 2_000:
        ctx = rand_context(rng, rng.choice([5, 6, 7]))
        if ctx is not None:
            out.append(ctx)
    out.extend(rand_fair_context(rng) for _ in range(2_000))
    return out


def _trace(v):
    t = v.trace
    return v.holds, None if t is None else (t.steps, t.final, t.cycle_start)


def test_trimmed_search_equals_untrimmed(corpus, monkeypatch):
    seen = Counter()
    for ctx in corpus:
        rg = reachable_graph(ctx)
        fair, ref = context._FairCycles(rg), _Untrimmed(rg)
        assert fair.members == {
            b: [i for i, s in enumerate(rg.states) if b in rg.lts.barbs(s)]
            for b in set().union(*map(rg.lts.barbs, rg.states))}
        lasso = False
        for barb in sorted(fair.members, key=str):
            found = fair.starving(barb)
            assert found == ref.starving(barb)
            core = fair.core(barb)
            assert core == ref.core(barb)
            lasso = lasso or found is not None
            seen.update(barbs=1, cores=bool(core), starving=found is not None)
        seen.update(contexts=1, lassos=lasso)
    assert seen["contexts"] >= 2_000 and seen["lassos"] >= 200
    assert seen == Counter(contexts=4_000, lassos=963, barbs=14_012, cores=1_493, starving=963)

    verdicts = [_trace(check_liveness(ctx)) for ctx in corpus]
    monkeypatch.setattr(context, "_FairCycles", _Untrimmed)
    assert verdicts == [_trace(check_liveness(ctx)) for ctx in corpus]
