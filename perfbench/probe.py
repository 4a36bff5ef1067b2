"""The speed probe: a fixed pure-Python computation timed beside the work.

The host's speed swings by half within a second or two and drifts over
minutes (other tenants share its cores), and mpstk's queries, which are
pure-Python searches, slow with it.  Timing the probe right before and
right after a piece of work gives the host's speed at that moment, and
`at_reference` scales the work's time to what it would be at the speed at
which the probe takes REFERENCE_S.  On a 2-core Xeon VM at 2.0 GHz this
cut the spread of repeated runs of the same seed from 7-16% to 2-3%.
"""

from __future__ import annotations

import gc

# The probe's time at the reference speed: about its fastest on a 2.0 GHz
# Xeon (family 6 model 143) VM, so scaled times read close to the wall
# times of that machine when nothing else runs on it.
REFERENCE_S = 0.0005


def probe() -> int:
    """About 0.5 ms of tuples, dict lookups, calls and recursion, the
    interpreter work mpstk's searches consist of.  Its footprint is small,
    so its time hardly depends on what the process allocated before: 600k
    live objects did not slow it, where a probe that built a graph of 800
    objects read 50% slower inside a worker than alone.  The collector is off while it runs, so the probe neither pays for nor
    triggers a collection of the work's objects."""
    memo = {}

    def walk(k, depth):
        if depth == 0:
            return (k,)
        key = (k, depth)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = (k, walk(k * 3 % 97, depth - 1), walk(k * 5 % 89, depth - 1))
        return hit

    enabled = gc.isenabled()
    gc.disable()
    try:
        out = 0
        for i in range(40):
            if i % 8 == 0:
                memo.clear()
            out += len(walk(i % 97, 6))
        return out
    finally:
        if enabled:
            gc.enable()


def at_reference(seconds: float, probe_s: float) -> float:
    """`seconds` of work, measured while the probe took `probe_s`, scaled
    to the reference speed."""
    return seconds * REFERENCE_S / probe_s
