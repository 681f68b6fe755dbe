"""Monte Carlo gates for the grained rule: TV to the nearest m-grained
distribution, at the value level and through the projection lift.

Every case runs 400 trials and must keep a Wilson low of at least 2/3 on
its expected verdict.  The far value-level instance is certified by
``tv_to_grained`` at exactly e, the proximity it is tested at.  The
shipped ``grained_samples`` was calibrated on this suite: the success
counters take other constants and a seed salt, so it can be rerun at other
values on seeds other than the gate's (salt 0).
"""

import tracemalloc

import numpy as np
import pytest

from probedist.constants import DEFAULT_CONSTANTS
from probedist.core import BilledOracle, FiniteDistribution, new_rng
from probedist.generators import (
    code_lift,
    hadamard_code,
    inside_outside_mixture,
    uniform_random_subset,
)
from probedist.harness import wilson_interval
from probedist.std_testers import GrainedInner, tv_to_grained
from probedist.testers import grained_tester, uniformity_tester

TRIALS = 400


def _value_weights(shape: str, m: int, e: float) -> np.ndarray:
    if shape == "uniform":
        return np.full(m, 1.0 / m)
    if shape == "double":  # (2, 1, ..., 1) / m on m - 1 values
        return np.array([2.0] + [1.0] * (m - 2)) / m
    return np.where(np.arange(m) % 2 == 0, 1.0 + 2.0 * e, 1.0 - 2.0 * e) / m  # alternating


VALUE_CASES = [
    (shape, m, e)
    for shape in ("uniform", "double", "alternating")
    for m in (2, 4, 8, 16)
    for e in (0.25, 0.125)
]


def value_level_successes(shape, m, e, constants=DEFAULT_CONSTANTS, trials=TRIALS, salt=0):
    """Trials of ``GrainedInner.decide`` on direct draws that give the
    expected verdict: accept for the grained shapes, reject otherwise."""
    inner = GrainedInner(m, constants)
    weights = _value_weights(shape, m, e)
    s = inner.sample_count(e)
    rng = new_rng([m, round(1 / e), VALUE_CASES.index((shape, m, e)), salt])
    want = shape != "alternating"
    return sum(
        inner.decide(rng.choice(weights.size, size=s, p=weights), e) == want
        for _ in range(trials)
    )


def _codewords(k: int, weighted_messages) -> FiniteDistribution:
    msgs = [format(i, f"0{k}b") for i, _ in weighted_messages]
    total = sum(w for _, w in weighted_messages)
    p = FiniteDistribution(atoms=[(msg, w / total) for msg, (_, w) in zip(msgs, weighted_messages)])
    return code_lift(hadamard_code(k), p)


_MIXTURE_STRINGS = ["000011110101", "111100001010", "001100110011", "110011001100"]

# name -> (tester, source builder, m, eps, expected verdict)
LIFT_CASES = {
    "grained-4-codewords": (grained_tester, lambda: _codewords(7, [(1, 2), (2, 1), (3, 1)]),
                            4, 0.5, True),
    "grained-8-codewords": (grained_tester,
                            lambda: _codewords(6, [(1, 3), (2, 2), (3, 1), (4, 1), (5, 1)]),
                            8, 0.5, True),
    "uniformity-4-random": (uniformity_tester,
                            lambda: uniform_random_subset(13, n=64, m=4, min_distance=0.2),
                            4, 0.5, True),
    "uniformity-8-codewords": (uniformity_tester,
                               lambda: _codewords(6, [(i, 1) for i in range(1, 9)]),
                               8, 0.5, True),
    "uniformity-mixture": (uniformity_tester, lambda: inside_outside_mixture(_MIXTURE_STRINGS),
                           4, 0.4, False),
}


def lift_successes(name, constants=DEFAULT_CONSTANTS, trials=TRIALS, salt=0):
    tester, build, m, eps, want = LIFT_CASES[name]
    p = build()
    return sum(
        tester(BilledOracle([p], seed=[salt, s]), m=m, eps=eps, seed=[salt, s],
               constants=constants).accepted == want
        for s in range(trials)
    )


def test_alternating_instance_is_certified_at_e():
    for m in (2, 4, 8, 16):
        for e in (0.25, 0.125):
            counts = np.rint(_value_weights("alternating", m, e) * m * 8).astype(np.int64)
            assert tv_to_grained(counts, m) == e


@pytest.mark.parametrize("shape,m,e", VALUE_CASES)
def test_value_level(shape, m, e):
    hits = value_level_successes(shape, m, e)
    assert wilson_interval(hits, TRIALS)[0] >= 2 / 3, f"{hits} / {TRIALS}"


@pytest.mark.parametrize("name", sorted(LIFT_CASES))
def test_through_the_lift(name):
    hits = lift_successes(name)
    assert wilson_interval(hits, TRIALS)[0] >= 2 / 3, f"{hits} / {TRIALS}"


def test_uniformity_m8_at_n4096_fits_in_memory():
    """m = 8, eps 0.25 at n = 4096 reaches a verdict under 128 MiB traced."""
    p = _codewords(12, [(i, 1) for i in range(1, 9)])
    tracemalloc.start()
    try:
        rep = uniformity_tester(BilledOracle([p], seed=0), m=8, eps=0.25, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.trace["branch"] == "grained"
    assert isinstance(rep.accepted, bool)
    assert peak < 128 * 2**20
