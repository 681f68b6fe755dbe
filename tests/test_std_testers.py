import dataclasses
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from probedist.constants import DEFAULT_CONSTANTS
from probedist.core import new_rng, pack_rows
from probedist.std_testers import (
    GrainedInner,
    SupportInner,
    _paired_counts,
    collision_statistic,
    equality_threshold,
    std_equality_tester,
    std_support_tester,
    tv_to_grained,
)


class TestStdSupportTester:
    def test_within_support_accepts(self):
        assert std_support_tester([1, 2, 1, 2, 2], 2)

    def test_excess_distinct_rejects(self):
        assert not std_support_tester([1, 2, 3], 2)

    def test_m_guard(self):
        with pytest.raises(ValueError):
            std_support_tester([1], 0)

    def test_one_sided(self):
        # values drawn from an m-element set can never trip the tester
        rng = new_rng(0)
        for _ in range(200):
            m = int(rng.integers(1, 6))
            vals = rng.integers(0, m, size=int(rng.integers(1, 50)))
            assert std_support_tester(vals, m)


def _brute_tv_to_grained(counts, m) -> Fraction:
    """Minimum TV over every placement of m units of 1/m on the observed
    values and m more slots for values never seen."""
    s = sum(counts)
    freqs = [Fraction(c, s) for c in counts] + [Fraction(0)] * m
    best = None
    for slots in itertools.combinations_with_replacement(range(len(freqs)), m):
        units = Counter(slots)
        tv = sum(abs(f - Fraction(units[i], m)) for i, f in enumerate(freqs)) / 2
        best = tv if best is None else min(best, tv)
    return best


class TestTvToGrained:
    @settings(max_examples=300, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 9), min_size=1, max_size=4).filter(lambda c: sum(c) > 0),
        m=st.integers(1, 5),
    )
    @example(counts=[6, 3, 0], m=3)  # frequencies 2/3 and 1/3, one value unseen
    @example(counts=[1, 1, 1, 1], m=2)  # more observed values than units
    def test_matches_brute_force(self, counts, m):
        assert tv_to_grained(counts, m) == float(_brute_tv_to_grained(counts, m))

    def test_hand_values(self):
        assert tv_to_grained([5, 5, 5, 5], 4) == 0.0
        assert tv_to_grained([7], 1) == 0.0
        # weights (1 +- 2e)/m alternating are exactly e from the grained set
        assert tv_to_grained([12, 4, 12, 4], 4) == 0.25
        assert tv_to_grained([10, 6], 2) == 0.125
        # (3/4, 1/4) against m = 2: (1/2, 1/2) and (1, 0) are both 1/4 away
        assert tv_to_grained([3, 1], 2) == 0.25

    def test_input_guards(self):
        with pytest.raises(ValueError):
            tv_to_grained([1, 2], 0)
        with pytest.raises(ValueError):
            tv_to_grained([0, 0], 2)
        with pytest.raises(ValueError):
            tv_to_grained([], 2)


class TestStdGrainedTester:
    """The classical grained rule, ``GrainedInner.decide``, on value lists."""

    def test_exact_quarters_accept(self):
        values = np.repeat([0, 1, 2, 3], [250, 250, 240, 260])
        assert GrainedInner(m=4).decide(values, 0.5)

    def test_half_grain_rejects(self):
        # a value at frequency 1.5/m puts the list 1/8 from the 4-grained
        # set, past eps/2 = 0.1
        values = np.repeat([0, 1, 2, 3], [375, 250, 260, 115])
        assert not GrainedInner(m=4).decide(values, 0.2)

    def test_input_guards(self):
        with pytest.raises(ValueError):
            GrainedInner(m=4).decide([], 0.5)
        with pytest.raises(ValueError):
            GrainedInner(m=0).decide([1], 0.5)

    def test_grained_instance_accepted_whp(self):
        inner = GrainedInner(m=4)
        s = inner.sample_count(0.2)
        rng = new_rng(11)
        accepts = sum(inner.decide(rng.integers(0, 4, size=s), 0.2) for _ in range(30))
        assert accepts >= 22

    def test_off_grain_instance_rejected(self):
        # these weights are exactly 1/8 from the 4-grained set
        inner = GrainedInner(m=4)
        s = inner.sample_count(0.125)
        weights = np.array([0.375, 0.25, 0.25, 0.125])
        assert tv_to_grained([3, 2, 2, 1], 4) == 0.125
        rng = new_rng(12)
        rejects = sum(
            not inner.decide(rng.choice(4, size=s, p=weights), 0.125) for _ in range(30)
        )
        assert rejects >= 27


class TestEqualityStatistic:
    def test_collision_statistic_hand_values(self):
        assert collision_statistic([2, 0], [0, 2]) == 4.0
        assert collision_statistic([1, 1], [1, 1]) == -4.0

    def test_threshold_formula(self):
        want = 900.0**2 * (0.2 / (2 * math.sqrt(4))) ** 2 / 2
        assert equality_threshold(900.0, 4, 0.2) == want
        assert want == pytest.approx(1012.5)

    def test_identical_point_masses_accepted(self):
        # threshold over noise scale is about 1.59 here, so the accept rate
        # sits near 0.94
        rng = new_rng(4)
        lam = 900.0
        accepts = 0
        for _ in range(200):
            na, nb = rng.poisson(lam, size=2)
            accepts += std_equality_tester(
                np.zeros(na, dtype=np.int64), np.zeros(nb, dtype=np.int64), 1, 0.2, lam
            )
        assert accepts >= 170

    def test_distinct_point_masses_rejected(self):
        rng = new_rng(5)
        lam = 900.0
        for _ in range(50):
            na, nb = rng.poisson(lam, size=2)
            assert not std_equality_tester(
                np.zeros(na, dtype=np.int64),
                np.ones(nb, dtype=np.int64),
                1,
                0.2,
                lam,
            )

    def test_empty_side_raises(self):
        with pytest.raises(ValueError):
            std_equality_tester(np.zeros(0), np.zeros(3), 4, 0.2, 10.0)


def _paired_counts_reference(a, b):
    """Counts through one np.unique(return_inverse) over both sides."""
    _, inverse = np.unique(np.concatenate([a, b]), return_inverse=True)
    k = int(inverse.max()) + 1
    return (np.bincount(inverse[: a.size], minlength=k),
            np.bincount(inverse[a.size :], minlength=k))


@settings(max_examples=200, deadline=None)
@given(st.data())
@example(data=None)
def test_paired_counts_match_one_unique_over_both_sides(data):
    """Per-side counts placed on the union equal the joint np.unique counts,
    labels in the same order, on uint64 keys (rows of at most 64 bits) and
    void keys (wider rows), with disjoint and single-label sides."""
    if data is None:  # disjoint sides, one of them a single label
        a = pack_rows(np.zeros((5, 70), dtype=np.uint8))
        b = pack_rows(np.eye(70, dtype=np.uint8)[[3, 9, 3]])
    else:
        width = data.draw(st.sampled_from([1, 7, 18, 64, 65, 130]))
        rng = new_rng(data.draw(st.integers(0, 2**32)))
        pool = rng.integers(0, 2, size=(data.draw(st.integers(2, 12)), width), dtype=np.uint8)
        cut = data.draw(st.integers(1, len(pool) - 1))
        ranges = [(0, cut), (cut, len(pool))]
        if data.draw(st.booleans()):  # both sides draw from the whole pool
            ranges = [(0, len(pool))] * 2
        a, b = (
            pack_rows(pool[rng.integers(lo, hi, size=data.draw(st.integers(1, 300)))])
            for lo, hi in ranges
        )
    want = _paired_counts_reference(a, b)
    got = _paired_counts(a, b)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert collision_statistic(*got) == collision_statistic(*want)


def test_label_invariance():
    """Verdicts depend only on the collision structure, never on labels."""
    rng = new_rng(9)
    for _ in range(50):
        vals_a = rng.integers(0, 6, size=80)
        vals_b = rng.integers(0, 6, size=75)
        relabeled = lambda v: 1000 - 7 * v  # injective map
        assert std_support_tester(vals_a, 3) == std_support_tester(relabeled(vals_a), 3)
        grained = GrainedInner(m=4)
        assert grained.decide(vals_a, 0.5) == grained.decide(relabeled(vals_a), 0.5)
        assert std_equality_tester(vals_a, vals_b, 4, 0.5, 77.0) == std_equality_tester(
            relabeled(vals_a), relabeled(vals_b), 4, 0.5, 77.0
        )


class TestInnerAdapters:
    def test_support_inner(self):
        inner = SupportInner(m=4)
        want = math.ceil(DEFAULT_CONSTANTS.support_samples * 4 / 0.5)
        assert inner.sample_count(0.5) == want
        assert inner.one_sided
        assert inner.decide([1, 2, 3], 0.5)
        assert not inner.decide([1, 2, 3, 4, 5], 0.5)

    def test_grained_inner(self):
        inner = GrainedInner(m=2)
        s = inner.sample_count(0.4)
        assert s == math.ceil(DEFAULT_CONSTANTS.grained_samples * 2 * math.log(3.0) / 0.4**2)
        assert not inner.one_sided
        with pytest.raises(ValueError):
            inner.decide(np.zeros(0), 0.4)
        assert inner.decide(np.zeros(s), 0.4)
        # a 3/4 : 1/4 split is 1/4 from 2-grained, past eps/2 = 0.2
        assert not inner.decide(np.repeat([0, 1], [3 * s, s]), 0.4)

    def test_one_sided_is_not_a_field(self):
        for inner in (SupportInner, GrainedInner):
            assert "one_sided" not in {f.name for f in dataclasses.fields(inner)}
