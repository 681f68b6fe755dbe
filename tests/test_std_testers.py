import math

import numpy as np
import pytest

from probedist.constants import DEFAULT_CONSTANTS
from probedist.core import new_rng
from probedist.std_testers import (
    GrainedInner,
    SupportInner,
    collision_statistic,
    equality_threshold,
    std_equality_tester,
    std_grained_tester,
    std_support_tester,
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


class TestStdGrainedTester:
    def test_outside_phase1_support_rejects(self):
        assert not std_grained_tester([1, 2], [1, 2, 3], 4, 0.5)

    def test_exact_quarters_accept(self):
        p2 = [0] * 250 + [1] * 250 + [2] * 240 + [3] * 260
        assert std_grained_tester([0, 1, 2, 3], p2, 4, 0.5)

    def test_half_grain_rejects(self):
        # one value at frequency 1.5/m sits between the k=1 and k=2 windows
        p2 = [0] * 375 + [1] * 250 + [2] * 260 + [3] * 115
        assert not std_grained_tester([0, 1, 2, 3], p2, 4, 0.5)

    def test_below_floor_ignored(self):
        # a 0.045-frequency value stays under the (1-0.1*eps)/(2m) floor;
        # the rest sit inside their k=2/k=1/k=1 windows
        p2 = [0] * 950 + [1] * 480 + [2] * 480 + [3] * 90
        assert std_grained_tester([0, 1, 2, 3], p2, 4, 0.5)

    def test_input_guards(self):
        with pytest.raises(ValueError):
            std_grained_tester([], [1], 4, 0.5)
        with pytest.raises(ValueError):
            std_grained_tester([1], [1], 0, 0.5)
        with pytest.raises(ValueError):
            std_grained_tester([1], [1], 4, 0.0)

    def test_grained_instance_accepted_whp(self):
        inner = GrainedInner(m=4)
        s1, s2 = inner.phase_sizes(0.2)
        rng = new_rng(11)
        accepts = sum(
            std_grained_tester(
                rng.integers(0, 4, size=s1), rng.integers(0, 4, size=s2), 4, 0.2
            )
            for _ in range(30)
        )
        assert accepts >= 22

    def test_off_grain_instance_rejected(self):
        inner = GrainedInner(m=4)
        s1, s2 = inner.phase_sizes(0.2)
        weights = np.array([0.375, 0.25, 0.25, 0.125])
        rng = new_rng(12)
        rejects = sum(
            not std_grained_tester(
                rng.choice(4, size=s1, p=weights),
                rng.choice(4, size=s2, p=weights),
                4,
                0.2,
            )
            for _ in range(30)
        )
        assert rejects == 30


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


def test_label_invariance():
    """Verdicts depend only on the collision structure, never on labels."""
    rng = new_rng(9)
    for _ in range(50):
        vals_a = rng.integers(0, 6, size=80)
        vals_b = rng.integers(0, 6, size=75)
        relabeled = lambda v: 1000 - 7 * v  # injective map
        assert std_support_tester(vals_a, 3) == std_support_tester(relabeled(vals_a), 3)
        assert std_grained_tester(vals_a[:20], vals_a[20:], 4, 0.5) == std_grained_tester(
            relabeled(vals_a[:20]), relabeled(vals_a[20:]), 4, 0.5
        )
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
        s1, s2 = inner.phase_sizes(0.4)
        assert inner.sample_count(0.4) == s1 + s2
        assert not inner.one_sided
        with pytest.raises(ValueError):
            inner.decide(np.zeros(s1), 0.4)
        vals = np.concatenate([np.zeros(s1), np.zeros(s2)])
        assert inner.decide(vals, 0.4)
