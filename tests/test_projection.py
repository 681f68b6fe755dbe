import math

import numpy as np
import pytest

from probedist.constants import DEFAULT_CONSTANTS
from probedist.core import BilledOracle, FiniteDistribution, new_rng
from probedist.distances import emd, tv
from probedist.generators import inside_outside_mixture, uniform_random_subset
from probedist.std_testers import GrainedInner, SupportInner
from probedist.testers import (
    grained_tester,
    projection_tester,
    support_tester,
    uniformity_tester,
)


def test_support_tester_one_sided():
    """In-support instances are never rejected, whatever the randomness."""
    fixtures = [
        (FiniteDistribution.uniform_over(["0" * 64, "1" * 64]), 2),
        (FiniteDistribution.point("01" * 32), 1),
        (uniform_random_subset(5, n=64, m=4, min_distance=0.2), 4),
        (uniform_random_subset(6, n=64, m=4, min_distance=0.2), 8),
    ]
    for p, m in fixtures:
        for s in range(75):
            oracle = BilledOracle([p], seed=s)
            rep = support_tester(oracle, m=m, eps=0.3, seed=1000 + s)
            assert rep.accepted


def test_support_tester_rejects_excess_far_support():
    p = uniform_random_subset(9, n=128, m=6, min_distance=0.4)
    rejects = 0
    for s in range(40):
        oracle = BilledOracle([p], seed=s)
        rejects += not support_tester(oracle, m=2, eps=0.4, seed=s).accepted
    assert rejects == 40


def test_support_tester_budget_formula():
    p = FiniteDistribution.point("0" * 32)
    oracle = BilledOracle([p], seed=0)
    rep = support_tester(oracle, m=3, eps=0.5, seed=1)
    s = math.ceil(DEFAULT_CONSTANTS.support_samples * 3 / 0.5)
    ell = min(32, math.ceil(DEFAULT_CONSTANTS.support_positions * math.log(4.0) / 0.5))
    assert rep.trace["sizes"] == {"samples": s, "positions": ell}
    assert rep.queries_used == s * ell
    assert rep.trace["budget"]["kind"] == "exact"
    assert rep.samples_used == (s,)


def test_projection_tester_majority_of_three_blocks():
    p = FiniteDistribution.uniform_over(["0" * 48, "1" * 48])
    oracle = BilledOracle([p], seed=3)
    rep = projection_tester(oracle, SupportInner(m=2), eps=0.5, seed=4)
    assert rep.trace["sizes"]["blocks"] == 3
    assert len(rep.trace["votes"]) == 3
    s = rep.trace["sizes"]["samples_per_block"]
    ell = rep.trace["sizes"]["positions"]
    assert rep.queries_used == 3 * s * ell
    assert rep.accepted


def test_projection_lift_preserves_one_sidedness():
    p = uniform_random_subset(11, n=96, m=3, min_distance=0.25)
    for s in range(60):
        oracle = BilledOracle([p], seed=s)
        rep = projection_tester(oracle, SupportInner(m=3), eps=0.25, seed=s + 7)
        assert rep.accepted


class TestGrainedTester:
    def test_accepts_grained_instance(self):
        p = FiniteDistribution(atoms=[("0" * 64, 0.5), ("1" * 64, 0.5)])
        accepts = sum(
            grained_tester(BilledOracle([p], seed=s), m=2, eps=0.8, seed=s).accepted
            for s in range(20)
        )
        assert accepts >= 17

    def test_rejects_off_grain_instance(self):
        # weights 0.75/m and 1.25/m sit 1/8 in TV from the 2-grained set, and
        # the two atoms are complementary strings (ground distance 1), so the
        # instance is exactly 1/8 from the 2-grained set in transport
        # distance: eps-far at eps = 0.125 and no farther
        p = FiniteDistribution(atoms=[("0" * 32, 0.375), ("1" * 32, 0.625)])
        rejects = sum(
            not grained_tester(BilledOracle([p], seed=s), m=2, eps=0.125, seed=s).accepted
            for s in range(30)
        )
        assert rejects >= 27

    def test_m_guard(self):
        with pytest.raises(ValueError):
            grained_tester(
                BilledOracle([FiniteDistribution.point("01")], seed=0), 0, 0.5, 1
            )


class TestUniformityTester:
    def test_grained_branch_accepts_uniform(self):
        p = uniform_random_subset(13, n=64, m=4, min_distance=0.2)
        accepts = 0
        for s in range(20):
            rep = uniformity_tester(BilledOracle([p], seed=s), m=4, eps=0.5, seed=s)
            assert rep.trace["branch"] == "grained"
            accepts += rep.accepted
        assert accepts >= 17

    def test_full_read_branch_accepts_uniform(self):
        # eps at most 2*ceil(log2 m)/n forces whole-sample reads
        p = uniform_random_subset(17, n=8, m=4, min_distance=0.2)
        rep = uniformity_tester(BilledOracle([p], seed=0), m=4, eps=0.5, seed=1)
        assert rep.trace["branch"] == "full-read"
        assert rep.accepted
        n_read = rep.trace["sizes"]["positions"]
        assert n_read == 8
        assert rep.queries_used == rep.trace["sizes"]["samples"] * 8

    def test_full_read_branch_rejects_point_mass(self):
        p = FiniteDistribution.point("1" * 8)
        rep = uniformity_tester(BilledOracle([p], seed=0), m=4, eps=0.5, seed=1)
        assert rep.trace["branch"] == "full-read"
        assert not rep.accepted

    def test_rejects_half_in_half_out_mixture(self):
        """Half the mass uniform on S, half off S: far from uniform-over-|S|."""
        strings = ["000011110101", "111100001010", "001100110011", "110011001100"]
        p = inside_outside_mixture(strings)
        uniform_s = FiniteDistribution.uniform_over(strings)
        # tv equals the inequality-metric transport distance and avoids a
        # dense solve over the 4096-atom mixture.
        assert tv(p, uniform_s) >= 0.49
        rejects = 0
        for s in range(20):
            rep = uniformity_tester(BilledOracle([p], seed=s), m=4, eps=0.4, seed=s)
            rejects += not rep.accepted
        assert rejects >= 17
