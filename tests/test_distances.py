import math

import numpy as np
import pytest

from emd_reference import emd_reference, support_distance_reference, tv_reference
from probedist.core import FiniteDistribution, new_rng
from probedist.distances import (
    cost_matrix,
    dist_to_support_m,
    emd,
    emd_with_plan,
    grain_round,
    hamming_rel,
    tv,
)


def random_dist(rng, n, max_support):
    k = int(rng.integers(1, max_support + 1))
    rows = np.unique(rng.integers(0, 2, size=(k, n), dtype=np.uint8), axis=0)
    w = rng.random(rows.shape[0]) + 0.05
    w /= w.sum()
    w[-1] += 1.0 - w.sum()
    return FiniteDistribution(rows=rows, weights=w)


def atoms(p):
    return [("".join(map(str, r)), float(w)) for r, w in zip(p.rows, p.weights)]


class TestHammingRel:
    def test_identity(self):
        assert hamming_rel("0101", "0101") == 0.0

    def test_complement(self):
        assert hamming_rel("0000", "1111") == 1.0

    def test_quarter(self):
        assert hamming_rel("0101", "0111") == 0.25

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_rel("01", "011")


class TestEmdPinnedValues:
    def test_identical_is_zero(self):
        p = FiniteDistribution.uniform_over(["010", "101"])
        assert emd(p, p) <= 1e-12

    def test_point_to_point(self):
        p = FiniteDistribution.point("00")
        q = FiniteDistribution.point("01")
        assert abs(emd(p, q) - 0.5) <= 1e-12

    def test_pair_to_point(self):
        p = FiniteDistribution.uniform_over(["00", "11"])
        q = FiniteDistribution.point("00")
        assert abs(emd(p, q) - 0.5) <= 1e-12

    def test_pair_to_other_point(self):
        p = FiniteDistribution.uniform_over(["00", "11"])
        q = FiniteDistribution.point("01")
        assert abs(emd(p, q) - 0.5) <= 1e-12
        assert abs(emd(p, q, metric="ineq") - 1.0) <= 1e-12
        assert abs(tv(p, q) - 1.0) <= 1e-12

    def test_points_four_bits(self):
        p = FiniteDistribution.point("0011")
        q = FiniteDistribution.point("0101")
        assert abs(emd(p, q) - 0.5) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            emd(FiniteDistribution.point("01"), FiniteDistribution.point("011"))


class TestTv:
    def test_identical(self):
        p = FiniteDistribution.uniform_over(["01", "10"])
        assert tv(p, p) == 0.0

    def test_disjoint(self):
        p = FiniteDistribution.point("00")
        q = FiniteDistribution.point("11")
        assert tv(p, q) == 1.0

    def test_pair_to_point(self):
        p = FiniteDistribution.uniform_over(["00", "11"])
        assert abs(tv(p, FiniteDistribution.point("00")) - 0.5) <= 1e-12


def test_solver_matches_reference_oracle():
    """Dual route: successive-shortest-paths vs spanning-tree enumeration."""
    rng = new_rng(42)
    for _ in range(120):
        n = int(rng.integers(2, 7))
        p = random_dist(rng, n, 4)
        q = random_dist(rng, n, 4)
        for metric in ("hamming", "ineq"):
            got = emd(p, q, metric=metric)
            want = emd_reference(atoms(p), atoms(q), metric=metric)
            assert abs(got - want) <= 1e-9


def _exact_size_dist(rng, n, size):
    """A random distribution over exactly ``size`` distinct n-bit strings."""
    rows = np.unique(rng.integers(0, 2, size=(4 * size, n), dtype=np.uint8), axis=0)
    rows = rows[rng.permutation(len(rows))[:size]]
    w = rng.random(size) + 0.05
    w /= w.sum()
    w[-1] += 1.0 - w.sum()
    return FiniteDistribution(rows=rows, weights=w)


def test_emd_matches_linear_programming_on_12_by_12_supports():
    """The transport solver against scipy's LP solver on the same program."""
    optimize = pytest.importorskip("scipy.optimize")
    rng = new_rng(2024)
    for _ in range(25):
        p = _exact_size_dist(rng, 10, 12)
        q = _exact_size_dist(rng, 10, 12)
        for metric in ("hamming", "ineq"):
            costs = cost_matrix(p.rows, q.rows, metric)
            # flow[i, j] flattened row-major; row sums give p, column sums q.
            eq = np.vstack([np.kron(np.eye(12), np.ones(12)), np.kron(np.ones(12), np.eye(12))])
            lp = optimize.linprog(
                costs.ravel(), A_eq=eq, b_eq=np.concatenate([p.weights, q.weights]),
                bounds=(0, None), method="highs",
            )
            assert lp.status == 0
            assert abs(emd(p, q, metric=metric) - lp.fun) <= 1e-9


def test_ineq_emd_equals_tv_on_random_pairs():
    rng = new_rng(7)
    for _ in range(250):
        n = int(rng.integers(1, 9))
        p = random_dist(rng, n, 6)
        q = random_dist(rng, n, 6)
        assert abs(emd(p, q, metric="ineq") - tv(p, q)) <= 1e-9
        assert emd(p, q, metric="hamming") <= tv(p, q) + 1e-9


def test_emd_metric_properties():
    rng = new_rng(13)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        p, q, r = (random_dist(rng, n, 4) for _ in range(3))
        dpq, dqp = emd(p, q), emd(q, p)
        assert abs(dpq - dqp) <= 1e-9
        assert dpq + emd(q, r) >= emd(p, r) - 1e-9
        assert -1e-12 <= dpq <= 1.0 + 1e-12


def test_transport_plan_marginals_and_cost():
    rng = new_rng(99)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        p = random_dist(rng, n, 5)
        q = random_dist(rng, n, 5)
        value, plan = emd_with_plan(p, q)
        plan.validate()
        src = np.zeros(p.support_size)
        tgt = np.zeros(q.support_size)
        cost = 0.0
        for i, j, mass in plan.flows:
            assert mass >= -1e-12
            src[i] += mass
            tgt[j] += mass
            cost += mass * hamming_rel(p.rows[i], q.rows[j])
        assert np.allclose(src, p.weights, atol=1e-9)
        assert np.allclose(tgt, q.weights, atol=1e-9)
        assert abs(cost - value) <= 1e-9


class TestDistToSupport:
    def test_within_budget_is_zero(self):
        p = FiniteDistribution.uniform_over(["000", "111"])
        assert dist_to_support_m(p, 2) == 0.0

    def test_two_far_points_one_center(self):
        p = FiniteDistribution.uniform_over(["000", "111"])
        assert abs(dist_to_support_m(p, 1) - 0.5) <= 1e-12

    def test_two_near_points_one_center(self):
        p = FiniteDistribution.uniform_over(["0000", "0001"])
        assert abs(dist_to_support_m(p, 1) - 0.125) <= 1e-12

    def test_two_complements_n4(self):
        p = FiniteDistribution.uniform_over(["0000", "1111"])
        assert abs(dist_to_support_m(p, 1) - 0.5) <= 1e-12

    def test_support_guard(self):
        rng = new_rng(0)
        rows = np.unique(rng.integers(0, 2, size=(13, 8), dtype=np.uint8), axis=0)
        if rows.shape[0] == 13:
            p = FiniteDistribution.uniform_over(rows)
            with pytest.raises(ValueError):
                dist_to_support_m(p, 2)

    def test_matches_center_enumeration_oracle(self):
        rng = new_rng(21)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            p = random_dist(rng, n, 5)
            m = int(rng.integers(1, 4))
            got = dist_to_support_m(p, m)
            want = support_distance_reference(atoms(p), m)
            assert abs(got - want) <= 1e-9

    def test_witness_consistent(self):
        rng = new_rng(33)
        for _ in range(20):
            p = random_dist(rng, 6, 5)
            m = int(rng.integers(1, 4))
            value, witness = dist_to_support_m(p, m, return_witness=True)
            assert witness.support_size <= m
            assert emd(p, witness) <= value + 1e-9


class TestGrainRound:
    def test_point_mass_n8(self):
        p = FiniteDistribution.point("11111111")
        out, cert = grain_round(p, 0)
        assert out.support_size == 1
        assert "".join(map(str, out.rows[0])) == "11111000"
        assert abs(emd(p, out) - 3.0 / 8.0) <= 1e-12

    def test_fixed_point(self):
        # already 2^{n-l'}-grained with the low bits zero: unchanged
        p = FiniteDistribution(
            atoms=[("00000000", 0.25), ("10000000", 0.75)]
        )
        out, cert = grain_round(p, 0)
        assert tv(p, out) <= 1e-12

    def test_output_exactly_grained(self):
        rng = new_rng(5)
        for n in (8, 16):
            for _ in range(25):
                p = random_dist(rng, n, 6)
                ell = int(math.floor(math.log2(n)))
                ell_prime = int(rng.integers(0, ell))
                out, cert = grain_round(p, ell_prime)
                gran = 2 ** (n - ell_prime)
                scaled = out.weights * gran
                assert np.array_equal(scaled, np.round(scaled))

    def test_distance_within_bound(self):
        rng = new_rng(6)
        for n in (8, 16):
            for _ in range(15):
                p = random_dist(rng, n, 6)
                ell = int(math.floor(math.log2(n)))
                ell_prime = int(rng.integers(0, ell))
                out, cert = grain_round(p, ell_prime)
                bound = ell / n + 2.0 ** -(ell - ell_prime)
                assert emd(p, out) <= bound + 1e-9
                assert cert["distance_bound"] <= bound + 1e-12

    def test_parameter_guards(self):
        p = FiniteDistribution.point("1111")
        with pytest.raises(ValueError):
            grain_round(p, 2)  # l' must stay below floor(log2 n) = 2
        with pytest.raises(ValueError):
            grain_round(FiniteDistribution.point("111"), 0)  # n >= 4
