"""Tests for the fixture generators and linear-code utilities."""

import itertools
import math

import numpy as np
import pytest

from probedist.core import FiniteDistribution, ImplicitDistribution, new_rng, pack_rows
from probedist.distances import dist_to_support_m, emd, tv
from probedist.generators import (
    LinearCode,
    _binomial_tail_above,
    code_lift,
    coordinate_noise_dist,
    hadamard_code,
    inside_outside_mixture,
    iso_copies_dist,
    mixture,
    perturb_dist,
    shift_dist,
    uniform_random_subset,
)


def _strs(dist: FiniteDistribution) -> set:
    return {"".join("01"[b] for b in row) for row in dist.rows}


class TestUniformRandomSubset:
    def test_single_string_is_point_mass(self):
        p = uniform_random_subset(0, n=16, m=1)
        assert p.support_size == 1
        assert p.weights[0] == 1.0

    def test_respects_min_distance(self):
        p = uniform_random_subset(7, n=64, m=8, min_distance=0.25)
        assert p.support_size == 8
        diff = (p.rows[:, None, :] != p.rows[None, :, :]).mean(axis=2)
        off_diag = diff[~np.eye(8, dtype=bool)]
        assert off_diag.min() >= 0.25
        assert np.allclose(p.weights, 1 / 8)

    def test_separated_support_is_far_from_smaller_supports(self):
        p = uniform_random_subset(7, n=64, m=8, min_distance=0.25)
        # merging 8 well-separated atoms down to 4 must move mass far
        assert dist_to_support_m(p, 4) >= 0.25 / 8

    def test_impossible_spacing_raises(self):
        with pytest.raises(RuntimeError):
            uniform_random_subset(1, n=8, m=40, min_distance=0.6, max_attempts=200)

    def test_argument_guards(self):
        with pytest.raises(ValueError):
            uniform_random_subset(0, n=0, m=1)
        with pytest.raises(ValueError):
            uniform_random_subset(0, n=4, m=0)

    def test_deterministic_per_seed(self):
        a = uniform_random_subset(5, n=32, m=4, min_distance=0.2)
        b = uniform_random_subset(5, n=32, m=4, min_distance=0.2)
        assert np.array_equal(a.rows, b.rows)


class TestInsideOutsideMixture:
    def test_tiny_explicit_weights(self):
        p = inside_outside_mixture(["00"])
        assert p.support_size == 4
        by_str = {s: w for s, w in zip(_strs_ordered(p), p.weights)}
        assert by_str["00"] == pytest.approx(0.5, abs=1e-12)
        for s in ["01", "10", "11"]:
            assert by_str[s] == pytest.approx(1 / 6, abs=1e-12)

    def test_half_total_variation_from_inside_uniform(self):
        strings = ["000011110101", "111100001010", "001100110011", "110011001100"]
        p = inside_outside_mixture(strings)
        assert tv(p, FiniteDistribution.uniform_over(strings)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_rejects_full_cube(self):
        with pytest.raises(ValueError):
            inside_outside_mixture(["0", "1"])

    def test_implicit_branch_balances_halves(self):
        strings = ["0" * 20, "1" * 20, "01" * 10, "10" * 10]
        p = inside_outside_mixture(strings)
        assert isinstance(p, ImplicitDistribution)
        assert p.metadata["family"] == "inside-outside"
        assert p.metadata["inside"] == 4
        rows = p.draw_rows(new_rng(0), 4000)
        keys = pack_rows(np.stack([np.frombuffer(s.encode(), np.uint8) - ord("0")
                                   for s in strings]).astype(np.uint8))
        inside = np.isin(pack_rows(rows), keys)
        assert abs(inside.mean() - 0.5) < 0.04


def _strs_ordered(dist: FiniteDistribution) -> list:
    return ["".join("01"[b] for b in row) for row in dist.rows]


class TestShiftDist:
    def test_constant_string_is_point_mass(self):
        p = shift_dist("0" * 12)
        assert p.support_size == 1

    def test_aperiodic_string_has_all_rotations(self):
        p = shift_dist("0011")
        assert _strs(p) == {"0011", "1001", "1100", "0110"}
        assert np.allclose(p.weights, 0.25)

    def test_periodic_string_merges_rotations(self):
        p = shift_dist("0101")
        assert _strs(p) == {"0101", "1010"}
        assert np.allclose(p.weights, 0.5)

    def test_law_weighted_support(self):
        law = np.zeros(4)
        law[0] = 0.75
        law[2] = 0.25
        p = shift_dist("0011", law)
        # amounts 0 and 2 both land on {0011, 1100} rotations
        assert p.support_size == 2
        assert sorted(p.weights.tolist()) == [0.25, 0.75]

    def test_law_validation(self):
        with pytest.raises(ValueError):
            shift_dist("0011", np.full(3, 1 / 3))
        with pytest.raises(ValueError):
            shift_dist("0011", np.full(4, 0.3))


class TestPerturbDist:
    def test_zero_noise_is_point_mass(self):
        p = perturb_dist("0110", eta=0.0, delta=0.5)
        assert p.support_size == 1
        assert _strs(p) == {"0110"}

    def test_zero_radius_is_point_mass(self):
        p = perturb_dist("0" * 8, eta=0.1, delta=0.0, rate=0.05)
        assert p.support_size == 1

    def test_untruncated_marginals_are_exact(self):
        p = perturb_dist("0" * 8, eta=0.1, delta=1.0)
        assert p.support_size == 256
        marginals = p.weights @ p.rows
        assert np.allclose(marginals, 0.1, atol=1e-12)

    def test_excessive_truncation_raises(self):
        # radius 0 discards 1 - 0.9^8 = 0.57 of the noise mass
        with pytest.raises(ValueError, match="infeasible"):
            perturb_dist("0" * 8, eta=0.1, delta=0.0)

    def test_radius_is_hard_cap_in_explicit_branch(self):
        p = perturb_dist("0" * 10, eta=0.15, delta=0.2)
        assert int(p.rows.sum(axis=1).max()) <= 2

    def test_implicit_branch_respects_radius(self):
        p = perturb_dist("0" * 64, eta=0.15, delta=0.2, rate=0.1)
        assert isinstance(p, ImplicitDistribution)
        assert p.metadata["radius"] == 12
        assert 0.0 < p.metadata["truncation_mass"] < 0.5
        rows = p.draw_rows(new_rng(1), 2000)
        assert int(rows.sum(axis=1).max()) <= 12

    def test_rate_above_eta_rejected(self):
        with pytest.raises(ValueError):
            perturb_dist("0000", eta=0.1, delta=0.5, rate=0.2)

    def test_long_strings_build_without_overflow(self):
        p = perturb_dist("0" * 3000, eta=0.1, delta=0.2)
        assert isinstance(p, ImplicitDistribution)
        assert p.metadata["radius"] == 600
        assert 0.0 <= p.metadata["truncation_mass"] < 1e-9
        rows = p.draw_rows(new_rng(2), 20)
        assert int(rows.sum(axis=1).max()) <= 600
        with pytest.raises(ValueError, match="infeasible"):
            perturb_dist("0" * 3000, eta=0.1, delta=0.05)

    def test_tail_matches_direct_sum_for_short_strings(self):
        def direct(n, rate, radius):
            total = sum(math.comb(n, d) * rate**d * (1.0 - rate) ** (n - d)
                        for d in range(radius + 1))
            return max(0.0, 1.0 - total)

        for n in (1, 7, 30, 64, 101, 200):
            for rate in (1e-6, 0.01, 0.1, 0.3, 0.49):
                for radius in sorted({0, n // 10, n // 4, n // 2, n}):
                    got = _binomial_tail_above(n, rate, radius)
                    assert got == pytest.approx(direct(n, rate, radius), abs=1e-12)


class TestCoordinateNoise:
    def test_marginals_match_metadata(self):
        probs = np.linspace(0.0, 0.5, 16)
        p = coordinate_noise_dist("0" * 16, probs)
        assert p.metadata["marginals"] == probs.tolist()
        rows = p.draw_rows(new_rng(0), 20000)
        assert np.abs(rows.mean(axis=0) - probs).max() < 0.02

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            coordinate_noise_dist("0000", [0.1, 0.2])
        with pytest.raises(ValueError):
            coordinate_noise_dist("0000", [0.1, 0.2, 0.3, 1.4])


class TestIsoCopies:
    def test_edgeless_and_complete_are_point_masses(self):
        for adj in [np.zeros((3, 3), np.uint8), 1 - np.eye(3, dtype=np.uint8)]:
            p = iso_copies_dist(adj)
            assert p.support_size == 1

    def test_single_edge_three_vertices(self):
        adj = np.zeros((3, 3), np.uint8)
        adj[0, 1] = adj[1, 0] = 1
        p = iso_copies_dist(adj)
        assert p.support_size == 3
        assert np.allclose(p.weights, 1 / 3)

    def test_accepts_flat_string_input(self):
        p = iso_copies_dist(np.zeros(9, np.uint8))
        assert p.n == 9

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            iso_copies_dist(np.zeros(12, np.uint8))

    def test_vertex_cap(self):
        with pytest.raises(ValueError):
            iso_copies_dist(np.zeros((8, 8), np.uint8))

    @pytest.mark.parametrize("v, edges", [
        (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),          # path
        (6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]),  # star
        (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),  # cycle
        (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]),
    ])
    def test_weights_are_counts_over_v_factorial(self, v, edges):
        adj = np.zeros((v, v), np.uint8)
        for a, b in edges:
            adj[a, b] = adj[b, a] = 1
        perms = np.array(list(itertools.permutations(range(v))))
        copies = adj[perms[:, :, None], perms[:, None, :]].reshape(len(perms), v * v)
        uniq, counts = np.unique(copies, axis=0, return_counts=True)
        weights = counts / math.factorial(v)
        weights[-1] += 1.0 - weights.sum()
        p = iso_copies_dist(adj)
        assert p.support_size < len(perms)
        assert np.array_equal(p.rows, uniq)
        assert p.weights.tobytes() == weights.tobytes()


class TestMixture:
    def test_merges_shared_atoms(self):
        p = mixture([FiniteDistribution.point("00"), FiniteDistribution.point("00")],
                    [0.3, 0.7])
        assert p.support_size == 1
        assert p.weights[0] == pytest.approx(1.0)

    def test_weight_validation(self):
        a, b = FiniteDistribution.point("00"), FiniteDistribution.point("11")
        with pytest.raises(ValueError):
            mixture([a, b], [0.5, 0.4])
        with pytest.raises(ValueError):
            mixture([a, b], [1.5, -0.5])
        with pytest.raises(ValueError):
            mixture([a], [0.5, 0.5])

    def test_rejects_implicit_components(self):
        imp = coordinate_noise_dist("00", [0.1, 0.1])
        with pytest.raises(ValueError):
            mixture([imp, FiniteDistribution.point("00")], [0.5, 0.5])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            mixture([FiniteDistribution.point("00"), FiniteDistribution.point("000")],
                    [0.5, 0.5])


class TestLinearCodes:
    def test_hadamard_distance_is_exactly_half(self):
        code = hadamard_code(3)
        assert code.k == 3 and code.n == 8
        assert code.measured_min_distance == 0.5
        assert code.codewords().shape == (8, 8)

    def test_smallest_hadamard_code(self):
        code = hadamard_code(1)
        assert [list(w) for w in code.codewords()] == [[0, 0], [0, 1]]

    def test_hadamard_k_guard(self):
        with pytest.raises(ValueError):
            hadamard_code(0)
        with pytest.raises(ValueError):
            hadamard_code(13)

    def test_rank_deficient_generator_rejected(self):
        with pytest.raises(ValueError, match="injective"):
            LinearCode(np.array([[1, 0], [1, 0]], dtype=np.uint8))

    def test_message_length_cap(self):
        with pytest.raises(ValueError):
            LinearCode(np.eye(13, 20, dtype=np.uint8))


class TestCodeLift:
    def test_point_lifts_to_codeword(self):
        code = hadamard_code(3)
        p = code_lift(code, FiniteDistribution.point("101"))
        assert p.support_size == 1
        assert np.array_equal(p.rows[0], code.encode([1, 0, 1]))

    def test_preserves_weights_and_tv(self):
        code = hadamard_code(3)
        rng = new_rng(6)
        for _ in range(10):
            wa = rng.dirichlet(np.ones(4))
            wb = rng.dirichlet(np.ones(4))
            msgs = ["000", "110", "011", "101"]
            p = FiniteDistribution(list(zip(msgs, wa)))
            q = FiniteDistribution(list(zip(msgs, wb)))
            assert tv(code_lift(code, p), code_lift(code, q)) == pytest.approx(
                tv(p, q), abs=1e-12
            )

    def test_transport_distance_scales_with_code_distance(self):
        code = hadamard_code(4)
        p = FiniteDistribution.uniform_over(["0001", "0010", "0100"])
        q = FiniteDistribution.uniform_over(["1000", "1111"])
        lifted = emd(code_lift(code, p), code_lift(code, q))
        assert lifted >= code.measured_min_distance * tv(p, q) - 1e-9

    def test_message_length_mismatch(self):
        with pytest.raises(ValueError):
            code_lift(hadamard_code(3), FiniteDistribution.point("10"))
