"""Tests for the single-object family testers: bounded perturbations,
noisy property membership, rotation families, and graph copies."""

import numpy as np
import pytest

from probedist.core import BilledOracle, FiniteDistribution, new_rng
from probedist.generators import (
    coordinate_noise_dist,
    hadamard_code,
    iso_copies_dist,
    mixture,
    perturb_dist,
    shift_dist,
)
from probedist.harness import wilson_interval
from probedist.strings import ConstantTester, LinearityTester
from probedist.testers import (
    _MajorityView,
    cyclic_shift_tester,
    graph_copies_tester,
    noisy_membership_tester,
    perturbation_tester,
    shift_law_tester,
)


def _bits_to_str(bits) -> str:
    return "".join("01"[int(b)] for b in bits)


class TestPerturbationTester:
    def test_accepts_truncated_product_noise(self):
        p = perturb_dist("01" * 32, eta=0.15, delta=0.2, rate=0.1)
        for s in range(20):
            rep = perturbation_tester(
                BilledOracle([p], seed=s), eta=0.15, delta=0.2, eps=0.25, seed=s
            )
            assert rep.accepted

    def test_marginal_stage_rejects_half_random_coordinates(self):
        probs = np.zeros(64)
        probs[:48] = 0.5
        p = coordinate_noise_dist("0" * 64, probs)
        for s in range(20):
            rep = perturbation_tester(
                BilledOracle([p], seed=s), eta=0.15, delta=0.3, eps=0.25, seed=s
            )
            assert not rep.accepted
            assert rep.trace["reject_stage"] == "marginal"

    def test_radius_stage_rejects_wide_flips(self):
        # four strings with disjoint 32-coordinate flip sets: every marginal
        # is an unambiguous 0.25, but each sample sits 32 flips from the
        # reference, far beyond the allowed radius floor(0.05 * 128) = 6
        strings = []
        for i in range(4):
            bits = np.zeros(128, dtype=np.uint8)
            bits[32 * i : 32 * (i + 1)] = 1
            strings.append(_bits_to_str(bits))
        p = FiniteDistribution.uniform_over(strings)
        for s in range(5):
            rep = perturbation_tester(
                BilledOracle([p], seed=s), eta=0.45, delta=0.05, eps=0.1, seed=s
            )
            assert not rep.accepted
            assert rep.trace["reject_stage"] == "radius"

    def test_budget_is_exact(self):
        p = perturb_dist("01" * 32, eta=0.15, delta=0.2, rate=0.1)
        rep = perturbation_tester(BilledOracle([p], seed=0), 0.15, 0.2, 0.25, seed=0)
        sizes = rep.trace["sizes"]
        want = (sizes["estimate_samples"] + sizes["check_samples"]) * sizes["probe_positions"]
        assert rep.trace["budget"]["kind"] == "exact"
        assert rep.queries_used == want == rep.trace["budget"]["value"]

    def test_eps_shrinks_to_fit_eta(self):
        p = perturb_dist("0" * 32, eta=0.4, delta=0.3, rate=0.0)
        rep = perturbation_tester(BilledOracle([p], seed=0), 0.4, 0.3, 1.0, seed=0)
        assert rep.trace["params"]["eps_effective"] == pytest.approx(3.99 * 0.1)

    def test_parameter_guards(self):
        p = FiniteDistribution.point("0000")
        with pytest.raises(ValueError):
            perturbation_tester(BilledOracle([p], seed=0), 0.5, 0.1, 0.5, seed=0)
        with pytest.raises(ValueError):
            perturbation_tester(BilledOracle([p], seed=0), 0.1, 1.5, 0.5, seed=0)
        with pytest.raises(ValueError):
            perturbation_tester(BilledOracle([p], seed=0), 0.1, 0.5, 0.0, seed=0)


class TestNoisyMembership:
    def test_accepts_noisy_constant_string(self):
        p = coordinate_noise_dist("1" * 64, np.full(64, 0.05))
        accepts = 0
        for s in range(10):
            rep = noisy_membership_tester(
                BilledOracle([p], seed=s), ConstantTester(), 0.1, 0.3, 0.5, seed=s
            )
            accepts += rep.accepted
        assert accepts >= 8

    def test_family_stage_rejects_ambiguous_marginals(self):
        probs = np.zeros(64)
        probs[::2] = 0.5
        p = coordinate_noise_dist("1" * 64, probs)
        rep = noisy_membership_tester(
            BilledOracle([p], seed=3), ConstantTester(), 0.1, 0.3, 0.5, seed=3
        )
        assert not rep.accepted
        assert rep.trace["reject_stage"] == "family"

    def test_property_stage_rejects_nonconstant_reference(self):
        base = "0" * 32 + "1" * 32
        p = coordinate_noise_dist(base, np.full(64, 0.02))
        rejects = stage_hits = 0
        for s in range(10):
            rep = noisy_membership_tester(
                BilledOracle([p], seed=s), ConstantTester(), 0.1, 0.3, 0.5, seed=s
            )
            rejects += not rep.accepted
            stage_hits += rep.trace.get("reject_stage") == "property"
        assert rejects == 10
        assert stage_hits >= 9

    def test_budget_accounts_for_emulation(self):
        p = coordinate_noise_dist("1" * 64, np.full(64, 0.05))
        rep = noisy_membership_tester(
            BilledOracle([p], seed=1), ConstantTester(), 0.1, 0.3, 0.5, seed=1
        )
        if rep.accepted:
            emulated = rep.trace["emulated_queries"]
            r = rep.trace["sizes"]["majority_repeats"]
            assert r % 2 == 1
            assert rep.trace["budget"]["value"] == (
                rep.trace["family_stage"]["budget"]["value"] + r * emulated
            )


    @pytest.mark.parametrize("member", [True, False], ids=["codeword", "bent"])
    def test_linearity_property_monte_carlo(self, member):
        """Noisy membership in linearity through the majority reader: a
        Hadamard codeword under 2% coordinate noise accepts, and the bent
        table x0x1 + x2x3 + x4x5 (distance 28/64 from every linear table)
        under the same noise rejects; the budget is exact in every trial."""
        if member:
            x = hadamard_code(6).encode([1, 0, 1, 1, 0, 1])
        else:
            b = [(np.arange(64) >> i) & 1 for i in range(6)]
            x = (b[0] & b[1]) ^ (b[2] & b[3]) ^ (b[4] & b[5])
        p = coordinate_noise_dist(_bits_to_str(x), np.full(64, 0.02))
        trials, correct = 30, 0
        for s in range(trials):
            rep = noisy_membership_tester(
                BilledOracle([p], seed=s), LinearityTester(), 0.1, 0.3, 0.5, seed=500 + s
            )
            assert rep.queries_used == rep.trace["budget"]["value"]
            if "emulated_queries" in rep.trace:
                assert rep.trace["emulated_queries"] == rep.trace["sizes"]["tester_budget"]
            correct += rep.accepted == member
        assert wilson_interval(correct, trials)[0] >= 2 / 3

    def test_linearity_needs_power_of_two_before_any_draw(self):
        oracle = BilledOracle([coordinate_noise_dist("011", np.full(3, 0.05))], seed=0)
        with pytest.raises(ValueError, match="n = 2"):
            noisy_membership_tester(oracle, LinearityTester(), 0.1, 0.3, 0.5, seed=0)
        assert oracle.samples_drawn == (0,)

    def test_majority_reader_reads_a_run_in_one_draw(self):
        """On a product source, reading [1, p_1 ... p_R] as one row gives the
        bits, bill and sample count of two reads, [1] and then the rest."""
        p = coordinate_noise_dist("1" * 64, np.full(64, 0.3))
        positions = np.concatenate([[1], new_rng(2).integers(1, 65, size=16)])
        one = _MajorityView(BilledOracle([p], seed=9), 5)
        two = _MajorityView(BilledOracle([p], seed=9), 5)
        bits = one.query_block(range(1), positions[None, :])
        split = np.concatenate(
            [two.query_block(range(1), positions[None, :1]),
             two.query_block(range(1), positions[None, 1:])], axis=1
        )
        assert bits.shape == (1, 17) and np.array_equal(bits, split)
        for view in (one, two):
            assert view._oracle.queries_used == 5 * 17
            assert view._oracle.samples_drawn == (5 * 17,)
            assert view.calls == 17


class TestCyclicShiftTester:
    def test_accepts_uniform_rotations(self):
        x = _bits_to_str(new_rng(0).integers(0, 2, size=64))
        p = shift_dist(x)
        for s in range(10):
            rep = cyclic_shift_tester(BilledOracle([p], seed=s), eps=0.25, seed=s)
            assert rep.accepted

    def test_rejects_two_far_atoms(self):
        p = mixture(
            [FiniteDistribution.point("0" * 128),
             FiniteDistribution.point("1" * 96 + "0" * 32)],
            [0.5, 0.5],
        )
        rejects = 0
        for s in range(20):
            rep = cyclic_shift_tester(BilledOracle([p], seed=s), eps=0.25, seed=s)
            rejects += not rep.accepted
        assert rejects >= 18

    def test_budget_recount_matches_oracle_bill(self):
        x = _bits_to_str(new_rng(1).integers(0, 2, size=64))
        p = shift_dist(x)
        for mode in ["plain", "staged"]:
            rep = cyclic_shift_tester(BilledOracle([p], seed=2), eps=0.25, seed=2, mode=mode)
            assert rep.trace["budget"]["kind"] == "exact"
            assert rep.trace["budget"]["value"] == rep.queries_used

    def test_staged_mode_separates(self):
        x = _bits_to_str(new_rng(3).integers(0, 2, size=64))
        good = shift_dist(x)
        bad = mixture(
            [FiniteDistribution.point("0" * 64),
             FiniteDistribution.point("1" * 48 + "0" * 16)],
            [0.5, 0.5],
        )
        accepts = rejects = 0
        for s in range(10):
            rep = cyclic_shift_tester(BilledOracle([good], seed=s), 0.25, seed=s, mode="staged")
            accepts += rep.accepted
            rep = cyclic_shift_tester(BilledOracle([bad], seed=s), 0.25, seed=s, mode="staged")
            rejects += not rep.accepted
        assert accepts == 10
        assert rejects >= 8

    @pytest.mark.parametrize("eps", [0.9, 1.0])
    def test_staged_large_eps_still_compares(self, eps):
        # round 1's raw size falls below one sample here; it still runs
        p = shift_dist("0110100110010110")
        for s in range(5):
            rep = cyclic_shift_tester(BilledOracle([p], seed=s), eps, seed=s, mode="staged")
            assert [step["samples"] for step in rep.trace["schedule"]] == [1]
            assert rep.accepted and rep.trace["comparisons_total"] == 1
            assert rep.trace["budget"]["value"] == rep.queries_used

    def test_unknown_mode(self):
        p = FiniteDistribution.point("0101")
        with pytest.raises(ValueError):
            cyclic_shift_tester(BilledOracle([p], seed=0), 0.5, seed=0, mode="bogus")


class TestShiftLawTester:
    def test_accepts_matching_uniform_law(self):
        x = _bits_to_str(new_rng(4).integers(0, 2, size=64))
        p = shift_dist(x)
        law = np.full(64, 1.0 / 64)
        accepts = 0
        for s in range(20):
            rep = shift_law_tester(BilledOracle([p], seed=s), law, eps=0.5, seed=s)
            accepts += rep.accepted
        assert accepts >= 16

    def test_rejects_far_two_atom_mixture(self):
        p = mixture(
            [FiniteDistribution.point("0" * 128),
             FiniteDistribution.point("1" * 96 + "0" * 32)],
            [0.5, 0.5],
        )
        law = np.full(128, 1.0 / 128)
        rejects = 0
        for s in range(10):
            rep = shift_law_tester(BilledOracle([p], seed=s), law, eps=0.5, seed=s)
            rejects += not rep.accepted
        assert rejects >= 9

    def test_law_must_be_rotation_invariant(self):
        p = FiniteDistribution.point("0" * 8)
        law = np.zeros(8)
        law[0] = law[1] = 0.5
        with pytest.raises(ValueError, match="invariant"):
            shift_law_tester(BilledOracle([p], seed=0), law, eps=0.5, seed=0)

    def test_law_vector_validation(self):
        p = FiniteDistribution.point("0" * 8)
        with pytest.raises(ValueError):
            shift_law_tester(BilledOracle([p], seed=0), np.full(7, 1 / 7), 0.5, seed=0)
        with pytest.raises(ValueError):
            shift_law_tester(BilledOracle([p], seed=0), np.full(8, 0.2), 0.5, seed=0)

    def test_budget_counts_reference_positions_once(self):
        x = _bits_to_str(new_rng(5).integers(0, 2, size=64))
        p = shift_dist(x)
        rep = shift_law_tester(BilledOracle([p], seed=6), np.full(64, 1 / 64), 0.5, seed=6)
        sizes = rep.trace["sizes"]
        sa = sizes["samples"][0]
        want = sa * sizes["positions"] + sizes["reference_positions"]
        assert rep.trace["budget"]["kind"] == "exact"
        assert rep.queries_used == want == rep.trace["budget"]["value"]


def _adjacency(v: int, edges) -> np.ndarray:
    mat = np.zeros((v, v), dtype=np.uint8)
    for a, b in edges:
        mat[a, b] = mat[b, a] = 1
    return mat


class TestGraphCopiesTester:
    def test_accepts_copies_of_one_graph(self):
        path5 = _adjacency(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        cycle5 = _adjacency(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        for adj in [path5, cycle5]:
            p = iso_copies_dist(adj)
            for s in range(5):
                rep = graph_copies_tester(BilledOracle([p], seed=s), eps=0.5, seed=s)
                assert rep.accepted

    def test_rejects_mixture_of_two_graphs(self):
        path5 = iso_copies_dist(_adjacency(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
        star5 = iso_copies_dist(_adjacency(5, [(0, 1), (0, 2), (0, 3), (0, 4)]))
        p = mixture([path5, star5], [0.5, 0.5])
        rejects = 0
        for s in range(30):
            rep = graph_copies_tester(BilledOracle([p], seed=s), eps=0.5, seed=s)
            rejects += not rep.accepted
        assert rejects >= 22

    def test_budget_bound_and_caching(self):
        p = iso_copies_dist(_adjacency(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
        rep = graph_copies_tester(BilledOracle([p], seed=0), eps=0.5, seed=0)
        assert rep.trace["budget"]["kind"] == "bound"
        # full reads with per-handle caching: at most 25 queries per sample
        assert rep.queries_used <= rep.trace["sizes"]["samples"] * 25
        assert rep.queries_used <= rep.trace["budget"]["value"]

    def test_budget_is_one_full_read_per_sample(self):
        # Each of the t samples, the reference included, is read once.
        p = iso_copies_dist(_adjacency(4, [(0, 1), (1, 2), (2, 3)]))
        rep = graph_copies_tester(BilledOracle([p], seed=0), eps=0.5, seed=0)
        t = rep.trace["sizes"]["samples"]
        assert rep.trace["budget"] == {"kind": "bound", "value": t * 16, "form": "t * n"}
        assert rep.queries_used <= t * 16

    def test_needs_square_length(self):
        p = FiniteDistribution.point("0" * 12)
        with pytest.raises(ValueError):
            graph_copies_tester(BilledOracle([p], seed=0), eps=0.5, seed=0)
