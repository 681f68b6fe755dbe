"""Tests for string-property testers, self-correction, and the
distribution-level membership testers built on them."""

import math

import numpy as np
import pytest

from probedist.constants import DEFAULT_CONSTANTS
from probedist.core import BilledOracle, FiniteDistribution, SampleView, new_rng
from probedist.generators import code_lift, hadamard_code, mixture
from probedist.std_testers import SupportInner
from probedist.strings import (
    ConstantTester,
    CorrectableProperty,
    ExactIsomorphismTester,
    FullReadTester,
    HadamardCorrector,
    LinearityTester,
    hadamard_property,
)
from probedist.testers import membership_tester, self_correcting_tester


def _bits_to_str(bits) -> str:
    return "".join("01"[int(b)] for b in bits)


def _linear_table(k: int, coeff: int) -> np.ndarray:
    pts = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    cvec = (coeff >> np.arange(k)) & 1
    return ((pts @ cvec) % 2).astype(np.uint8)


def _bent_table_6() -> np.ndarray:
    """Truth table of x0x1 + x2x3 + x4x5 over GF(2); maximally nonlinear."""
    p = np.arange(64)
    b = [(p >> i) & 1 for i in range(6)]
    return ((b[0] & b[1]) ^ (b[2] & b[3]) ^ (b[4] & b[5])).astype(np.uint8)


def _view_of(bits, seed=0):
    oracle = BilledOracle([FiniteDistribution.point(_bits_to_str(bits))], seed=seed)
    return oracle, SampleView(oracle, oracle.draw(1)[0])


def _codeword_dist(k: int, messages) -> FiniteDistribution:
    return code_lift(hadamard_code(k), FiniteDistribution.uniform_over(messages))


class TestLinearityTester:
    def test_accepts_exact_linear_tables(self):
        t = LinearityTester()
        for coeff in [0, 1, 19, 63]:
            _, view = _view_of(_linear_table(6, coeff), seed=coeff)
            for s in range(5):
                assert t.test(view, 0.25, new_rng(s))

    def test_rejects_maximally_nonlinear_table(self):
        bent = _bent_table_6()
        tables = ((((np.arange(64)[:, None] >> np.arange(6)) & 1) @
                   (((np.arange(64)[:, None] >> np.arange(6)) & 1).T)) % 2)
        nearest = (tables != bent[:, None]).mean(axis=0).min()
        assert nearest >= 0.4
        t = LinearityTester()
        _, view = _view_of(bent)
        rejects = sum(not t.test(view, 0.25, new_rng(s)) for s in range(50))
        assert rejects >= 45

    def test_query_budget(self):
        t = LinearityTester()
        assert t.query_budget(64, 0.25) == 3 * math.ceil(3.0 / 0.25)

    def test_needs_power_of_two_length(self):
        _, view = _view_of(np.zeros(12, dtype=np.uint8))
        with pytest.raises(ValueError):
            LinearityTester().test(view, 0.5, new_rng(0))

    def test_batch_all_pass_on_members(self):
        p = _codeword_dist(6, ["110000", "100010", "001101", "111100"])
        oracle = BilledOracle([p], seed=1)
        batch = oracle.draw(6)
        ok = LinearityTester().test_batch(oracle, batch, 0.5, new_rng(2), repeats=2)
        assert ok.shape == (6, 2)
        assert ok.all()


class TestConstantTester:
    def test_accepts_constant_strings(self):
        t = ConstantTester()
        for bits in [np.zeros(32, np.uint8), np.ones(32, np.uint8)]:
            _, view = _view_of(bits)
            assert all(t.test(view, 0.25, new_rng(s)) for s in range(10))

    def test_rejects_balanced_string(self):
        t = ConstantTester()
        bits = np.arange(32) % 2
        _, view = _view_of(bits)
        rejects = sum(not t.test(view, 0.25, new_rng(s)) for s in range(30))
        assert rejects >= 28

    def test_query_budget(self):
        assert ConstantTester().query_budget(100, 0.25) == 1 + math.ceil(4.0 / 0.25)


class TestFullReadTester:
    def test_exact_membership_and_cost(self):
        even_parity = lambda bits: int(np.sum(bits)) % 2 == 0
        t = FullReadTester(contains=even_parity)
        oracle, view = _view_of(np.array([1, 1, 0, 0], np.uint8))
        assert t.test(view, 0.5, new_rng(0))
        assert oracle.queries_used == 4
        assert t.query_budget(4, 0.5) == 4
        _, view_odd = _view_of(np.array([1, 0, 0, 0], np.uint8))
        assert not t.test(view_odd, 0.5, new_rng(0))


def _adj_string(v: int, edges, perm=None) -> str:
    mat = np.zeros((v, v), dtype=np.uint8)
    for a, b in edges:
        if perm is not None:
            a, b = perm[a], perm[b]
        mat[a, b] = mat[b, a] = 1
    return _bits_to_str(mat.reshape(-1))


class TestExactIsomorphismTester:
    def _views(self, sa: str, sb: str):
        oracle = BilledOracle(
            [FiniteDistribution.point(sa), FiniteDistribution.point(sb)], seed=0
        )
        va = SampleView(oracle, oracle.draw(1, source=0)[0])
        vb = SampleView(oracle, oracle.draw(1, source=1)[0])
        return oracle, va, vb

    def test_accepts_relabeled_path(self):
        path = [(0, 1), (1, 2), (2, 3)]
        sa = _adj_string(4, path)
        sb = _adj_string(4, path, perm=[2, 0, 3, 1])
        _, va, vb = self._views(sa, sb)
        assert ExactIsomorphismTester().test(va, vb, 0.5, new_rng(0))

    def test_rejects_path_vs_star(self):
        sa = _adj_string(4, [(0, 1), (1, 2), (2, 3)])
        sb = _adj_string(4, [(0, 1), (0, 2), (0, 3)])
        _, va, vb = self._views(sa, sb)
        assert not ExactIsomorphismTester().test(va, vb, 0.5, new_rng(0))

    def test_canonical_forms_are_cached(self):
        sa = _adj_string(4, [(0, 1), (1, 2), (2, 3)])
        oracle, va, vb = self._views(sa, sa)
        t = ExactIsomorphismTester()
        t.test(va, vb, 0.5, new_rng(0))
        spent = oracle.queries_used
        assert spent == 32
        assert t.test(va, vb, 0.5, new_rng(1))
        assert oracle.queries_used == spent

    def test_cache_keeps_only_the_current_oracle(self):
        sa = _adj_string(4, [(0, 1), (1, 2), (2, 3)])
        t = ExactIsomorphismTester()
        for _ in range(50):
            _, va, vb = self._views(sa, sa)
            assert t.test(va, vb, 0.5, new_rng(0))
            assert len(t._cache) == 2

    def test_rejects_non_square_length(self):
        _, view = _view_of(np.zeros(12, np.uint8))
        with pytest.raises(ValueError):
            ExactIsomorphismTester()._canonical(view)

    def test_vertex_cap(self):
        _, view = _view_of(np.zeros(64, np.uint8))
        with pytest.raises(ValueError):
            ExactIsomorphismTester()._canonical(view)
        assert ExactIsomorphismTester(max_vertices=8)._canonical(view)


class TestHadamardCorrector:
    def test_recovers_exact_member_bits(self):
        table = _linear_table(6, 37)
        _, view = _view_of(table)
        c = HadamardCorrector()
        rng = new_rng(3)
        for pos in range(1, 65):
            assert c.correct(view, pos, rng) == int(table[pos - 1])

    def test_batch_recovers_nearest_codeword_under_noise(self):
        table = _linear_table(6, 41)
        noisy = table.copy()
        flips = new_rng(5).choice(64, size=4, replace=False)
        noisy[flips] ^= 1
        oracle = BilledOracle([FiniteDistribution.point(_bits_to_str(noisy))], seed=0)
        batch = oracle.draw(1)
        got = HadamardCorrector().correct_batch(
            oracle, batch, np.arange(1, 65), new_rng(7), repeats=15
        )
        assert got.shape == (1, 64)
        assert (got >= 0).all()
        assert np.array_equal(got[0], table)

    def test_batch_per_row_positions(self):
        p = _codeword_dist(6, ["010001", "101100"])
        oracle = BilledOracle([p], seed=2)
        batch = oracle.draw(3)
        pos = np.array([[1, 5, 9], [2, 6, 10], [3, 7, 11]])
        got = HadamardCorrector().correct_batch(oracle, batch, pos, new_rng(1), repeats=9)
        assert got.shape == (3, 3)
        rows = oracle.query_block(batch, pos)
        assert np.array_equal(got, rows)

    def test_batch_rejects_bad_position_shape(self):
        p = _codeword_dist(6, ["010001", "101100"])
        oracle = BilledOracle([p], seed=2)
        batch = oracle.draw(3)
        with pytest.raises(ValueError):
            HadamardCorrector().correct_batch(
                oracle, batch, np.ones((2, 4), dtype=np.int64), new_rng(0), repeats=3
            )


class TestHadamardProperty:
    def test_contains_exact_members_only(self):
        prop = hadamard_property(6)
        table = _linear_table(6, 22)
        assert prop.contains(table)
        flipped = table.copy()
        flipped[9] ^= 1
        assert not prop.contains(flipped)
        assert not prop.contains(table[:32])

    def test_k_guard(self):
        with pytest.raises(ValueError):
            hadamard_property(0)
        with pytest.raises(ValueError):
            hadamard_property(21)

    def test_bundle_fields(self):
        prop = hadamard_property(4)
        assert prop.delta == 0.125
        assert isinstance(prop, CorrectableProperty)
        assert prop.tester.one_sided


class TestMembershipTester:
    def test_plain_accepts_codeword_supports(self):
        p = _codeword_dist(6, ["110000", "100010", "001101", "111100"])
        for s in range(20):
            rep = membership_tester(BilledOracle([p], seed=s), LinearityTester(), 0.25, seed=s)
            assert rep.accepted

    def test_plain_rejects_half_nonlinear_mixture(self):
        clean = FiniteDistribution.point(_bits_to_str(_linear_table(6, 9)))
        bad = FiniteDistribution.point(_bits_to_str(_bent_table_6()))
        p = mixture([clean, bad], [0.5, 0.5])
        rejects = 0
        for s in range(20):
            rep = membership_tester(BilledOracle([p], seed=s), LinearityTester(), 0.25, seed=s)
            rejects += not rep.accepted
        assert rejects >= 18

    def test_plain_trace_and_budget(self):
        p = _codeword_dist(6, ["110000", "100010"])
        oracle = BilledOracle([p], seed=0)
        rep = membership_tester(oracle, LinearityTester(), 0.25, seed=1)
        sizes = rep.trace["sizes"]
        c = DEFAULT_CONSTANTS
        assert sizes["samples"] == math.ceil(c.membership_samples / 0.25)
        assert sizes["runs_per_sample"] % 2 == 1
        assert sizes["proximity"] == 0.125
        assert rep.trace["budget"]["kind"] == "bound"
        assert rep.queries_used <= rep.trace["budget"]["value"]

    def test_staged_accepts_and_stays_within_bound(self):
        p = _codeword_dist(6, ["110000", "100010", "001101", "111100"])
        for s in range(10):
            rep = membership_tester(
                BilledOracle([p], seed=s), LinearityTester(), 0.25, seed=s, mode="staged"
            )
            assert rep.accepted
            assert len(rep.trace["schedule"]) == math.ceil(math.log2(16.0 / 0.25))
            assert rep.queries_used <= rep.trace["budget"]["value"]

    def test_staged_rejects_and_stops_early(self):
        bad = FiniteDistribution.point(_bits_to_str(_bent_table_6()))
        rejects = 0
        spent = []
        for s in range(10):
            rep = membership_tester(
                BilledOracle([bad], seed=s), LinearityTester(), 0.25, seed=s, mode="staged"
            )
            rejects += not rep.accepted
            spent.append(rep.queries_used)
        assert rejects == 10
        # every sample is blatantly far, so the first round already rejects
        assert max(spent) < rep.trace["budget"]["value"] / 4

    def test_unknown_mode(self):
        p = _codeword_dist(6, ["110000"])
        with pytest.raises(ValueError):
            membership_tester(BilledOracle([p], seed=0), LinearityTester(), 0.25, 0, mode="bogus")


class TestSelfCorrectingTester:
    def test_accepts_codeword_support_within_bound(self):
        p = _codeword_dist(7, ["1100000", "1000101", "0011011", "1111000"])
        prop = hadamard_property(7)
        for s in range(4):
            rep = self_correcting_tester(
                BilledOracle([p], seed=s), prop, SupportInner(m=4), 0.25, seed=s
            )
            assert rep.accepted
            assert "reject_stage" not in rep.trace
            assert rep.trace["budget"]["kind"] == "bound"
            assert rep.queries_used <= rep.trace["budget"]["value"]

    def test_inner_stage_rejects_oversized_support(self):
        msgs = [f"{i:07b}"[::-1] for i in [1, 2, 4, 8, 16, 32, 64, 127]]
        p = _codeword_dist(7, msgs)
        prop = hadamard_property(7)
        for s in range(4):
            rep = self_correcting_tester(
                BilledOracle([p], seed=s), prop, SupportInner(m=4), 0.25, seed=s
            )
            assert not rep.accepted
            assert rep.trace["reject_stage"] == "inner"

    def test_screen_stage_rejects_far_strings(self):
        rows = new_rng(8).integers(0, 2, size=(8, 128)).astype(np.uint8)
        p = FiniteDistribution.uniform_over([_bits_to_str(r) for r in rows])
        prop = hadamard_property(7)
        for s in range(3):
            rep = self_correcting_tester(
                BilledOracle([p], seed=s), prop, SupportInner(m=8), 0.25, seed=s
            )
            assert not rep.accepted
            assert rep.trace["reject_stage"] == "screen-membership"

    def test_rejects_noised_codeword_beyond_radius(self):
        table = hadamard_code(7).encode([1, 0, 1, 0, 0, 1, 1])
        noisy = table.copy()
        noisy[new_rng(5).choice(128, size=26, replace=False)] ^= 1
        p = FiniteDistribution.point(_bits_to_str(noisy))
        prop = hadamard_property(7)
        for s in range(3):
            rep = self_correcting_tester(
                BilledOracle([p], seed=s), prop, SupportInner(m=1), 0.25, seed=s
            )
            assert not rep.accepted
            assert rep.trace["reject_stage"] in {"screen-membership", "screen-correction"}

    def test_sizes_follow_inner_budget_at_clamped_proximity(self):
        p = _codeword_dist(7, ["1100000", "1000101"])
        prop = hadamard_property(7)
        inner = SupportInner(m=2)
        rep = self_correcting_tester(BilledOracle([p], seed=0), prop, inner, 0.5, seed=0)
        # eps clamps to the correction radius before the inner budget is set
        eps_eff = min(0.5, prop.delta)
        assert rep.trace["sizes"]["inner_samples"] == inner.sample_count(eps_eff / 2)
        assert rep.trace["params"]["delta"] == 0.125
