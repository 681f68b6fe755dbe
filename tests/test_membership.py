"""Tests for string-property testers, self-correction, and the
distribution-level membership testers built on them."""

import math
import tracemalloc

import numpy as np
import pytest

from probedist.constants import DEFAULT_CONSTANTS
from probedist.core import BilledOracle, FiniteDistribution, new_rng
from probedist.generators import code_lift, hadamard_code, mixture
from probedist.harness import wilson_interval
from probedist.std_testers import SupportInner
from probedist.strings import (
    ConstantTester,
    CorrectableProperty,
    ExactIsomorphismTester,
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


def _sample_of(bits, seed=0):
    """An oracle over the point mass on ``bits`` and a 1-sample batch of it."""
    oracle = BilledOracle([FiniteDistribution.point(_bits_to_str(bits))], seed=seed)
    return oracle, oracle.draw(1)


def _passes(tester, oracle, batch, eps, seed) -> bool:
    """One run of ``tester`` on the single sample of ``batch``."""
    ok = tester.test_batch(oracle, batch, eps, new_rng(seed))
    assert ok.shape == (1, 1)
    return bool(ok[0, 0])


def _codeword_dist(k: int, messages) -> FiniteDistribution:
    return code_lift(hadamard_code(k), FiniteDistribution.uniform_over(messages))


def _traced_peak(call):
    """(result, tracemalloc peak in bytes) of ``call()``."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The int64 probe positions of one unchunked call of the large-batch tests
# below would fill this; the batch primitives must stay far under it.
_UNCHUNKED_BYTES = 256 * 2**20


def _stacked_linearity(reader, batch, eps, rng, repeats):
    """``LinearityTester.test_batch`` on one chunk, probes built by np.stack."""
    n, k = reader.n, len(batch)
    r = LinearityTester().query_budget(n, eps) // 3
    a = rng.integers(0, n, size=(k, repeats, r))
    b = rng.integers(0, n, size=(k, repeats, r))
    pos = np.stack([a, b, a ^ b], axis=-1).reshape(k, repeats * r * 3)
    pos += 1
    bits = reader.query_block(batch, pos).reshape(k, repeats, r, 3)
    return ((bits[..., 0] ^ bits[..., 1]) == bits[..., 2]).all(axis=2)


def _stacked_correction(reader, batch, positions, rng, repeats):
    """``HadamardCorrector.correct_batch`` on one chunk, probes built by
    np.stack and votes counted through an int8 call per repeat."""
    k = len(batch)
    a = np.asarray(positions, dtype=np.int64) - 1
    if a.ndim == 1:
        a = np.broadcast_to(a, (k, a.size))
    L = a.shape[1]
    r = rng.integers(0, reader.n, size=(k, L, repeats, 2))
    pos = np.stack([a[:, :, None, None] ^ r, r], axis=-1).reshape(k, L * repeats * 4)
    pos += 1
    bits = reader.query_block(batch, pos).reshape(k, L, repeats, 2, 2)
    est = bits[..., 0] ^ bits[..., 1]
    call = np.where(est[..., 0] == est[..., 1], est[..., 0], -1).astype(np.int8)
    ones = (call == 1).sum(axis=2)
    zeros = (call == 0).sum(axis=2)
    return np.where(2 * ones > repeats, 1, np.where(2 * zeros > repeats, 0, -1)).astype(np.int8)


@pytest.mark.parametrize("n", [1, 128, 1000, 4096, 1 << 20])
def test_int32_probe_draws_repeat_the_int64_stream(n):
    """The batch bodies draw probe positions as int32.  For ranges below
    2^32 numpy gives the values of the int64 draw and leaves the generator
    in the same state, so the next draw matches too."""
    narrow, wide = new_rng(n), new_rng(n)
    for size in [(3, 5, 7), (2, 1, 9, 2)]:
        got = narrow.integers(0, n, size=size, dtype=np.int32)
        want = wide.integers(0, n, size=size)
        assert got.dtype == np.int32 and np.array_equal(got, want)
        assert narrow.integers(0, 2**40) == wide.integers(0, 2**40)
        assert narrow.random() == wide.random()


@pytest.mark.parametrize("seed", range(8))
def test_batch_bodies_match_the_stacked_probe_construction(seed):
    """The batch bodies build their probes in one buffer; verdicts, corrected
    bits, bills and the generator state after each call must equal those of
    the np.stack construction they replace.

    Tables are linear ones with up to a quarter of their bits flipped, so
    linearity runs pass and fail, and corrector calls agree, disagree and
    tie.  Batches are a draw's or handles in any order with repeats, and
    corrector positions are shared or one row per sample.
    """
    rng = new_rng(seed)
    k = int(rng.integers(3, 7))
    n = 1 << k
    tables = set()
    for coeff in rng.integers(0, n, size=4):
        table = _linear_table(k, int(coeff))
        table[rng.choice(n, size=int(rng.integers(0, n // 4 + 1)), replace=False)] ^= 1
        tables.add(_bits_to_str(table))
    p = FiniteDistribution.uniform_over(sorted(tables))
    oracles = [BilledOracle([p], seed=seed) for _ in range(2)]
    count = int(rng.integers(1, 12))
    drawn = [o.draw(count) for o in oracles]
    if seed % 2:
        idx = rng.integers(0, len(drawn[0]), size=int(rng.integers(1, 16)))
        drawn = [[d[int(i)] for i in idx] for d in drawn]
    samples = len(drawn[0])
    repeats = int(rng.integers(1, 6))
    eps = float(rng.uniform(0.1, 1.0))
    positions = rng.integers(1, n + 1, size=int(rng.integers(1, n + 1)))
    if seed % 4 >= 2:
        positions = rng.integers(1, n + 1, size=(samples, positions.size))
    calls = [
        (
            lambda o, b, g: LinearityTester().test_batch(o, b, eps, g, repeats),
            lambda o, b, g: _stacked_linearity(o, b, eps, g, repeats),
        ),
        (
            lambda o, b, g: HadamardCorrector().correct_batch(o, b, positions, g, repeats),
            lambda o, b, g: _stacked_correction(o, b, positions, g, repeats),
        ),
    ]
    for new, old in calls:
        gens = [new_rng(seed + 100) for _ in range(2)]
        got = new(oracles[0], drawn[0], gens[0])
        want = old(oracles[1], drawn[1], gens[1])
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert gens[0].bit_generator.state == gens[1].bit_generator.state
        assert oracles[0].queries_used == oracles[1].queries_used


class TestLinearityTester:
    def test_accepts_exact_linear_tables(self):
        t = LinearityTester()
        for coeff in [0, 1, 19, 63]:
            oracle, batch = _sample_of(_linear_table(6, coeff), seed=coeff)
            for s in range(5):
                assert _passes(t, oracle, batch, 0.25, s)

    def test_rejects_maximally_nonlinear_table(self):
        bent = _bent_table_6()
        tables = ((((np.arange(64)[:, None] >> np.arange(6)) & 1) @
                   (((np.arange(64)[:, None] >> np.arange(6)) & 1).T)) % 2)
        nearest = (tables != bent[:, None]).mean(axis=0).min()
        assert nearest >= 0.4
        t = LinearityTester()
        oracle, batch = _sample_of(bent)
        rejects = sum(not _passes(t, oracle, batch, 0.25, s) for s in range(50))
        assert rejects >= 45

    def test_query_budget(self):
        t = LinearityTester()
        assert t.query_budget(64, 0.25) == 3 * math.ceil(3.0 / 0.25)

    def test_needs_power_of_two_length(self):
        oracle, batch = _sample_of(np.zeros(12, dtype=np.uint8))
        with pytest.raises(ValueError, match="n = 2"):
            LinearityTester().query_budget(12, 0.5)
        with pytest.raises(ValueError, match="n = 2"):
            LinearityTester().test_batch(oracle, batch, 0.5, new_rng(0))
        assert oracle.queries_used == 0

    def test_batch_all_pass_on_members(self):
        p = _codeword_dist(6, ["110000", "100010", "001101", "111100"])
        oracle = BilledOracle([p], seed=1)
        batch = oracle.draw(6)
        ok = LinearityTester().test_batch(oracle, batch, 0.5, new_rng(2), repeats=2)
        assert ok.shape == (6, 2)
        assert ok.all()

    def test_batch_memory_stays_bounded_on_large_batches(self):
        p = _codeword_dist(6, ["110000", "100010", "001101", "111100"])
        oracle = BilledOracle([p], seed=1)
        batch = oracle.draw(1200)
        t, eps, repeats = LinearityTester(), 0.01, 32
        assert len(batch) * repeats * t.query_budget(64, eps) * 8 >= _UNCHUNKED_BYTES
        ok, peak = _traced_peak(
            lambda: t.test_batch(oracle, batch, eps, new_rng(2), repeats=repeats)
        )
        assert ok.shape == (1200, repeats)
        assert ok.all()
        assert peak < _UNCHUNKED_BYTES / 2


class TestConstantTester:
    def test_accepts_constant_strings(self):
        t = ConstantTester()
        for bits in [np.zeros(32, np.uint8), np.ones(32, np.uint8)]:
            oracle, batch = _sample_of(bits)
            assert all(_passes(t, oracle, batch, 0.25, s) for s in range(10))

    def test_rejects_balanced_string(self):
        t = ConstantTester()
        bits = np.arange(32) % 2
        oracle, batch = _sample_of(bits)
        rejects = sum(not _passes(t, oracle, batch, 0.25, s) for s in range(30))
        assert rejects >= 28

    def test_query_budget(self):
        assert ConstantTester().query_budget(100, 0.25) == 1 + math.ceil(4.0 / 0.25)

    def test_batch_reads_position_one_with_each_run_in_one_call(self):
        """Each run reads [1, p_1 ... p_R] in one query_block call; a sample
        whose other bits all differ from bit 1 fails every run."""
        oracle = BilledOracle([FiniteDistribution.uniform_over(["0" + "1" * 31, "1" * 32])], 0)
        batch = oracle.draw(6)
        calls = []
        real = oracle.query_block

        def recording(b, pos):
            calls.append(np.asarray(pos))
            return real(b, pos)

        oracle.query_block = recording
        t, eps, repeats = ConstantTester(), 0.25, 3
        ok = t.test_batch(oracle, batch, eps, new_rng(1), repeats=repeats)
        width = t.query_budget(32, eps)
        assert len(calls) == 1 and calls[0].shape == (6, repeats * width)
        assert (calls[0].reshape(6, repeats, width)[..., 0] == 1).all()
        first = oracle.query_block(batch, [1])[:, 0]
        assert np.array_equal(ok, np.repeat((first == 1)[:, None], repeats, axis=1))


def _adj_string(v: int, edges, perm=None) -> str:
    mat = np.zeros((v, v), dtype=np.uint8)
    for a, b in edges:
        if perm is not None:
            a, b = perm[a], perm[b]
        mat[a, b] = mat[b, a] = 1
    return _bits_to_str(mat.reshape(-1))


class TestExactIsomorphismTester:
    def _samples(self, sa: str, sb: str):
        oracle = BilledOracle(
            [FiniteDistribution.point(sa), FiniteDistribution.point(sb)], seed=0
        )
        return oracle, oracle.draw(1, source=0), oracle.draw(1, source=1)

    def test_accepts_relabeled_path(self):
        path = [(0, 1), (1, 2), (2, 3)]
        sa = _adj_string(4, path)
        sb = _adj_string(4, path, perm=[2, 0, 3, 1])
        oracle, a, b = self._samples(sa, sb)
        assert ExactIsomorphismTester().test(oracle, a, b, 0.5, new_rng(0))

    def test_rejects_path_vs_star(self):
        sa = _adj_string(4, [(0, 1), (1, 2), (2, 3)])
        sb = _adj_string(4, [(0, 1), (0, 2), (0, 3)])
        oracle, a, b = self._samples(sa, sb)
        assert not ExactIsomorphismTester().test(oracle, a, b, 0.5, new_rng(0))

    def test_canonical_forms_are_cached(self):
        sa = _adj_string(4, [(0, 1), (1, 2), (2, 3)])
        oracle, a, b = self._samples(sa, sa)
        t = ExactIsomorphismTester()
        t.test(oracle, a, b, 0.5, new_rng(0))
        spent = oracle.queries_used
        assert spent == 32
        assert t.test(oracle, a, b, 0.5, new_rng(1))
        assert oracle.queries_used == spent

    def test_cache_keeps_only_the_current_oracle(self):
        sa = _adj_string(4, [(0, 1), (1, 2), (2, 3)])
        t = ExactIsomorphismTester()
        for _ in range(50):
            oracle, a, b = self._samples(sa, sa)
            assert t.test(oracle, a, b, 0.5, new_rng(0))
            assert len(t._cache) == 2

    def test_rejects_non_square_length(self):
        oracle, batch = _sample_of(np.zeros(12, np.uint8))
        with pytest.raises(ValueError):
            ExactIsomorphismTester()._canonical(oracle, batch)

    def test_vertex_cap(self):
        oracle, batch = _sample_of(np.zeros(64, np.uint8))
        with pytest.raises(ValueError):
            ExactIsomorphismTester()._canonical(oracle, batch)
        assert ExactIsomorphismTester(max_vertices=8)._canonical(oracle, batch)


class TestHadamardCorrector:
    def test_recovers_exact_member_bits(self):
        table = _linear_table(6, 37)
        oracle, batch = _sample_of(table)
        c = HadamardCorrector()
        rng = new_rng(3)
        for pos in range(1, 65):
            got = c.correct_batch(oracle, batch, [pos], rng, repeats=1)
            assert got[0, 0] == int(table[pos - 1])

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

    def test_batch_memory_stays_bounded_on_large_batches(self):
        p = _codeword_dist(6, ["010001", "101100", "111111"])
        oracle = BilledOracle([p], seed=2)
        batch = oracle.draw(1024)
        positions, repeats = np.arange(1, 65), 129
        assert len(batch) * positions.size * repeats * 4 * 8 >= _UNCHUNKED_BYTES
        got, peak = _traced_peak(
            lambda: HadamardCorrector().correct_batch(
                oracle, batch, positions, new_rng(1), repeats=repeats
            )
        )
        assert np.array_equal(got, oracle.query_block(batch, positions))
        assert peak < _UNCHUNKED_BYTES / 2

    def test_batch_rejects_bad_position_shape(self):
        p = _codeword_dist(6, ["010001", "101100"])
        oracle = BilledOracle([p], seed=2)
        batch = oracle.draw(3)
        with pytest.raises(ValueError):
            HadamardCorrector().correct_batch(
                oracle, batch, np.ones((2, 4), dtype=np.int64), new_rng(0), repeats=3
            )


    @pytest.mark.parametrize("position", [0, 65, 2**32 + 1])
    def test_batch_rejects_positions_outside_the_string(self, position):
        # 2^32 + 1 would wrap to 1 in the int32 probe arrays
        p = _codeword_dist(6, ["010001", "101100"])
        oracle = BilledOracle([p], seed=2)
        batch = oracle.draw(3)
        with pytest.raises(ValueError, match="outside"):
            HadamardCorrector().correct_batch(
                oracle, batch, np.array([1, position]), new_rng(0), repeats=3
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

    @pytest.mark.parametrize("mode", ["plain", "staged"])
    @pytest.mark.parametrize(
        "strings, member",
        [(["0" * 64, "1" * 64], True), (["01" * 32, "0011" * 16], False)],
        ids=["constant", "balanced"],
    )
    def test_constant_property_monte_carlo(self, mode, strings, member):
        """membership_tester(ConstantTester()) accepts a mixture of constant
        strings and rejects one of balanced strings, which are 1/2-far from
        constant; the budget law holds in every trial."""
        p = FiniteDistribution.uniform_over(strings)
        trials, correct = 30, 0
        for s in range(trials):
            rep = membership_tester(
                BilledOracle([p], seed=s), ConstantTester(), 0.25, seed=1000 + s, mode=mode
            )
            assert rep.trace["budget"]["kind"] == "bound"
            assert sum(rep.samples_used) <= rep.queries_used <= rep.trace["budget"]["value"]
            correct += rep.accepted == member
        if member:
            assert correct == trials  # one-sided
        assert wilson_interval(correct, trials)[0] >= 2 / 3

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

    def test_member_trial_peaks_under_32_mib(self):
        """One criterion-8 member trial (4 codewords, k = 7, eps 0.25).

        Its widest read is 512 samples x 4,200 corrector probes.  Building
        them through np.stack of int64 temporaries peaked at 37.6 MiB.
        """
        p = _codeword_dist(7, ["1100000", "1000101", "0011011", "1111000"])
        rep, peak = _traced_peak(
            lambda: self_correcting_tester(
                BilledOracle([p], seed=800_000), hadamard_property(7), SupportInner(m=4),
                0.25, seed=801_000_003,
            )
        )
        assert rep.accepted
        assert peak < 32 * 2**20

    def test_sizes_follow_inner_budget_at_clamped_proximity(self):
        p = _codeword_dist(7, ["1100000", "1000101"])
        prop = hadamard_property(7)
        inner = SupportInner(m=2)
        rep = self_correcting_tester(BilledOracle([p], seed=0), prop, inner, 0.5, seed=0)
        # eps clamps to the correction radius before the inner budget is set
        eps_eff = min(0.5, prop.delta)
        assert rep.trace["sizes"]["inner_samples"] == inner.sample_count(eps_eff / 2)
        assert rep.trace["params"]["delta"] == 0.125
