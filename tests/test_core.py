import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from probedist import core
from probedist.core import (
    BilledOracle,
    BudgetLawError,
    FiniteDistribution,
    ImplicitDistribution,
    SampleBatch,
    TesterReport,
    _as_bit_array,
    _exact_unit_weights,
    _merge_rows,
    finish_report,
    new_rng,
    pack_rows,
    random_subset,
)
from probedist.generators import coordinate_noise_dist
from probedist.strings import ConstantTester
from probedist.testers import noisy_membership_tester, support_tester


def test_new_rng_deterministic():
    a = new_rng(123).integers(0, 2, size=32)
    b = new_rng(123).integers(0, 2, size=32)
    assert np.array_equal(a, b)


def test_new_rng_passthrough():
    g = new_rng(5)
    assert new_rng(g) is g


def test_random_subset_basic():
    rng = new_rng(0)
    s = random_subset(rng, 50, 10)
    assert s.shape == (10,)
    assert len(set(s.tolist())) == 10
    assert s.min() >= 1 and s.max() <= 50
    assert np.array_equal(s, np.sort(s))


def test_random_subset_full():
    rng = new_rng(0)
    assert np.array_equal(random_subset(rng, 7, 7), np.arange(1, 8))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.data())
def test_random_subset_properties(n, data):
    size = data.draw(st.integers(1, n))
    s = random_subset(new_rng(data.draw(st.integers(0, 2**32))), n, size)
    assert s.size == size
    assert len(set(s.tolist())) == size
    assert 1 <= s.min() and s.max() <= n


def _floyd_one_call_per_step(rng, n, size):
    """Floyd's algorithm with one ``rng.integers`` call per step: the
    reference that ``random_subset`` must match draw for draw."""
    if size == n:
        return np.arange(1, n + 1, dtype=np.int64)
    chosen: set[int] = set()
    for j in range(n - size + 1, n + 1):
        t = int(rng.integers(1, j + 1))
        chosen.add(j if t in chosen else t)
    return np.array(sorted(chosen), dtype=np.int64)


def _assert_subsets_match_floyd(n, size, seeds):
    for seed in seeds:
        fast, slow = new_rng(seed), new_rng(seed)
        subset = random_subset(fast, n, size)
        assert subset.dtype == np.int64, (n, size, seed)
        assert np.array_equal(subset, _floyd_one_call_per_step(slow, n, size)), (n, size, seed)
        assert fast.integers(0, 2**62) == slow.integers(0, 2**62), (n, size, seed)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_random_subset_consumes_the_stream_like_one_call_per_step(data):
    """One array-bounded ``rng.integers`` call draws what Floyd's loop of
    scalar calls draws, so subsets and the generator's next draw agree, from
    n = 1 to 2^40; sizes run up to n while n is small, and crowded subsets
    resolve many collisions."""
    n = data.draw(st.one_of(st.integers(1, 512), st.integers(1, 2**40)))
    size = data.draw(st.integers(0, min(n, 512)))
    _assert_subsets_match_floyd(n, size, [data.draw(st.integers(0, 2**32))])


@pytest.mark.parametrize("n, size", [(65536, 258), (4096, 563), (128, 18)])
def test_random_subset_matches_floyd_at_workload_sizes(n, size):
    """2,000 seeds each at the sizes the benchmark workloads draw.  At 258
    of 2^16 about two calls in five repeat a draw; at 563 of 4,096 a call
    has dozens of draws at or past n - size + 1."""
    _assert_subsets_match_floyd(n, size, range(2000))


@pytest.mark.parametrize(
    "n, size",
    [(50, 49), (1000, 999), (50, 25), (1001, 500), (50, 0), (50, 1), (50, 50), (1, 0), (1, 1)],
)
def test_random_subset_matches_floyd_when_crowded_and_at_the_ends(n, size):
    """Crowded subsets (size n - 1 or about n / 2), where most steps replay,
    and sizes 0, 1 and n."""
    _assert_subsets_match_floyd(n, size, range(300))


def test_pack_rows_keys():
    rng = new_rng(3)
    rows = rng.integers(0, 2, size=(64, 13), dtype=np.uint8)
    keys = pack_rows(rows)
    uniq_rows = np.unique(rows, axis=0).shape[0]
    assert len(set(keys.tolist())) == uniq_rows
    assert (pack_rows(rows) == keys).all()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_packed_keys_order_rows_like_byte_keys(data):
    """Bit-packed keys sort, group and merge rows as one-byte-per-bit keys do.

    Widths run 1-200, across the 64-column cut between uint64 and packed-byte
    keys.  Rows repeat, and half the time they are a base row with a few
    flipped bits, so rows first differ at any depth, not only in the first
    byte.  The byte keys are the void views the keys used to be.
    """
    width = data.draw(st.integers(1, 200))
    count = data.draw(st.integers(1, 60))
    distinct = data.draw(st.integers(1, count))
    rng = new_rng(data.draw(st.integers(0, 2**32)))
    if data.draw(st.booleans()):
        pool = rng.integers(0, 2, size=(distinct, width), dtype=np.uint8)
    else:
        pool = np.tile(rng.integers(0, 2, size=width, dtype=np.uint8), (distinct, 1))
        for row in pool:
            row[rng.integers(0, width, size=rng.integers(0, 4))] ^= 1
    rows = pool[rng.integers(0, distinct, size=count)]
    keys = pack_rows(rows)
    byte_keys = np.ascontiguousarray(rows).view((np.void, width)).reshape(count)
    assert keys.dtype == np.uint64 if width <= 64 else keys.dtype.kind == "V"
    _, inverse = np.unique(keys, return_inverse=True)
    byte_uniq, byte_inverse = np.unique(byte_keys, return_inverse=True)
    assert np.array_equal(inverse, byte_inverse)
    assert np.array_equal(np.argsort(keys, kind="stable"), np.argsort(byte_keys, kind="stable"))
    weights = rng.random(count)
    uniq, sums = _merge_rows(rows, weights)
    assert np.array_equal(uniq, byte_uniq.view(np.uint8).reshape(byte_uniq.size, width))
    byte_sums = np.bincount(byte_inverse, weights=weights, minlength=byte_uniq.size)
    assert sums.tobytes() == byte_sums.tobytes()


def _merged_reference(rows, weights):
    """Equal rows merged by np.unique(axis=0) and np.add.at, residue on the last."""
    uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
    sums = np.zeros(uniq.shape[0])
    np.add.at(sums, inverse.reshape(-1), weights)
    sums[-1] += 1.0 - sums.sum()
    return uniq, sums


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_merged_matches_unique_and_add_at_bit_for_bit(data):
    cols = data.draw(st.integers(1, 40))
    count = data.draw(st.integers(1, 60))
    distinct = data.draw(st.integers(1, count))
    rng = new_rng(data.draw(st.integers(0, 2**32)))
    pool = rng.integers(0, 2, size=(distinct, cols), dtype=np.uint8)
    rows = pool[rng.integers(0, distinct, size=count)]
    raw = rng.random(count) + 1e-3
    weights = raw / raw.sum()
    p = FiniteDistribution.merged(rows, weights)
    uniq, sums = _merged_reference(rows, weights)
    assert np.array_equal(p.rows, uniq)
    assert p.weights.tobytes() == sums.tobytes()


def test_residue_never_leaves_an_atom_without_positive_weight():
    """A skewed last weight of about 1.6e-16 whose sum falls short by an ulp
    of one: the residue on the last atom would make it -6.2e-17, so it goes
    on the largest.  A last weight that stays positive takes the residue
    itself, bit for bit as before."""
    rng = new_rng(6635)
    rng.random(100)
    raw = rng.random(100) ** 12 + 1e-15
    weights = raw / raw.sum()
    assert weights[-1] + (1.0 - weights.sum()) <= 0.0
    fixed = _exact_unit_weights(weights)
    big = int(np.argmax(weights))
    assert fixed[-1] == weights[-1] and fixed[big] == weights[big] + (1.0 - weights.sum())
    assert np.all(fixed > 0.0) and abs(fixed.sum() - 1.0) <= core.WEIGHT_TOL
    # Big-endian rows of 0..99 are in lexicographic order, so merged keeps
    # them, and their weights, in place.
    rows = (np.arange(100)[:, None] >> np.arange(6, -1, -1) & 1).astype(np.uint8)
    assert FiniteDistribution.merged(rows, weights).weights.tobytes() == fixed.tobytes()
    plain = new_rng(1).random(50) + 1e-3
    plain /= plain.sum()
    want = plain.copy()
    want[-1] += 1.0 - want.sum()
    assert _exact_unit_weights(plain).tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_draw_atoms_matches_rng_choice_bit_for_bit(data):
    """Guide-table draws equal ``rng.choice(k, size=count, p=weights)`` and
    leave the generator where ``choice`` leaves it.

    Weights are even, random, skewed (a high power of uniforms), one tiny
    atom beside large ones, or integer counts over their total, each with
    the float residue of its sum placed as ``FiniteDistribution.merged``
    places it.
    """
    k = data.draw(st.integers(1, 100))
    count = data.draw(st.integers(1, 5000))
    rng = new_rng(data.draw(st.integers(0, 2**32)))
    shape = data.draw(st.sampled_from(["even", "random", "skewed", "tiny", "counts"]))
    raw = {
        "even": np.ones(k),
        "random": rng.random(k) + 1e-3,
        "skewed": rng.random(k) ** 12 + 1e-15,
        "tiny": np.concatenate([[1e-9], rng.random(k - 1) + 1.0])[:k],
        "counts": rng.integers(1, 7, size=k).astype(np.float64),
    }[shape]
    weights = _exact_unit_weights(raw / raw.sum())
    rows = (np.arange(k)[:, None] >> np.arange(7) & 1).astype(np.uint8)
    p = FiniteDistribution(rows=rows, weights=weights)
    seed = data.draw(st.integers(0, 2**32))
    mine, theirs = new_rng(seed), new_rng(seed)
    got = p.draw_atoms(mine, count)
    want = theirs.choice(k, size=count, p=weights)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert mine.random() == theirs.random()


class TestAsBitArray:
    MESSAGE = "bit strings contain only the characters 0 and 1"

    def test_empty_string_rejected(self):
        with pytest.raises(ValueError, match=self.MESSAGE):
            _as_bit_array("")

    @pytest.mark.parametrize("bits", ["0120", "01 0", "/01", "01a", "1O"])
    def test_other_characters_rejected(self, bits):
        with pytest.raises(ValueError, match=self.MESSAGE):
            _as_bit_array(bits)

    @pytest.mark.parametrize("bits", ["01\u00e9", "\u0660", "0\U0001d7d81"])
    def test_non_ascii_rejected(self, bits):
        with pytest.raises(ValueError, match=self.MESSAGE):
            _as_bit_array(bits)


class TestFiniteDistribution:
    def test_point(self):
        p = FiniteDistribution.point("1100")
        assert p.n == 4 and p.support_size == 1
        assert p.weights[0] == 1.0

    def test_uniform_over(self):
        p = FiniteDistribution.uniform_over(["00", "11"])
        assert p.support_size == 2
        assert np.allclose(p.weights, 0.5)

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(ValueError):
            FiniteDistribution(atoms=[("01", 0.5), ("01", 0.5)])

    def test_bad_weight_sum_rejected(self):
        with pytest.raises(ValueError):
            FiniteDistribution(atoms=[("01", 0.4), ("10", 0.4)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            FiniteDistribution(atoms=[("01", 1.0), ("10", 0.0)])

    def test_project_merges(self):
        p = FiniteDistribution.uniform_over(["0011", "0101"])
        q = p.project(np.array([1], dtype=np.int64))
        assert q.support_size == 1
        assert q.weights[0] == 1.0
        r = p.project(np.array([3, 4], dtype=np.int64))
        assert r.support_size == 2

    def test_draw_rows(self):
        p = FiniteDistribution.uniform_over(["0" * 8, "1" * 8])
        rows = p.draw_rows(new_rng(1), 200)
        assert rows.shape == (200, 8)
        ones = rows[:, 0].mean()
        assert 0.3 < ones < 0.7


def test_implicit_distribution_validates_sampler():
    bad = ImplicitDistribution(n=4, sampler=lambda rng, c: np.zeros((c, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        bad.draw_rows(new_rng(0), 2)


class TestBilledOracle:
    def test_query_positions_one_based(self):
        p = FiniteDistribution.point("0101")
        o = BilledOracle([p], seed=0)
        (h,) = o.draw(1)
        assert o.query(h, 2) == 1
        assert o.query(h, 1) == 0
        assert o.query(h, 4) == 1

    def test_repeat_query_billed_once(self):
        p = FiniteDistribution.point("0101")
        o = BilledOracle([p], seed=0)
        (h,) = o.draw(1)
        o.query(h, 2)
        o.query(h, 2)
        o.query(h, 2)
        assert o.queries_used == 1

    def test_equal_strings_bill_per_handle(self):
        p = FiniteDistribution.point("0101")
        o = BilledOracle([p], seed=0)
        h1, h2 = o.draw(2)
        o.query(h1, 3)
        o.query(h2, 3)
        assert o.queries_used == 2

    def test_samples_drawn_per_source(self):
        p = FiniteDistribution.point("01")
        q = FiniteDistribution.point("10")
        o = BilledOracle([p, q], seed=0)
        o.draw(3, source=0)
        o.draw(5, source=1)
        assert o.samples_drawn == (3, 5)

    def test_draw_count_must_be_positive(self):
        o = BilledOracle([FiniteDistribution.point("01")], seed=0)
        with pytest.raises(ValueError):
            o.draw(0)

    def test_position_out_of_range(self):
        o = BilledOracle([FiniteDistribution.point("0101")], seed=0)
        (h,) = o.draw(1)
        with pytest.raises(ValueError):
            o.query(h, 0)
        with pytest.raises(ValueError):
            o.query(h, 5)

    def test_foreign_handle_rejected(self):
        p = FiniteDistribution.point("0101")
        o1 = BilledOracle([p], seed=0)
        o2 = BilledOracle([p], seed=0)
        (h,) = o1.draw(1)
        with pytest.raises(ValueError):
            o2.query(h, 1)

    def test_sources_must_share_n(self):
        with pytest.raises(ValueError):
            BilledOracle(
                [FiniteDistribution.point("01"), FiniteDistribution.point("011")],
                seed=0,
            )

    def test_query_block_shared_positions(self):
        p = FiniteDistribution.uniform_over(["0011", "0101"])
        o = BilledOracle([p], seed=0)
        batch = o.draw(5)
        pos = np.array([1, 3], dtype=np.int64)
        vals = o.query_block(batch, pos)
        assert vals.shape == (5, 2)
        assert o.queries_used == 10
        o.query_block(batch, pos)
        assert o.queries_used == 10

    def test_query_block_per_row_positions(self):
        p = FiniteDistribution.point("0110")
        o = BilledOracle([p], seed=0)
        batch = o.draw(3)
        pos = np.array([[1, 2], [2, 3], [1, 2]], dtype=np.int64)
        vals = o.query_block(batch, pos)
        assert vals.shape == (3, 2)
        assert o.queries_used == 6
        assert np.array_equal(vals, np.array([[0, 1], [1, 1], [0, 1]]))

    def test_query_block_reads_int32_positions_like_int64(self):
        p = FiniteDistribution.uniform_over(["01101001", "11110000", "00010111"])
        oracles = [BilledOracle([p], seed=3) for _ in range(2)]
        batches = [o.draw(5) for o in oracles]
        pos = np.array([[1, 8, 8, 2], [3, 3, 5, 6], [7, 1, 2, 4], [8, 7, 6, 5], [2, 2, 2, 2]])
        for positions in (pos, pos[0]):
            wide = oracles[0].query_block(batches[0], positions)
            narrow = oracles[1].query_block(batches[1], positions.astype(np.int32))
            assert np.array_equal(wide, narrow)
            assert oracles[0].queries_used == oracles[1].queries_used
        with pytest.raises(ValueError, match="outside"):
            oracles[1].query_block(batches[1], np.array([0, 9], dtype=np.int32))

    def test_deterministic_given_seed(self):
        p = FiniteDistribution.uniform_over(["0" * 16, "1" * 16])
        rows1 = np.stack([h.row for h in BilledOracle([p], seed=9).draw(20)])
        rows2 = np.stack([h.row for h in BilledOracle([p], seed=9).draw(20)])
        assert np.array_equal(rows1, rows2)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_billing_equals_distinct_pairs(data):
    """Billing is exactly the number of distinct (handle, position) pairs."""
    n = data.draw(st.integers(1, 8))
    rng = new_rng(data.draw(st.integers(0, 2**32)))
    rows = rng.integers(0, 2, size=(4, n), dtype=np.uint8)
    p = FiniteDistribution.uniform_over(np.unique(rows, axis=0))
    o = BilledOracle([p], seed=data.draw(st.integers(0, 2**32)))
    batch = o.draw(4)
    seen = set()
    for _ in range(data.draw(st.integers(1, 30))):
        i = data.draw(st.integers(0, 3))
        pos = data.draw(st.integers(1, n))
        o.query(batch[i], pos)
        seen.add((i, pos))
    assert o.queries_used == len(seen)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_query_block_billing_equals_distinct_pairs(data):
    """query_block bills exactly the distinct new (handle, position) pairs.

    Handles and positions repeat inside a call, positions come shared (1-d)
    or per row (2-d), and the width is drawn on either side of the point
    where the touched samples hold as many cells as the call has pairs, so
    both billing branches are pinned to the naive pair set.
    """
    n = data.draw(st.integers(1, 24))
    rng = new_rng(data.draw(st.integers(0, 2**32)))
    rows = rng.integers(0, 2, size=(6, n), dtype=np.uint8)
    p = FiniteDistribution.uniform_over(np.unique(rows, axis=0))
    o = BilledOracle([p], seed=data.draw(st.integers(0, 2**32)))
    batch = o.draw(data.draw(st.integers(1, 6)))
    seen = set()
    for _ in range(data.draw(st.integers(1, 4))):
        idx = data.draw(st.lists(st.integers(0, len(batch) - 1), min_size=1, max_size=8))
        k, touched = len(idx), len(set(idx))
        dense_from = -(-touched * n // k)  # fewest columns for a dense call
        if dense_from > 1 and data.draw(st.booleans()):
            width = data.draw(st.integers(1, dense_from - 1))
        else:
            width = data.draw(st.integers(dense_from, dense_from + n))
        positions = st.integers(1, n)
        if data.draw(st.booleans()):
            pos = np.array(data.draw(st.lists(positions, min_size=width, max_size=width)))
            per_row = np.broadcast_to(pos, (k, width))
        else:
            pos = np.array(
                data.draw(st.lists(positions, min_size=k * width, max_size=k * width))
            ).reshape(k, width)
            per_row = pos
        handles = [batch[i] for i in idx]
        vals = o.query_block(handles, pos)
        seen.update((i, int(q)) for i, row in zip(idx, per_row) for q in row)
        assert o.queries_used == len(seen)
        # every pair is billed by now, so single queries only read bits back
        assert all(
            vals[j, c] == o.query(handles[j], int(per_row[j, c]))
            for j in range(k)
            for c in range(width)
        )


@pytest.mark.parametrize("chunk", [1, 70, 300])
def test_dense_calls_bill_and_read_across_index_chunks(monkeypatch, chunk):
    """Dense ``query_block`` calls build their flat pair index in row chunks.

    With the chunk size cut down, every call below spans several chunks: one
    row per chunk at ``chunk`` 1, a few rows at the others.  Handles repeat
    and come in any order, or count up as a draw's do; positions are shared
    (1-d) or per row (2-d) and repeat inside a row.  Each call must take the
    dense branch, bill exactly the distinct new pairs, and read back every
    sample's own bits, whatever chunk a pair falls in.
    """
    monkeypatch.setattr(core, "_DENSE_CHUNK_PAIRS", chunk)
    dense_calls = []
    dense = BilledOracle._query_dense

    def counted(self, *args):
        dense_calls.append(1)
        return dense(self, *args)

    monkeypatch.setattr(BilledOracle, "_query_dense", counted)
    n, count = 16, 40
    rng = new_rng(chunk)
    p = FiniteDistribution.uniform_over(np.unique(rng.integers(0, 2, size=(6, n)), axis=0))
    o = BilledOracle([p], seed=chunk)
    batch = o.draw(count)
    strings = p.rows[p.draw_atoms(new_rng(chunk), count)]
    seen = set()
    for call in range(12):
        if call % 3 == 0:
            idx = np.arange(int(rng.integers(0, count // 2)), count)
        else:
            idx = rng.integers(0, count, size=int(rng.integers(2, 60)))
        k, width = idx.size, int(rng.integers(n, 3 * n))
        if call % 2:
            pos = rng.integers(1, n + 1, size=width)
            per_row = np.broadcast_to(pos, (k, width))
        else:
            pos = per_row = rng.integers(1, n + 1, size=(k, width))
        before = len(dense_calls)
        vals = o.query_block([batch[i] for i in idx], pos)
        assert len(dense_calls) == before + 1
        seen.update((int(i), int(q)) for i, row in zip(idx, per_row) for q in row)
        assert o.queries_used == len(seen)
        assert np.array_equal(vals, np.take_along_axis(strings[idx], per_row - 1, axis=1))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dense_calls_mixing_fully_billed_partly_billed_and_fresh_rows(data):
    """One dense call over samples in every billing state bills and reads
    them exactly.

    Before the call, some samples have all n positions billed, so every
    position has a ledger column and their pairs can bill nothing new; some
    have a few; the rest have none.  The call names samples of all three
    kinds, repeated and out of order, at positions shared (1-d) or per row
    (2-d), on an explicit or a sampler-backed source, with row chunks of one
    row up to the whole call.  It must take the dense branch, bill exactly
    the distinct new pairs, and read back every sample's own bits.
    """
    n = data.draw(st.integers(2, 12))
    count = data.draw(st.integers(3, 9))
    seed = data.draw(st.integers(0, 2**32))
    rng = new_rng(data.draw(st.integers(0, 2**32)))
    if data.draw(st.booleans()):
        p = FiniteDistribution.uniform_over(
            np.unique(rng.integers(0, 2, size=(5, n), dtype=np.uint8), axis=0)
        )
        strings = p.rows[p.draw_atoms(new_rng(seed), count)]
    else:
        def sampler(g, c):
            return g.integers(0, 2, size=(c, n), dtype=np.uint8)

        p = ImplicitDistribution(n, sampler)
        strings = sampler(new_rng(seed), count)
    o = BilledOracle([p], seed=seed)
    batch = o.draw(count)
    # 0: fully billed, 1: partly billed, 2: fresh
    extra = data.draw(st.lists(st.integers(0, 2), min_size=count - 3, max_size=count - 3))
    kinds = np.array(data.draw(st.permutations([0, 1, 2] + extra)))
    seen = set()
    for i in np.flatnonzero(kinds < 2):
        if kinds[i] == 0:
            pos = np.arange(1, n + 1)
        else:
            pos = random_subset(rng, n, int(rng.integers(1, n)))
        o.query_block([batch[i]], pos)
        seen.update((int(i), int(q)) for q in pos)
    assert o.queries_used == len(seen)

    first = [int(np.flatnonzero(kinds == kind)[0]) for kind in (0, 1, 2)]
    more = data.draw(st.lists(st.integers(0, count - 1), max_size=3 * count))
    idx = np.array(data.draw(st.permutations(first + more)))
    k, touched = idx.size, np.unique(idx).size
    width = data.draw(st.integers(-(-touched * n // k), 2 * n))
    if data.draw(st.booleans()):
        pos = rng.integers(1, n + 1, size=width)
        per_row = np.broadcast_to(pos, (k, width))
    else:
        pos = per_row = rng.integers(1, n + 1, size=(k, width))
    dense_calls = []
    dense = BilledOracle._query_dense

    def counted(self, *args):
        dense_calls.append(1)
        return dense(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BilledOracle, "_query_dense", counted)
        mp.setattr(core, "_DENSE_CHUNK_PAIRS", data.draw(st.sampled_from([1, 2 * width, 1 << 16])))
        vals = o.query_block([batch[i] for i in idx], pos)
    assert len(dense_calls) == 1
    seen.update((int(i), int(q)) for i, row in zip(idx, per_row) for q in row)
    assert o.queries_used == len(seen)
    assert np.array_equal(vals, np.take_along_axis(strings[idx], per_row - 1, axis=1))


@pytest.mark.parametrize("implicit", [False, True])
@pytest.mark.parametrize("shared", [False, True])
def test_dense_read_of_fully_billed_rows_calls_no_billing(monkeypatch, implicit, shared):
    """Once every sample a dense call names has all n positions billed, the
    call can bill nothing new.  It must read back the same bits, leave the
    bill and the billing frontier as they were, and never reach
    ``_SourceStore.bill``."""
    n, count = 12, 6
    rng = new_rng(5)
    if implicit:
        p = ImplicitDistribution(n, lambda g, c: g.integers(0, 2, size=(c, n), dtype=np.uint8))
    else:
        p = FiniteDistribution.uniform_over(
            np.unique(rng.integers(0, 2, size=(4, n), dtype=np.uint8), axis=0)
        )
    o = BilledOracle([p], seed=3)
    batch = o.draw(count)
    full = o.query_block(batch, np.arange(1, n + 1))
    store = o._stores[batch.source]
    used, frontier = o.queries_used, store.frontier
    calls = {"dense": 0, "bill": 0}

    def counted(name, method):
        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        return wrapper

    monkeypatch.setattr(BilledOracle, "_query_dense", counted("dense", BilledOracle._query_dense))
    monkeypatch.setattr(core._SourceStore, "bill", counted("bill", core._SourceStore.bill))
    idx = rng.integers(0, count, size=3 * count)
    if shared:
        pos = rng.integers(1, n + 1, size=2 * n)
        per_row = np.broadcast_to(pos, (idx.size, pos.size))
    else:
        pos = per_row = rng.integers(1, n + 1, size=(idx.size, 2 * n))
    vals = o.query_block([batch[i] for i in idx], pos)
    assert calls == {"dense": 1, "bill": 0}
    assert o.queries_used == used and store.frontier == frontier
    assert np.array_equal(vals, np.take_along_axis(full[idx], per_row - 1, axis=1))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_billing_and_bits_across_draws_and_sources(data):
    """Bills and bits stay exact while stores and ledgers grow.

    Draws interleave with ``query`` and ``query_block`` calls on one or two
    sources, explicit or sampler-backed, and the positions a step may use
    widen as the run goes on, so ledgers gain columns after earlier calls
    were billed.  The expected strings come from replaying every draw on a
    second generator, so each returned bit is checked against its own
    sample, and the oracle's draws must consume the random stream exactly
    as a weighted ``choice`` over the atoms, or the sampler, does.
    """
    n = data.draw(st.integers(1, 24))
    rng = new_rng(data.draw(st.integers(0, 2**32)))
    sources, replays = [], []
    for _ in range(data.draw(st.integers(1, 2))):
        if data.draw(st.booleans()):
            rows = np.unique(rng.integers(0, 2, size=(6, n), dtype=np.uint8), axis=0)
            weights = rng.random(len(rows)) + 0.1
            weights /= weights.sum()
            weights[-1] = 1.0 - weights[:-1].sum()
            sources.append(FiniteDistribution(rows=rows, weights=weights))
            replays.append(
                lambda g, c, rows=rows, w=weights: rows[g.choice(len(rows), size=c, p=w)]
            )
        else:
            def sampler(g, c):
                return g.integers(0, 2, size=(c, n), dtype=np.uint8)

            sources.append(ImplicitDistribution(n, sampler))
            replays.append(sampler)
    seed = data.draw(st.integers(0, 2**32))
    o = BilledOracle(sources, seed=seed)
    replay = new_rng(seed)
    strings = [np.empty((0, n), dtype=np.uint8) for _ in sources]
    handles = [[] for _ in sources]
    seen = set()
    for step in range(data.draw(st.integers(1, 12))):
        src = data.draw(st.integers(0, len(sources) - 1))
        if not handles[src] or data.draw(st.integers(0, 2)) == 0:
            count = data.draw(st.integers(1, 5))
            handles[src].extend(o.draw(count, source=src))
            strings[src] = np.concatenate([strings[src], replays[src](replay, count)])
            assert o.samples_drawn[src] == len(handles[src])
            continue
        positions = st.integers(1, min(n, 2 + 2 * step))
        if data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(handles[src]) - 1))
            q = data.draw(positions)
            assert o.query(handles[src][i], q) == strings[src][i, q - 1]
            seen.add((src, i, q))
            assert o.queries_used == len(seen)
            continue
        idx = data.draw(
            st.lists(st.integers(0, len(handles[src]) - 1), min_size=1, max_size=8)
        )
        k, touched = len(idx), len(set(idx))
        dense_from = -(-touched * n // k)  # fewest columns for a dense call
        if dense_from > 1 and data.draw(st.booleans()):
            width = data.draw(st.integers(1, dense_from - 1))
        else:
            width = data.draw(st.integers(dense_from, dense_from + n))
        if data.draw(st.booleans()):
            pos = np.array(data.draw(st.lists(positions, min_size=width, max_size=width)))
            per_row = np.broadcast_to(pos, (k, width))
        else:
            pos = np.array(
                data.draw(st.lists(positions, min_size=k * width, max_size=k * width))
            ).reshape(k, width)
            per_row = pos
        vals = o.query_block([handles[src][i] for i in idx], pos)
        assert np.array_equal(vals, strings[src][np.array(idx)[:, None], per_row - 1])
        seen.update((src, i, int(q)) for i, row in zip(idx, per_row) for q in row)
        assert o.queries_used == len(seen)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_batches_in_any_order_bill_pairs_and_read_back_alike(data):
    """Batches that are not one fresh ``draw`` bill and read like any other.

    A drawn batch is read whole, strictly increasing with gaps
    (``batch[::2]``), reversed, or with repeated and shuffled samples, and
    each call is made twice, in either order: with shared 1-d positions and
    with the equal 2-d positions, one row per sample.  The atom count runs on both sides
    of the batch length, so the read-back through the table projected on
    the shared positions and the per-pair gather are both used.  Bills
    must match a naive set of pairs, and both calls must return the
    replayed samples' bits.
    """
    n = data.draw(st.integers(1, 24))
    rng = new_rng(data.draw(st.integers(0, 2**32)))
    atoms = np.unique(rng.integers(0, 2, size=(data.draw(st.integers(1, 8)), n),
                                   dtype=np.uint8), axis=0)
    weights = rng.random(len(atoms)) + 0.1
    weights /= weights.sum()
    weights[-1] = 1.0 - weights[:-1].sum()
    seed = data.draw(st.integers(0, 2**32))
    o = BilledOracle(FiniteDistribution(rows=atoms, weights=weights), seed=seed)
    batch = o.draw(data.draw(st.integers(1, 12)))
    strings = atoms[new_rng(seed).choice(len(atoms), size=len(batch), p=weights)]
    seen = set()
    for _ in range(data.draw(st.integers(1, 4))):
        shape = data.draw(st.sampled_from(["whole", "every-other", "reversed", "repeats"]))
        if shape == "whole":
            rows = batch.rows
        elif shape == "every-other":
            rows = batch[::2].rows
        elif shape == "reversed":
            rows = batch.rows[::-1]
        else:
            rows = batch.rows[data.draw(
                st.lists(st.integers(0, len(batch) - 1), min_size=1, max_size=16))]
        calls = SampleBatch(batch.token, batch.source, rows)
        width = data.draw(st.integers(1, 2 * n))
        pos = np.array(data.draw(st.lists(st.integers(1, n), min_size=width, max_size=width)))
        expected = strings[rows[:, None], pos - 1]
        seen.update((int(r), int(q)) for r in rows for q in pos)
        forms = [pos, np.tile(pos, (len(rows), 1))]
        if data.draw(st.booleans()):
            forms.reverse()
        for form in forms:
            assert np.array_equal(o.query_block(calls, form), expected)
            assert o.queries_used == len(seen)


def _product_source(n, rng):
    """A coordinate-noise source whose flip rates include exact 0s and 1s."""
    ref = rng.integers(0, 2, size=n, dtype=np.uint8)
    probs = rng.choice([0.0, 1.0, 0.3, 0.5, 0.9], size=n)
    return coordinate_noise_dist(ref, probs), ref, probs


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_product_source_reads_repeat_their_bits_and_bills(data):
    """A product source draws a bit when the pair is billed, then keeps it.

    Calls mix ``query`` with 1-d and 2-d ``query_block`` calls that repeat
    handles and positions, and widths on both sides of the dense-call point.
    Every read of a pair must return the bit its first read returned, the
    bill must be the number of distinct pairs, and a position that flips
    with probability 0 or 1 must read its reference bit, or its complement.
    """
    n = data.draw(st.integers(1, 24))
    dist, ref, probs = _product_source(n, new_rng(data.draw(st.integers(0, 2**32))))
    o = BilledOracle([dist], seed=data.draw(st.integers(0, 2**32)))
    handles = list(o.draw(data.draw(st.integers(1, 4))))
    known: dict[tuple[int, int], int] = {}

    def record(i, q, bit):
        assert known.setdefault((i, q), bit) == bit
        if probs[q - 1] in (0.0, 1.0):
            assert bit == ref[q - 1] ^ int(probs[q - 1])

    for _ in range(data.draw(st.integers(1, 10))):
        action = data.draw(st.integers(0, 3))
        if action == 0:
            handles.extend(o.draw(data.draw(st.integers(1, 3))))
            continue
        if action == 1:
            i = data.draw(st.integers(0, len(handles) - 1))
            q = data.draw(st.integers(1, n))
            record(i, q, o.query(handles[i], q))
            assert o.queries_used == len(known)
            continue
        idx = data.draw(st.lists(st.integers(0, len(handles) - 1), min_size=1, max_size=6))
        k, touched = len(idx), len(set(idx))
        dense_from = -(-touched * n // k)  # fewest columns for a dense call
        if dense_from > 1 and data.draw(st.booleans()):
            width = data.draw(st.integers(1, dense_from - 1))
        else:
            width = data.draw(st.integers(dense_from, dense_from + n))
        positions = st.integers(1, n)
        if action == 2:
            pos = np.array(data.draw(st.lists(positions, min_size=width, max_size=width)))
            per_row = np.broadcast_to(pos, (k, width))
        else:
            pos = np.array(
                data.draw(st.lists(positions, min_size=k * width, max_size=k * width))
            ).reshape(k, width)
            per_row = pos
        vals = o.query_block([handles[i] for i in idx], pos)
        for j, i in enumerate(idx):
            for c in range(width):
                record(i, int(per_row[j, c]), int(vals[j, c]))
        assert o.queries_used == len(known)
    assert all(o.query(handles[i], q) == bit for (i, q), bit in known.items())
    assert o.queries_used == len(known)


def test_product_source_matches_the_materialized_sampler():
    """Bits drawn at billing time have the sampler's law.

    Per-position frequencies of ones, and the joint frequency of ones at a
    pair of positions, read through the oracle in a billing order that
    interleaves positions and samples, agree with the product law and with
    rows from the materialized sampler within five binomial deviations.
    """
    n, count = 6, 20_000
    ref = np.array([0, 1, 0, 1, 1, 0], dtype=np.uint8)
    probs = np.array([0.05, 0.2, 0.5, 0.7, 0.95, 0.35])
    dist = coordinate_noise_dist(ref, probs)
    o = BilledOracle([dist], seed=11)
    batch = o.draw(count)
    rng = new_rng(12)
    # Each sample reads its positions in its own random order, in one dense
    # call and one sparse call, so the stream interleaves rows and columns.
    order = np.argsort(rng.random((count, n)), axis=1) + 1
    lazy = np.empty((count, n), dtype=np.uint8)
    half = count // 2
    lazy[np.arange(half)[:, None], order[:half] - 1] = o.query_block(batch[:half], order[:half])
    lazy[half + np.arange(count - half)[:, None], order[half:] - 1] = o.query_block(
        batch[half:], order[half:]
    )
    assert o.queries_used == count * n
    rows = dist.draw_rows(new_rng(13), count)
    mean = np.where(ref == 1, 1.0 - probs, probs)
    a, b = 1, 3
    for got in (lazy, rows):
        sd = np.sqrt(mean * (1.0 - mean) / count)
        assert np.all(np.abs(got.mean(axis=0) - mean) <= 5 * sd)
        joint = mean[a] * mean[b]
        both = float((got[:, a] & got[:, b]).mean())
        assert abs(both - joint) <= 5 * np.sqrt(joint * (1.0 - joint) / count)
    gap_sd = np.sqrt(2.0 * mean * (1.0 - mean) / count)
    assert np.all(np.abs(lazy.mean(axis=0) - rows.mean(axis=0)) <= 5 * gap_sd)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reads_after_a_billed_high_row_bill_pairs_and_bits_alike(data):
    """A read straight after a draw may skip the ledger only past every row
    billed so far, whichever path billed it.

    On an explicit, a sampler-backed or a product source, one high row h
    (with some lower rows) is billed first through ``query``, a sparse call
    with 1-d or 2-d positions, a call that repeats pairs, or a dense call.
    Contiguous ``SampleBatch`` reads then start at h, straddle it or follow
    it, with sorted, unsorted or per-row positions; a read that covers h
    includes a position billed on h.  Each read is made twice.  Bills must
    equal a naive pair set, and every pair must read the bit it read first.
    """
    n = data.draw(st.integers(3, 24))
    kind = data.draw(st.sampled_from(["explicit", "sampler", "product"]))
    rng = new_rng(data.draw(st.integers(0, 2**32)))
    if kind == "explicit":
        source = FiniteDistribution.uniform_over(
            np.unique(rng.integers(0, 2, size=(4, n), dtype=np.uint8), axis=0)
        )
    elif kind == "sampler":
        source = ImplicitDistribution(
            n, lambda g, c: g.integers(0, 2, size=(c, n), dtype=np.uint8)
        )
    else:
        source = _product_source(n, rng)[0]
    o = BilledOracle([source], seed=data.draw(st.integers(0, 2**32)))
    token = o.draw(data.draw(st.integers(1, 6))).token
    for _ in range(data.draw(st.integers(0, 2))):
        o.draw(data.draw(st.integers(1, 6)))
    total = o.samples_drawn[0]
    known: dict[tuple[int, int], int] = {}

    def read(rows, pos):
        """Read ``rows`` at ``pos`` twice, checking bits and the bill."""
        calls = SampleBatch(token, 0, np.asarray(rows, dtype=np.int64))
        per_row = np.broadcast_to(pos, (len(calls), pos.shape[-1]))
        first = o.query_block(calls, pos)
        for r, qs, bits in zip(calls.rows.tolist(), per_row.tolist(), first.tolist()):
            for q, bit in zip(qs, bits):
                assert known.setdefault((r, q), bit) == bit
        assert o.queries_used == len(known)
        assert np.array_equal(o.query_block(calls, pos), first)
        assert o.queries_used == len(known)

    h = data.draw(st.integers(0, total - 1))
    rows = sorted({h, *data.draw(st.lists(st.integers(0, h), max_size=3))})
    path = data.draw(st.sampled_from(["query", "sparse-1d", "sparse-2d", "repeats", "dense"]))
    positions = st.integers(1, n)
    if path == "query":
        q = data.draw(positions)
        bit = o.query(SampleBatch(token, 0, np.array([h]))[0], q)
        known[(h, q)] = bit
        assert o.queries_used == len(known)
    elif path == "sparse-1d":
        read(rows, np.array(data.draw(st.lists(positions, min_size=1, max_size=n - 1,
                                                unique=True))))
    elif path == "sparse-2d":
        width = data.draw(st.integers(1, n - 1))
        read(rows, np.array([data.draw(st.lists(positions, min_size=width, max_size=width,
                                                 unique=True)) for _ in rows]))
    elif path == "repeats":
        q = data.draw(positions)
        read([h], np.array([q, q]))
    else:
        read(rows, np.array(data.draw(st.lists(positions, min_size=n, max_size=n + 3))))
    on_h = sorted(q for r, q in known if r == h)

    for _ in range(data.draw(st.integers(1, 4))):
        where = data.draw(st.sampled_from(["starts-at", "straddles", "follows"]))
        if where == "follows" and h + 1 < total:
            start = data.draw(st.integers(h + 1, total - 1))
        elif where == "straddles" and h > 0:
            start = data.draw(st.integers(0, h - 1))
        else:
            start = h
        stop = data.draw(st.integers(max(start, h) + 1, total))
        width = data.draw(st.integers(1, n))
        pos = data.draw(st.lists(positions, min_size=width, max_size=width, unique=True))
        if start <= h and not set(pos) & set(on_h):
            pos[-1] = data.draw(st.sampled_from(on_h))
            pos = list(dict.fromkeys(pos))
        form = data.draw(st.sampled_from(["sorted", "unsorted", "per-row"]))
        if form == "sorted":
            pos = np.sort(pos)
        elif form == "unsorted":
            pos = np.array(pos)
        else:
            pos = np.array([data.draw(st.permutations(pos)) for _ in range(start, stop)])
        read(np.arange(start, stop), pos)
    for (r, q), bit in known.items():
        assert o.query(SampleBatch(token, 0, np.array([r]))[0], q) == bit
    assert o.queries_used == len(known)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fresh_product_reads_draw_one_uniform_per_pair_in_pair_order(data):
    """On a fresh product oracle, ``query_block(o.draw(k), pos)`` reads
    ref[pos - 1] ^ (uniform < probs[pos - 1]), one uniform per pair in pair
    order, off the oracle's own stream: for distinct 1-d positions (sorted,
    or any order below n), and for one position per sample, the form
    ``_MajorityView`` reads.  A second draw and read continue the stream.
    """
    n = data.draw(st.integers(1, 24))
    dist, ref, probs = _product_source(n, new_rng(data.draw(st.integers(0, 2**32))))
    seed = data.draw(st.integers(0, 2**32))
    o = BilledOracle([dist], seed=seed)
    replay = new_rng(seed)
    billed = 0
    for _ in range(data.draw(st.integers(1, 2))):
        k = data.draw(st.integers(1, 8))
        if data.draw(st.booleans()):
            width = data.draw(st.integers(1, n))
            pos = random_subset(new_rng(data.draw(st.integers(0, 2**32))), n, width)
            if width < n and data.draw(st.booleans()):
                pos = np.array(data.draw(st.permutations(pos.tolist())))
        else:
            pos = np.array(data.draw(st.lists(st.integers(1, n), min_size=k, max_size=k)))
            pos = pos[:, None]
        expected = ref[pos - 1] ^ (replay.random((k, pos.shape[-1])) < probs[pos - 1])
        assert np.array_equal(o.query_block(o.draw(k), pos), expected)
        billed += expected.size
        assert o.queries_used == billed


def _oracle_state(o: BilledOracle) -> tuple:
    """Everything a read can change: the bill, each store's frontier, column
    map and ledger in use, and the generator state."""
    stores = tuple(
        (s.frontier, s.column.tobytes(), s.ledger[: s.count, : s.width].tobytes())
        for s in o._stores
    )
    return o.queries_used, stores, o._rng.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_keys_equal_packed_bits_and_bill_alike(data):
    """``query_block(b, p, keys=True)`` is ``pack_rows(query_block(b, p))``.

    Twin oracles with one seed make the same calls, one asking for keys and
    one packing the bits it gets.  Sources are explicit, with fewer or more
    atoms than a call names samples, sampler-backed or product; widths give
    uint64 keys (1, 63, 64) and void ones (65, 200).  Calls read fresh
    draws, repeated, reversed or earlier samples, at shared 1-d or per-row
    positions, full reads at small n (dense calls) included, and a call may
    be made again on its billed pairs.  Keys must match in dtype and bytes,
    and the bill, frontiers, ledgers and generator state must stay equal.
    """
    width = data.draw(st.sampled_from([1, 63, 64, 65, 200]))
    # Small n makes most calls dense; n past the width leaves them sparse.
    n = data.draw(st.one_of(st.sampled_from([1, 5, 24]), st.integers(width + 1, width + 80)))
    kind = data.draw(st.sampled_from(["few-atoms", "many-atoms", "sampler", "product"]))
    rng = new_rng(data.draw(st.integers(0, 2**32)))
    if kind == "product":
        source = _product_source(n, rng)[0]
    elif kind == "sampler":
        source = ImplicitDistribution(
            n, lambda g, c: g.integers(0, 2, size=(c, n), dtype=np.uint8)
        )
    else:
        size = data.draw(st.integers(1, 4) if kind == "few-atoms" else st.integers(20, 40))
        atoms = np.unique(rng.integers(0, 2, size=(size, n), dtype=np.uint8), axis=0)
        weights = rng.random(len(atoms)) + 0.1
        weights = _exact_unit_weights(weights / weights.sum())
        source = FiniteDistribution(rows=atoms, weights=weights)
    seed = data.draw(st.integers(0, 2**32))
    twins = BilledOracle([source], seed=seed), BilledOracle([source], seed=seed)
    batch = None
    for _ in range(data.draw(st.integers(1, 5))):
        shape = data.draw(st.sampled_from(["fresh", "repeats", "reversed", "again"]))
        if batch is None:
            shape = "fresh"
        drawn = twins[0].samples_drawn[0]
        if shape == "fresh":
            count = data.draw(st.integers(1, 12))
            batch, twin_batch = (o.draw(count) for o in twins)
            assert np.array_equal(batch.rows, twin_batch.rows)
            rows = batch.rows
        elif shape == "repeats":
            rows = np.array(data.draw(st.lists(st.integers(0, drawn - 1), min_size=1,
                                               max_size=16)))
        elif shape == "reversed":
            rows = np.arange(drawn)[::-1]
        if shape != "again":
            form = data.draw(st.sampled_from(["subset", "any", "full", "per-row"]))
            if form == "subset" and width <= n:
                pos = random_subset(rng, n, width)
            elif form == "full":
                pos = np.arange(1, n + 1)
            elif form == "per-row":
                pos = rng.integers(1, n + 1, size=(len(rows), width))
            else:
                pos = rng.integers(1, n + 1, size=width)
        got = twins[0].query_block(SampleBatch(batch.token, 0, rows), pos, keys=True)
        want = pack_rows(twins[1].query_block(SampleBatch(twins[1]._token, 0, rows), pos))
        assert got.dtype == want.dtype and got.shape == (len(rows),)
        assert got.tobytes() == want.tobytes()
        assert _oracle_state(twins[0]) == _oracle_state(twins[1])


def test_keys_of_an_empty_position_list_raise_as_packing_does():
    o = BilledOracle([FiniteDistribution.point("0101")], seed=0)
    with pytest.raises(ValueError, match="at least one column"):
        o.query_block(o.draw(2), np.array([], dtype=np.int64), keys=True)


def test_fresh_explicit_read_peaks_under_four_bytes_per_pair():
    """A read straight after its draw bills through ledger slices.

    20,000 samples x 300 sorted positions of an n = 4096 explicit source:
    the ledger block and the bits returned take one byte per pair each.  An
    int64 index per pair, as the ledger's gathers and scatters took before,
    would add eight.
    """
    n, count, width = 4096, 20_000, 300
    atoms = new_rng(7).integers(0, 2, size=(8, n), dtype=np.uint8)
    o = BilledOracle([FiniteDistribution.uniform_over(atoms)], seed=8)
    positions = random_subset(new_rng(9), n, width)
    tracemalloc.start()
    try:
        bits = o.query_block(o.draw(count), positions)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert o.queries_used == count * width
    drawn = new_rng(8).choice(len(atoms), size=count, p=np.full(len(atoms), 1 / len(atoms)))
    assert np.array_equal(bits, atoms[drawn][:, positions - 1])
    assert peak < 4 * count * width


def test_noisy_membership_memory_follows_queries_not_n():
    """At n=2^20 a noisy-membership trial bills 953,918 bits in under 64 MiB.

    The constant property, eta 0.1, delta 0.2, eps 0.25, on coordinate
    noise with flip rate 0.05.  Drawing its 2,452 samples in full would make
    2,452 x 2^20 float64 randoms, 19 GiB.
    """
    n = 2**20
    dist = coordinate_noise_dist(np.zeros(n, dtype=np.uint8), np.full(n, 0.05))
    tracemalloc.start()
    try:
        report = noisy_membership_tester(
            BilledOracle([dist], seed=4), ConstantTester(), eta=0.1, delta=0.2, eps=0.25, seed=5
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.accepted
    assert report.queries_used == 953_918
    assert report.samples_used == (2452,)
    assert peak < 64 * 2**20


def test_support_trial_memory_follows_queries_not_n():
    """At n=2^20 a support trial bills 165,120 bits in well under 64 MiB.

    Holding the 640 samples in full, as a samples x n store, would take
    640 MiB for the bits alone.
    """
    n = 2**20
    rows = new_rng(3).integers(0, 2, size=(4, n), dtype=np.uint8)
    p = FiniteDistribution.uniform_over(rows)
    tracemalloc.start()
    try:
        report = support_tester(BilledOracle([p], seed=4), m=4, eps=0.05, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.accepted
    assert report.queries_used == 165_120
    assert peak < 64 * 2**20


def test_tester_report():
    r = TesterReport(verdict="accept", samples_used=(3,), queries_used=7, trace={})
    assert r.accepted
    assert r.to_dict()["queries_used"] == 7
    with pytest.raises(ValueError):
        TesterReport(verdict="maybe", samples_used=(1,), queries_used=1, trace={})


class TestBudgetLaw:
    """``finish_report`` refuses a report that breaks the budget law."""

    def _oracle(self, samples: int, queries: int) -> BilledOracle:
        o = BilledOracle([FiniteDistribution.point("0110")], seed=0)
        batch = o.draw(samples)
        o.query_block(batch, np.arange(1, queries // samples + 1))
        return o

    @staticmethod
    def _trace(kind, value):
        return {"budget": {"kind": kind, "value": value}}

    def test_lawful_reports_pass(self):
        o = self._oracle(2, 6)
        assert finish_report(o, True, self._trace("exact", 6)).queries_used == 6
        assert finish_report(o, False, self._trace("bound", 8)).verdict == "reject"

    def test_exact_budget_must_equal_the_bill(self):
        with pytest.raises(BudgetLawError, match="exact budget 5 but 6"):
            finish_report(self._oracle(2, 6), True, self._trace("exact", 5))

    def test_bound_budget_must_cover_the_bill(self):
        with pytest.raises(BudgetLawError, match="bound budget 5 but 6"):
            finish_report(self._oracle(2, 6), True, self._trace("bound", 5))

    def test_every_sample_costs_at_least_one_bit(self):
        o = BilledOracle([FiniteDistribution.point("0110")], seed=0)
        batch = o.draw(3)
        o.query(batch[0], 1)
        with pytest.raises(BudgetLawError, match=r"outside \[samples, samples \* n\]"):
            finish_report(o, True, self._trace("bound", 10))

    def test_budget_is_required(self):
        with pytest.raises(BudgetLawError, match="no exact or bound budget"):
            finish_report(self._oracle(1, 2), True, {})
        with pytest.raises(BudgetLawError, match="no exact or bound budget"):
            finish_report(self._oracle(1, 2), True, self._trace("roughly", 2))
