import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from probedist.core import (
    BilledOracle,
    BitString,
    FiniteDistribution,
    ImplicitDistribution,
    SampleView,
    TesterReport,
    new_rng,
    pack_rows,
    random_subset,
)
from probedist.testers import support_tester


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


def test_pack_rows_keys():
    rng = new_rng(3)
    rows = rng.integers(0, 2, size=(64, 13), dtype=np.uint8)
    keys = pack_rows(rows)
    uniq_rows = np.unique(rows, axis=0).shape[0]
    assert len(set(keys.tolist())) == uniq_rows
    assert (pack_rows(rows) == keys).all()


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


def test_bitstring():
    x = BitString("0101")
    assert x.n == 4
    assert x.bit(2) == 1
    assert x.bit(1) == 0
    assert x.to01() == "0101"
    assert BitString("0101") == BitString([0, 1, 0, 1])
    assert hash(BitString("01")) == hash(BitString("01"))
    with pytest.raises(ValueError):
        x.bit(5)


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


def test_sample_view():
    p = FiniteDistribution.point("0101")
    o = BilledOracle([p], seed=0)
    (h,) = o.draw(1)
    view = SampleView(o, h)
    assert view.query(2) == 1
    assert np.array_equal(view.query_block(np.array([1, 2])), np.array([0, 1]))
    assert o.queries_used == 2


def test_tester_report():
    r = TesterReport(verdict="accept", samples_used=(3,), queries_used=7, trace={})
    assert r.accepted
    assert r.to_dict()["queries_used"] == 7
    with pytest.raises(ValueError):
        TesterReport(verdict="maybe", samples_used=(1,), queries_used=1, trace={})
