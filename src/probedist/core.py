"""Core value types and the billed sampling oracle.

Distributions live over {0,1}^n for one fixed n.  A tester never sees a whole
sample: it draws opaque handles from a :class:`BilledOracle` and pays one unit
per distinct (handle, position) pair it inspects.  Repeat inspections of a
pair are free, and two handles are billed separately even when the underlying
strings happen to be equal.  Positions are 1-based, so a string x reads
x_1 ... x_n and querying position n+1 is an error.  An oracle is the reader
that the string testers of :mod:`probedist.strings` read through: anything
with ``n`` and ``query_block(batch, positions)`` returning the bits of each
sample of the batch at the positions, one row per sample.

Storage: for each source the oracle keeps a billing ledger, a matrix of
samples x the distinct positions ever queried on that source, and beside it
one atom index per sample of an explicit (:class:`FiniteDistribution`)
source, or the sampler row of each sample of an implicit one.  A product
source (an implicit one with a ``product`` law) keeps no samples at all: a
draw only counts them, and the bit of a (sample, position) pair is drawn
from the oracle's generator when the pair is first billed and then kept in
its ledger cell.  On explicit and product sources, memory and time therefore
grow with the queries billed, not with samples x n.  Each ledger also keeps a
frontier, one past the highest sample it ever billed: a read of samples all
at or past it, such as a read straight after their draw, bills every pair it
names, so it writes their cells without reading them first.  Rows that count
up by one, as a draw's do, with ledger columns that do too, as sorted
positions new to the ledger do, are addressed as one slice of the ledger;
other reads index it with one flat index per pair.  A dense read, whose
touched samples hold no more cells than it names pairs, bills through a
bitmap over those samples instead, in one of two orders.  On an explicit or
sampler-backed source, whose billing draws nothing, it reads the touched
samples' bits first, then marks and reads each pair through the same index,
and it marks no pair of a sample whose ledger row is already all billed.
On a product source it marks every pair, bills, and only then reads, since
billing draws the bits.

Randomness: everything runs on numpy's PCG64 generator, with seeds split via
``numpy.random.SeedSequence``.  A (seed, parameters) pair therefore fixes
every verdict bit for bit, across platforms and worker counts.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "WEIGHT_TOL",
    "FiniteDistribution",
    "ImplicitDistribution",
    "SampleSource",
    "SampleHandle",
    "SampleBatch",
    "BilledOracle",
    "TesterReport",
    "new_rng",
    "random_subset",
    "pack_rows",
    "BudgetLawError",
]

# Weights of an explicit distribution must sum to 1 within this tolerance.
WEIGHT_TOL = 1e-12

_oracle_tokens = itertools.count(1)

# A dense ``query_block`` call builds its flat pair index in row chunks of at
# most this many pairs, which bounds the index's memory.
_DENSE_CHUNK_PAIRS = 1 << 16


def new_rng(seed) -> np.random.Generator:
    """Return a PCG64 generator for ``seed``.

    Accepts an int, a SeedSequence, or an existing Generator (returned as is,
    which lets callers thread one stream through helper functions).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(seed))


def random_subset(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """Sample a uniformly random ``size``-subset of positions {1, ..., n}.

    Uses Floyd's algorithm, which draws exactly ``size`` integers however
    large n is.  Returns the positions sorted ascending (int64).
    """
    if not 0 <= size <= n:
        raise ValueError(f"subset size {size} outside [0, {n}]")
    if size == n:
        return np.arange(1, n + 1, dtype=np.int64)
    # One call with an array of upper bounds consumes the stream exactly as
    # one ``rng.integers(1, j + 1)`` call per step j of the loop would.
    draws = rng.integers(1, np.arange(n - size + 2, n + 2))
    chosen: set[int] = set()
    for j, t in zip(range(n - size + 1, n + 1), draws.tolist()):
        chosen.add(j if t in chosen else t)
    return np.array(sorted(chosen), dtype=np.int64)


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Collapse each row of a 0/1 matrix into one opaque, comparable value.

    Rows are bit-packed big-endian (``np.packbits`` order): a row of at most
    64 columns becomes one uint64, a wider row a void scalar of its packed
    bytes.  Integer and memcmp order on these keys are both lexicographic
    row order, so ==, sorting, np.unique and hashing, which is all the
    collision-based testers ever do with sample values, see the rows as
    they are.
    """
    arr = np.asarray(bits)
    if arr.ndim != 2:
        raise ValueError("expected a 2-d bit matrix")
    count, width = arr.shape
    if width == 0:
        raise ValueError("rows must have at least one column")
    nbytes = -(-width // 8)
    # np.packbits over one flat, byte-aligned buffer is faster than
    # np.packbits(axis=1) on rows of a few bytes.
    aligned = np.zeros((count, 8 * nbytes), dtype=np.uint8)
    aligned[:, :width] = arr
    packed = np.packbits(aligned.reshape(-1)).reshape(count, nbytes)
    if nbytes > 8:
        return packed.view(np.dtype((np.void, nbytes))).reshape(count)
    word = np.zeros((count, 8), dtype=np.uint8)
    word[:, :nbytes] = packed
    return word.view(">u8").reshape(count).astype(np.uint64)


def _merge_rows(rows, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a 0/1 matrix in lexicographic order, and the sum of
    each one's weights in row order (its count when ``weights`` is None)."""
    rows = np.asarray(rows, dtype=np.uint8)
    _, first, inverse = np.unique(pack_rows(rows), return_index=True, return_inverse=True)
    return rows[first], np.bincount(inverse, weights=weights, minlength=first.size)


def _exact_unit_weights(weights) -> np.ndarray:
    """A copy of ``weights`` with the float residue of their sum on the last."""
    weights = np.array(weights, dtype=np.float64)
    weights[-1] += 1.0 - weights.sum()
    return weights


def _to01(bits: np.ndarray) -> str:
    """A 0/1 uint8 array as a string of the characters 0 and 1."""
    return (bits + ord("0")).tobytes().decode("ascii")


def _as_bit_array(bits) -> np.ndarray:
    if isinstance(bits, str):
        # A non-ASCII character becomes "?", and every character but 0 and 1
        # maps above 1 in uint8 arithmetic.
        arr = np.frombuffer(bits.encode("ascii", "replace"), dtype=np.uint8) - ord("0")
        if arr.size == 0 or int(arr.max()) > 1:
            raise ValueError("bit strings contain only the characters 0 and 1")
        return arr
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty one-dimensional bit array")
    if arr.size and int(arr.max(initial=0)) > 1:
        raise ValueError("bits must be 0 or 1")
    return arr


class FiniteDistribution:
    """A distribution over {0,1}^n given by finitely many weighted atoms.

    Atoms are distinct n-bit strings with strictly positive weights that sum
    to one within ``WEIGHT_TOL``; construction validates all three.  The atom
    table is visible to distance computations and generators only; testers
    must reach a distribution through a :class:`BilledOracle`.

    Draws go through a guide table (indexed search, Chen and Asau 1974) over
    the CDF that ``Generator.choice`` builds, so :meth:`draw_atoms` returns
    exactly what ``rng.choice(support_size, size=count, p=weights)`` would
    and leaves ``rng`` in the same state.  Both tables are built here, once,
    since sources are shared by the harness's worker threads.
    """

    __slots__ = ("_rows", "_weights", "_cdf", "_guide")

    def __init__(self, atoms: Iterable[tuple] | None = None, *, rows=None, weights=None):
        if atoms is not None:
            pairs = list(atoms)
            if not pairs:
                raise ValueError("a distribution needs at least one atom")
            rows = np.stack([_as_bit_array(bits) for bits, _ in pairs])
            weights = np.array([float(w) for _, w in pairs], dtype=np.float64)
        else:
            rows = np.asarray(rows, dtype=np.uint8)
            weights = np.asarray(weights, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] == 0:
            raise ValueError("atom matrix must be non-empty and two-dimensional")
        if rows.shape[0] != weights.shape[0]:
            raise ValueError("one weight per atom required")
        if int(rows.max(initial=0)) > 1:
            raise ValueError("bits must be 0 or 1")
        if np.any(weights <= 0.0):
            raise ValueError("atom weights must be strictly positive")
        total = float(weights.sum())
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"atom weights sum to {total!r}, not 1")
        if np.unique(pack_rows(rows)).size != rows.shape[0]:
            raise ValueError("atoms must be distinct strings")
        rows = np.ascontiguousarray(rows)
        rows.setflags(write=False)
        weights = weights.copy()
        weights.setflags(write=False)
        self._rows = rows
        self._weights = weights
        # Generator.choice's own CDF, which ends at exactly 1.0.
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf
        # A uniform u lands in bucket b = int(u * k).  Bucket b starts at the
        # number of CDF entries every u of that bucket reaches: c <= u for all
        # such u exactly when the float just below c lies in an earlier
        # bucket, since the bucket grows with u.  Capped at the last atom,
        # which every u < 1 reaches.
        k = cdf.size
        below = np.floor(np.nextafter(cdf, 0.0) * k)
        guide = np.searchsorted(below, np.arange(k + 1), side="left")
        self._guide = np.minimum(guide, k - 1).astype(np.int64)

    @classmethod
    def merged(cls, rows, weights) -> "FiniteDistribution":
        """Weighted rows as atoms, in lexicographic order: equal rows merge and
        add their weights, and the float residue of the total goes on the last."""
        uniq, sums = _merge_rows(rows, weights)
        return cls(rows=uniq, weights=_exact_unit_weights(sums))

    @classmethod
    def point(cls, bits) -> "FiniteDistribution":
        return cls([(bits, 1.0)])

    @classmethod
    def uniform_over(cls, strings) -> "FiniteDistribution":
        rows = [_as_bit_array(s) for s in strings]
        if not rows:
            raise ValueError("need at least one string")
        return cls(rows=np.stack(rows), weights=np.full(len(rows), 1.0 / len(rows)))

    @property
    def n(self) -> int:
        return int(self._rows.shape[1])

    @property
    def support_size(self) -> int:
        return int(self._rows.shape[0])

    @property
    def rows(self) -> np.ndarray:
        """Atom matrix (support_size x n, read-only)."""
        return self._rows

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    def draw_atoms(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` atom indices i.i.d. by weight, bit for bit as
        ``rng.choice(support_size, size=count, p=weights)`` does: the same
        uniforms, each mapped to ``cdf.searchsorted(u, side="right")``."""
        u = rng.random(count)
        cdf = self._cdf
        idx = self._guide[(u * cdf.size).astype(np.intp)]
        # A draw past its bucket's first atom finishes by binary search.
        late = np.flatnonzero(cdf[idx] <= u)
        if late.size:
            idx[late] = cdf.searchsorted(u[late], side="right")
        return idx

    def draw_rows(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return self._rows[self.draw_atoms(rng, count)]

    def project(self, positions) -> "FiniteDistribution":
        """Restrict every atom to ``positions`` (1-based), merging collisions."""
        pos = np.asarray(positions, dtype=np.int64)
        if pos.ndim != 1 or pos.size == 0:
            raise ValueError("need at least one position")
        if pos.min() < 1 or pos.max() > self.n:
            raise ValueError("positions outside [1, n]")
        return FiniteDistribution.merged(self._rows[:, pos - 1], self._weights)


@dataclass(frozen=True)
class ImplicitDistribution:
    """A sample-only distribution over {0,1}^n.

    Backed by a sampler instead of an atom table, so it supports drawing but
    no exact distance computation.  ``metadata`` records how the instance was
    built; generators put certified distance labels there.  ``sampler(rng,
    count)`` returns a fresh (count, n) 0/1 array, which an oracle may keep
    without copying.

    ``product``, when given, is the sampler's law in product form: the pair
    (reference bits, flip probabilities), under which bit i of a sample is
    reference[i] flipped with probability probs[i], independently of every
    other bit.  An oracle then draws a bit only when it is first billed.
    """

    n: int
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    metadata: dict = field(default_factory=dict)
    product: tuple[np.ndarray, np.ndarray] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.product is not None:
            ref = _as_bit_array(self.product[0])
            probs = np.asarray(self.product[1], dtype=np.float64)
            if ref.shape != (self.n,) or probs.shape != (self.n,):
                raise ValueError("a product law needs n reference bits and n probabilities")
            if not (probs.min() >= 0.0 and probs.max() <= 1.0):
                raise ValueError("flip probabilities must lie in [0, 1]")
            object.__setattr__(self, "product", (ref, probs))

    def draw_rows(self, rng: np.random.Generator, count: int) -> np.ndarray:
        rows = np.asarray(self.sampler(rng, int(count)), dtype=np.uint8)
        if rows.shape != (count, self.n):
            raise ValueError(
                f"sampler returned shape {rows.shape}, expected {(count, self.n)}"
            )
        if rows.size and int(rows.max(initial=0)) > 1:
            raise ValueError("sampler produced values other than 0/1")
        return rows


SampleSource = Union[FiniteDistribution, ImplicitDistribution]


@dataclass(frozen=True)
class SampleHandle:
    """Opaque reference to one drawn sample of one oracle."""

    token: int
    source: int
    row: int


class SampleBatch(Sequence):
    """A contiguous block of handles from one draw call, with bulk access."""

    __slots__ = ("token", "source", "rows")

    def __init__(self, token: int, source: int, rows: np.ndarray):
        self.token = token
        self.source = source
        self.rows = np.asarray(rows, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.rows.size)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return SampleBatch(self.token, self.source, self.rows[item])
        return SampleHandle(self.token, self.source, int(self.rows[item]))

    def __iter__(self):
        for r in self.rows:
            yield SampleHandle(self.token, self.source, int(r))


def _capacity(have: int, need: int) -> int:
    """Buffer length for ``need`` items: ``have`` if enough, else doubled."""
    return have if have >= need else max(need, 2 * have)


def _run(idx: np.ndarray) -> slice | None:
    """``idx`` as a slice when it is 1-d and counts up by one from its first
    entry, as the rows of one draw do; otherwise None."""
    if idx.ndim != 1 or idx.size == 0:
        return None
    first, last = int(idx[0]), int(idx[-1])
    if last - first != idx.size - 1 or (idx.size > 2 and not (np.diff(idx) == 1).all()):
        return None
    return slice(first, last + 1)


def _distinct_sorted(keys: np.ndarray) -> np.ndarray:
    """The distinct values of 1-d ``keys`` in ascending order, as
    ``np.unique`` gives them, by a sort and an adjacent-difference mask."""
    keys = np.sort(keys)
    keep = np.empty(keys.size, dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _distinct_per_row(cols: np.ndarray) -> bool:
    """True iff no row of ``cols`` (1-d, or 2-d row by row) repeats a value."""
    if cols.shape[-1] < 2:
        return True
    srt = np.sort(cols, axis=-1)
    return bool(np.all(srt[..., 1:] != srt[..., :-1]))


class _SourceStore:
    """What a :class:`BilledOracle` keeps for one of its sources.

    ``samples`` holds one atom index per sample of an explicit source, or the
    sampler row of each sample of an implicit one; a product source keeps
    none.  ``ledger[r, j]`` records whether the pair (sample r, the position
    of ledger column j) was billed.  It is a bool, except on a product
    source, where it is a uint8: 0 until the pair is billed, then 1 + the
    pair's bit, drawn at that moment.  ``column[p]`` is 1 + the ledger column
    of 1-based position p, or 0 while p was never queried; new positions get
    new columns in sorted order.  Only the first ``count`` samples and
    ``width`` columns are in use; both buffers grow by doubling.

    ``frontier`` is one past the highest sample row ever billed, so no pair
    on a row at or past it has been billed.  Ledger cells are addressed
    through one rule: rows that count up by one, as a draw's do, with 1-d
    columns that do too, as sorted new positions do, are a slice of the
    ledger; any other call indexes it flat, one index per pair.
    """

    __slots__ = (
        "source", "rng", "atoms", "product", "samples", "count", "column", "width", "ledger",
        "frontier",
    )

    def __init__(self, source: SampleSource, n: int, rng: np.random.Generator):
        self.source = source
        self.rng = rng
        self.atoms = self.product = None
        if isinstance(source, FiniteDistribution):
            self.atoms = source.rows
            self.samples = np.empty(0, dtype=np.intp)
        elif source.product is not None:
            self.product = source.product
            self.samples = None
        else:
            self.samples = np.empty((0, n), dtype=np.uint8)
        self.count = 0
        self.column = np.zeros(n + 1, dtype=np.intp)
        self.width = 0
        self.ledger = np.zeros((0, 0), dtype=bool if self.product is None else np.uint8)
        self.frontier = 0

    def append(self, count: int) -> None:
        if self.atoms is not None:
            self._keep(self.source.draw_atoms(self.rng, count))
        elif self.product is None:
            self._keep(self.source.draw_rows(self.rng, count))
        self.count += count
        self._fit_ledger()

    def _keep(self, new: np.ndarray) -> None:
        end = self.count + len(new)
        if self.count == 0:
            # Kept as drawn: copying a large first block into a new buffer
            # left the allocator holding more memory than the block itself.
            self.samples = new
            return
        if end > len(self.samples):
            grown = np.empty(
                (_capacity(len(self.samples), end),) + self.samples.shape[1:],
                dtype=self.samples.dtype,
            )
            grown[: self.count] = self.samples[: self.count]
            self.samples = grown
        self.samples[self.count : end] = new

    def _fit_ledger(self) -> None:
        # Called on each draw as well as on billing.  Growing the rows at
        # draw time, while no query's temporaries are alive, keeps this
        # long-lived buffer from landing above them in the heap, where it
        # held their freed memory resident.
        have_rows, have_cols = self.ledger.shape
        if have_rows < self.count or have_cols < self.width:
            grown = np.zeros(
                (_capacity(have_rows, self.count), _capacity(have_cols, self.width)),
                dtype=self.ledger.dtype,
            )
            grown[:have_rows, :have_cols] = self.ledger
            self.ledger = grown

    def _cells(self, rows: np.ndarray, col: np.ndarray) -> tuple[np.ndarray, object]:
        """An array and a key into it such that ``array[key]`` is the
        (len(rows), width) block of ledger cells of samples ``rows`` at
        ledger columns ``col`` (1-d shared, or 2-d one row per sample)."""
        run = _run(rows)
        cols = _run(col) if run is not None else None
        if cols is not None:
            # A view: written and read with no index array at all.
            return self.ledger, (run, cols)
        # One flat index per pair: numpy takes and puts through a 1-d index
        # faster than through two broadcast ones.
        return self.ledger.reshape(-1), rows[:, None] * self.ledger.shape[1] + col

    def bits(self, rows: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Bits of samples ``rows`` (1-d) at 1-based positions ``pos``: one
        1-d array shared by every sample, or a 2-d one with a row per sample.

        On a product source the pairs must be billed already: it draws a
        pair's bit when it bills it, and an unbilled pair reads as 255.
        """
        if self.product is not None:
            ledger, key = self._cells(rows, self.column[pos] - 1)
            return ledger[key] - 1
        if self.atoms is None:
            return self.samples[rows[:, None], pos - 1]
        atoms = self.samples[rows]
        if pos.ndim == 1 and self.atoms.shape[0] <= rows.size:
            # Whole rows of the table projected on the shared positions: a
            # 1-d take, several times faster than a broadcast 2-d gather.
            # A read of fewer rows than the table has atoms gathers per pair,
            # so its cost does not grow with the table.
            return np.take(self.atoms[:, pos - 1], atoms, axis=0)
        return self.atoms[atoms[:, None], pos - 1]

    def bill(self, rows: np.ndarray, pos: np.ndarray, mask=None) -> int:
        """Mark pairs billed and return how many of them were not yet.

        ``rows`` (1-d) and 1-based ``pos`` (1-d shared by every row, or 2-d
        with a row per sample) name distinct (sample, position) pairs;
        ``mask``, of their (len(rows), width) shape, keeps only some of them.
        Positions are mapped to ledger columns here, once per entry of
        ``pos``.  On a product source each new pair's bit is drawn here, one
        uniform per pair of the call in pair order.

        A call without a mask whose rows all lie at or past ``frontier``
        bills every pair, so it writes the cells without reading them.
        """
        if rows.size == 0:
            return 0
        col = self.column[pos]
        if np.count_nonzero(col) < col.size:
            unmapped = np.unique(pos[col == 0])
            self.column[unmapped] = np.arange(self.width + 1, self.width + 1 + unmapped.size)
            self.width += unmapped.size
            self._fit_ledger()
            col = self.column[pos]
        col -= 1
        ledger, key = self._cells(rows, col)
        fresh = mask is None and int(rows.min()) >= self.frontier
        self.frontier = max(self.frontier, int(rows.max()) + 1)
        drawn = True
        if self.product is not None:
            # A pair that is not new keeps its cell and discards its uniform.
            # Reference bits and rates are gathered per position, not per pair.
            ref, probs = self.product
            at = pos - 1
            drawn = (self.rng.random((rows.size, col.shape[-1])) < probs[at]).view(np.uint8)
            drawn ^= ref[at]
            drawn += 1
        if fresh:
            ledger[key] = drawn
            return rows.size * col.shape[-1]
        seen = ledger[key]
        new = seen == 0 if mask is None else mask & (seen == 0)
        ledger[key] = np.where(new, drawn, seen)
        return int(np.count_nonzero(new))


class BilledOracle:
    """Sampling access to one or two distributions with per-bit billing.

    ``draw`` hands out handles; ``query``/``query_block`` reveal single bits
    and charge one unit per distinct (handle, position) pair over the
    oracle's lifetime.  Nothing else about a sample can be observed.
    """

    def __init__(self, sources, seed):
        if isinstance(sources, (FiniteDistribution, ImplicitDistribution)):
            sources = (sources,)
        sources = tuple(sources)
        if not 1 <= len(sources) <= 2:
            raise ValueError("an oracle serves one or two distributions")
        n = sources[0].n
        if any(s.n != n for s in sources):
            raise ValueError("all distributions must share the same n")
        if n < 1:
            raise ValueError("n must be at least 1")
        self._rng = new_rng(seed)
        self._stores = [_SourceStore(s, n, self._rng) for s in sources]
        self._n = n
        self._token = next(_oracle_tokens)
        self._queries = 0

    @property
    def n(self) -> int:
        return self._n

    @property
    def num_sources(self) -> int:
        return len(self._stores)

    @property
    def queries_used(self) -> int:
        return self._queries

    @property
    def samples_drawn(self) -> tuple[int, ...]:
        return tuple(store.count for store in self._stores)

    def draw(self, count: int, source: int = 0) -> SampleBatch:
        """Draw ``count`` i.i.d. samples from ``source`` and return handles."""
        if not isinstance(count, (int, np.integer)) or count < 1:
            raise ValueError("sample count must be a positive integer")
        if not 0 <= source < len(self._stores):
            raise ValueError(f"no distribution with index {source}")
        store = self._stores[source]
        start = store.count
        store.append(int(count))
        return SampleBatch(self._token, source, np.arange(start, start + count))

    def query(self, handle: SampleHandle, position: int) -> int:
        """Reveal bit ``position`` (1-based) of the sample behind ``handle``."""
        return int(self.query_block([handle], [position])[0, 0])

    def query_block(self, handles, positions) -> np.ndarray:
        """Reveal bits of several handles at once.

        ``positions`` is 1-based: either one 1-d array shared by every handle
        or a 2-d array with one row of positions per handle.  Returns a
        (len(handles), width) uint8 matrix.  Billing stays per distinct
        (handle, position) pair, duplicates inside the call included.

        A call whose touched samples hold no more cells than it has pairs
        is dense: :meth:`_query_dense` bills and reads it through
        (touched, n) tables over those samples.  Any other call is first
        reduced to its distinct pairs, which are then billed, and read back
        once billed: a call without repeats is its own set of pairs, and any
        other call sorts flat pair keys and drops adjacent repeats.  A call
        without repeats on samples no call has billed yet, as in
        ``query_block(oracle.draw(s), positions)``, bills all its pairs
        without reading the ledger.  When its positions are sorted and new to
        the source, or are such a set of positions again, it addresses the
        ledger as one slice, not through an index per pair.
        """
        batch = self._as_batch(handles)
        k = len(batch)
        pos = np.asarray(positions)
        if pos.dtype != np.int32:
            pos = pos.astype(np.int64, copy=False)
        if not (pos.ndim == 1 or (pos.ndim == 2 and pos.shape[0] == k)):
            raise ValueError("positions must be 1-d or have one row per handle")
        if pos.size == 0:
            return np.empty((k, 0), dtype=np.uint8)
        if int(pos.min()) < 1 or int(pos.max()) > self._n:
            raise ValueError(f"positions outside [1, {self._n}]")
        store = self._stores[batch.source]
        rows = batch.rows
        # A batch straight from ``draw`` is strictly increasing, and so its
        # own set of touched samples.
        increasing = rows.size < 2 or bool((rows[1:] > rows[:-1]).all())
        touched = rows if increasing else np.unique(rows)
        if touched.size * self._n <= rows.size * pos.shape[-1]:
            return self._query_dense(store, rows, touched, increasing, pos)
        if touched.size == rows.size and _distinct_per_row(pos):
            self._queries += store.bill(rows, pos)
        else:
            stride = self._n + 1
            flat = _distinct_sorted((rows[:, None] * stride + pos).ravel())
            self._queries += store.bill(flat // stride, (flat % stride)[:, None])
        return store.bits(rows, pos)

    def _query_dense(self, store, rows, touched, increasing, pos) -> np.ndarray:
        """Bill and read a call through (touched, n) tables over its samples.

        Pair (row i, position p) is cell ``at[i] + p`` of the flattened
        tables, where ``at[i]`` is n times row i's index in ``touched``,
        minus 1 for the 1-based positions.  The flat index is int32 when
        the tables fit it, and is built in chunks of at most
        ``_DENSE_CHUNK_PAIRS`` pairs.  Each chunk scatters its pairs into a
        bitmap of the pairs to bill and gathers its bits from a table of the
        touched samples' bits.

        A store whose billing draws nothing reads that table over all n
        positions first, so one pass over the chunks builds each index once
        and uses it for both.  When every position has a ledger column, a
        touched sample whose ledger row is all billed can bill nothing new,
        so its pairs are left out of the bitmap.  A product store draws
        each bit when it bills it, one uniform per (touched sample, position
        in the call), so it scatters every pair, bills, and then reads the
        table in a second pass.
        """
        n = self._n
        spot = np.arange(rows.size) if increasing else np.searchsorted(touched, rows)
        # Indices run from -1 to touched * n - 1.
        at = spot.astype(np.int32 if touched.size * n <= np.iinfo(np.int32).max else np.int64)
        at *= n
        at -= 1
        width = pos.shape[-1]
        step = max(1, _DENSE_CHUNK_PAIRS // width)
        chunks = [slice(lo, lo + step) for lo in range(0, rows.size, step)]

        def index(chunk: slice) -> np.ndarray:
            return at[chunk, None] + (pos if pos.ndim == 1 else pos[chunk])

        hit = np.zeros((touched.size, n), dtype=bool)
        cells = hit.reshape(-1)
        out = np.empty((rows.size, width), dtype=np.uint8)
        live = None
        if store.product is None:
            bits = store.bits(touched, np.arange(1, n + 1)).reshape(-1)
            if store.width == n:
                billed = store.ledger[touched, :n].all(axis=1)
                if billed.any():
                    live = ~billed[spot]
        for chunk in chunks:
            idx = index(chunk)
            if store.product is None:
                np.take(bits, idx, out=out[chunk])
            if live is not None:
                idx = idx[live[chunk]]
            # numpy assigns through an intp index faster than through an
            # int32 one, even counting the cast.
            cells[idx.astype(np.intp, copy=False)] = True
        used = np.flatnonzero(hit.any(axis=0))
        self._queries += store.bill(touched, used + 1, hit[:, used])
        if store.product is not None:
            table = np.zeros(hit.shape, dtype=np.uint8)
            table[:, used] = store.bits(touched, used + 1)
            bits = table.reshape(-1)
            for chunk in chunks:
                np.take(bits, index(chunk), out=out[chunk])
        return out

    def _check_handle(self, handle: SampleHandle) -> None:
        if not isinstance(handle, SampleHandle) or handle.token != self._token:
            raise ValueError("handle does not belong to this oracle")
        if not 0 <= handle.source < len(self._stores):
            raise ValueError("handle names an unknown distribution")
        if not 0 <= handle.row < self._stores[handle.source].count:
            raise ValueError("handle names a sample that was never drawn")

    def _as_batch(self, handles) -> SampleBatch:
        if isinstance(handles, SampleBatch):
            if handles.token != self._token:
                raise ValueError("handles do not belong to this oracle")
            if len(handles) and int(handles.rows.max()) >= self._stores[handles.source].count:
                raise ValueError("batch names samples that were never drawn")
            return handles
        if isinstance(handles, SampleHandle):
            handles = [handles]
        handles = list(handles)
        if not handles:
            raise ValueError("need at least one handle")
        for h in handles:
            self._check_handle(h)
        source = handles[0].source
        if any(h.source != source for h in handles):
            raise ValueError("one query_block call serves one distribution")
        return SampleBatch(
            self._token, source, np.array([h.row for h in handles], dtype=np.int64)
        )


@dataclass(frozen=True)
class TesterReport:
    """Outcome of one tester run.

    ``samples_used`` lists draws per distribution in oracle order;
    ``queries_used`` is the oracle's billed total.  ``trace`` is a JSON-able
    dict; every tester stores its query budget there under ``"budget"`` with
    ``"kind"`` either ``"exact"`` (queries_used must equal ``"value"``) or
    ``"bound"`` (queries_used must not exceed ``"value"``; the schedule
    deduplicates random probes, so the billed count may fall below it).
    """

    verdict: str
    samples_used: tuple[int, ...]
    queries_used: int
    trace: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in ("accept", "reject"):
            raise ValueError("verdict must be 'accept' or 'reject'")

    @property
    def accepted(self) -> bool:
        return self.verdict == "accept"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "samples_used": list(self.samples_used),
            "queries_used": self.queries_used,
            "trace": self.trace,
        }


class BudgetLawError(RuntimeError):
    """A tester's bill breaks its declared budget or the sample law."""


def finish_report(oracle: BilledOracle, accept: bool, trace: dict) -> TesterReport:
    """Assemble a report from the oracle's final counters.

    Checks the budget law first: ``trace["budget"]`` is ``"exact"`` (the
    bill equals its value) or ``"bound"`` (the bill is at most its value),
    and every run bills between one bit per sample drawn and all n of them,
    samples <= queries <= samples * n.  A violation raises
    :class:`BudgetLawError`.
    """
    budget = trace.get("budget", {})
    kind, value = budget.get("kind"), budget.get("value")
    queries, samples = oracle.queries_used, sum(oracle.samples_drawn)
    if kind not in ("exact", "bound"):
        raise BudgetLawError(f"trace has no exact or bound budget: {budget!r}")
    if queries > value or (kind == "exact" and queries != value):
        raise BudgetLawError(f"{kind} budget {value} but {queries} bits billed")
    if not samples <= queries <= samples * oracle.n:
        raise BudgetLawError(
            f"{queries} bits billed outside [samples, samples * n] = "
            f"[{samples}, {samples * oracle.n}]"
        )
    return TesterReport(
        verdict="accept" if accept else "reject",
        samples_used=oracle.samples_drawn,
        queries_used=oracle.queries_used,
        trace=trace,
    )
