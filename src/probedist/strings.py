"""Property testers and self-correctors for single strings.

Testers and correctors read samples through a reader: any object with ``n``
and ``query_block(batch, positions)``, which returns the bits of every sample
of ``batch`` at 1-based ``positions`` (one 1-d array shared by every sample,
or one row per sample) as a (len(batch), width) uint8 array.  A
:class:`~probedist.core.BilledOracle` is a reader of the batches it draws.
A string tester decides membership of each sample in a fixed property at a
given proximity, ``repeats`` independent runs per sample, through one read
per batch; a self-corrector recovers bits of the property member nearest to
each sample when the samples are mildly corrupted.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import ClassVar, Protocol, runtime_checkable

import numpy as np

from .core import pack_rows

__all__ = [
    "StringTester",
    "SelfCorrector",
    "CorrectableProperty",
    "LinearityTester",
    "HadamardCorrector",
    "hadamard_property",
    "ConstantTester",
    "ExactIsomorphismTester",
]

# Most vertices of a graph whose v! relabelings are enumerated.
MAX_VERTICES = 7

# Batch primitives split a batch into chunks of at most this many probe
# positions, bounding their temporaries; a call under it is one chunk.
CHUNK_ENTRIES = 1 << 22


def _chunk_samples(entries_per_sample: int) -> int:
    return max(1, CHUNK_ENTRIES // max(1, entries_per_sample))


def _position_dtype(n: int) -> type:
    """int32 for 1-based positions up to n when they fit, else int64.

    For a range below 2^32, ``rng.integers(..., dtype=np.int32)`` gives the
    same values as an int64 draw and leaves the generator in the same state,
    so the narrower probe arrays draw the same stream at half the memory.
    """
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


@runtime_checkable
class StringTester(Protocol):
    """Decides membership of strings in a fixed property."""

    one_sided: bool

    def query_budget(self, n: int, eps: float) -> int:
        """Upper bound on positions probed by one run on one sample.

        Raises ValueError when strings of length n cannot be tested; it draws
        nothing, so callers check a property's preconditions with it.
        """

    def test_batch(
        self, reader, batch, eps: float, rng: np.random.Generator, repeats: int = 1
    ) -> np.ndarray:
        """Run ``repeats`` independent tests per sample; (samples, repeats) bools."""


@runtime_checkable
class SelfCorrector(Protocol):
    """Recovers bits of the property member nearest to each sample."""

    queries_per_call: int

    def correct_batch(
        self,
        reader,
        batch,
        positions: np.ndarray,
        rng: np.random.Generator,
        repeats: int,
    ) -> np.ndarray:
        """Amplified correction of every (sample, position) pair; -1 = undecided.

        ``positions`` is one shared 1-d list or one row per sample.  Each
        pair gets ``repeats`` calls of ``queries_per_call`` queries.
        """


@dataclass(frozen=True)
class CorrectableProperty:
    """A string property bundled with its tester and self-corrector.

    ``delta`` is the correction radius: within relative distance delta of the
    property, the corrector still recovers the nearby member's bits with its
    documented per-call guarantee.  ``contains`` is an exact membership check
    for fixtures and certificates; testers never call it.
    """

    name: str
    tester: StringTester
    corrector: SelfCorrector
    delta: float
    contains: Callable[[np.ndarray], bool]


def _rounds(factor: float, eps: float) -> int:
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    return max(1, math.ceil(factor / eps))


@dataclass(frozen=True)
class LinearityTester:
    """Three-query linearity test for truth tables over GF(2)^k (n = 2^k).

    Position p holds the value at the point with binary expansion p - 1, so
    a triple (a, b, a xor b) of points sits at positions a+1, b+1, (a^b)+1.
    Each round draws fresh uniform a, b and checks
    x(a) xor x(b) == x(a xor b); all rounds must pass.  Exactly linear
    tables always do, so the test is one-sided.
    """

    rounds_factor: float = 3.0
    one_sided: ClassVar[bool] = True

    def rounds(self, eps: float) -> int:
        return _rounds(self.rounds_factor, eps)

    def query_budget(self, n: int, eps: float) -> int:
        if n & (n - 1):
            raise ValueError("linearity testing needs n = 2^k")
        return 3 * self.rounds(eps)

    def test_batch(
        self, reader, batch, eps: float, rng: np.random.Generator, repeats: int = 1
    ) -> np.ndarray:
        """Run ``repeats`` independent tests per sample; (samples, repeats) bools."""
        n, k = reader.n, len(batch)
        r = self.query_budget(n, eps) // 3
        step = _chunk_samples(repeats * r * 3)
        if k > step:
            parts = [batch[i : i + step] for i in range(0, k, step)]
            return np.concatenate([self.test_batch(reader, p, eps, rng, repeats) for p in parts])
        dtype = _position_dtype(n)
        pos = np.empty((k, repeats, r, 3), dtype=dtype)
        pos[..., 0] = rng.integers(0, n, size=(k, repeats, r), dtype=dtype)
        pos[..., 1] = rng.integers(0, n, size=(k, repeats, r), dtype=dtype)
        np.bitwise_xor(pos[..., 0], pos[..., 1], out=pos[..., 2])
        pos += 1
        bits = reader.query_block(batch, pos.reshape(k, -1)).reshape(pos.shape)
        ok = (bits[..., 0] ^ bits[..., 1]) == bits[..., 2]
        return ok.all(axis=2)

    # The benchmark's tracer wraps this name; its next revision drops it.
    test = test_batch


@dataclass(frozen=True)
class HadamardCorrector:
    """Random-shift self-correction for linear truth tables.

    One call makes two independent estimates of the bit at point a, each as
    x(a xor r) xor x(r) for fresh uniform r, and returns the common value
    when they agree, None otherwise.  On an exactly linear table both
    estimates equal the true bit; at relative distance d from linear each
    estimate is wrong with probability at most 2d.
    """

    queries_per_call: ClassVar[int] = 4

    def correct_batch(
        self,
        reader,
        batch,
        positions: np.ndarray,
        rng: np.random.Generator,
        repeats: int,
    ) -> np.ndarray:
        """Majority-amplified correction of every (sample, position) pair.

        Makes ``repeats`` calls per pair and returns the strict-majority
        value, or -1 when no value wins more than half the calls (a call
        that disagrees internally contributes to neither value).
        ``positions`` is one shared 1-d list or one row per sample; the
        result has shape (samples, positions) int8.
        """
        n = reader.n
        k = len(batch)
        dtype = _position_dtype(n)
        a = np.asarray(positions, dtype=np.int64)
        if a.size and (int(a.min()) < 1 or int(a.max()) > n):
            raise ValueError(f"positions outside [1, {n}]")
        a = a.astype(dtype) - 1
        if a.ndim == 1:
            a = np.broadcast_to(a, (k, a.size))
        if a.shape[0] != k:
            raise ValueError("positions must be shared or one row per sample")
        L = a.shape[1]
        step = _chunk_samples(L * repeats * 4)
        if k > step:
            parts = [(batch[i : i + step], a[i : i + step] + 1) for i in range(0, k, step)]
            done = [self.correct_batch(reader, b, p, rng, repeats) for b, p in parts]
            return np.concatenate(done)
        # Each estimate reads the pair (a ^ r, r), in that order.
        pos = np.empty((k, L, repeats, 2, 2), dtype=dtype)
        r = rng.integers(0, n, size=(k, L, repeats, 2), dtype=dtype)
        np.bitwise_xor(a[:, :, None, None], r, out=pos[..., 0])
        pos[..., 1] = r
        del r  # not held through the read
        pos += 1
        bits = reader.query_block(batch, pos.reshape(k, -1)).reshape(pos.shape)
        est = bits[..., 0] ^ bits[..., 1]
        # Per call: 2 when both estimates say 1, 0 when both say 0, 1 when
        # they disagree, which counts for neither value.
        votes = est[..., 0] + est[..., 1]
        ones = np.count_nonzero(votes == 2, axis=2)
        zeros = np.count_nonzero(votes == 0, axis=2)
        return np.where(
            2 * ones > repeats, 1, np.where(2 * zeros > repeats, 0, -1)
        ).astype(np.int8)

    # The benchmark's tracer wraps this name; its next revision drops it.
    correct = correct_batch


def hadamard_property(k: int) -> CorrectableProperty:
    """Linear truth tables over GF(2)^k as a correctable property.

    n = 2^k; the member strings are exactly the 2^k truth tables of GF(2)
    linear forms, pairwise at relative distance 1/2.  Correction radius 1/8.
    """
    if not 1 <= k <= 20:
        raise ValueError("k must lie in [1, 20]")
    n = 1 << k

    def contains(bits) -> bool:
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.shape != (n,):
            return False
        coeff = arr[(1 << np.arange(k))]
        points = np.arange(n, dtype=np.int64)
        point_bits = (points[:, None] >> np.arange(k)[None, :]) & 1
        predicted = (point_bits @ coeff) % 2
        return bool(np.array_equal(arr, predicted.astype(np.uint8)))

    return CorrectableProperty(
        name=f"linear-truth-tables-{k}",
        tester=LinearityTester(),
        corrector=HadamardCorrector(),
        delta=0.125,
        contains=contains,
    )


@dataclass(frozen=True)
class ConstantTester:
    """One-sided test that every bit of the string is equal.

    Each run probes position 1 plus R = ceil(c / eps) uniformly random
    positions, read as [1, p_1 ... p_R], and passes iff all probed bits
    agree.
    """

    rounds_factor: float = 4.0
    one_sided: ClassVar[bool] = True

    def query_budget(self, n: int, eps: float) -> int:
        return 1 + _rounds(self.rounds_factor, eps)

    def test_batch(
        self, reader, batch, eps: float, rng: np.random.Generator, repeats: int = 1
    ) -> np.ndarray:
        """Run ``repeats`` independent tests per sample; (samples, repeats) bools."""
        k, width = len(batch), self.query_budget(reader.n, eps)
        step = _chunk_samples(repeats * width)
        if k > step:
            parts = [batch[i : i + step] for i in range(0, k, step)]
            return np.concatenate([self.test_batch(reader, p, eps, rng, repeats) for p in parts])
        pos = np.ones((k, repeats, width), dtype=np.int64)
        pos[..., 1:] = rng.integers(1, reader.n + 1, size=(k, repeats, width - 1))
        bits = reader.query_block(batch, pos.reshape(k, -1)).reshape(pos.shape)
        return (bits == bits[..., :1]).all(axis=2)

    # The benchmark's tracer wraps this name; its next revision drops it.
    test = test_batch


@functools.lru_cache(maxsize=None)
def _all_permutations(v: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(v))), dtype=np.int64)


@dataclass(frozen=True)
class ExactIsomorphismTester:
    """Exact graph-isomorphism check between two adjacency-matrix samples.

    Samples are v x v adjacency matrices read row-major (directed graphs,
    self-loops allowed; undirected graphs are the symmetric special case),
    each given as a 1-sample batch of a reader.  Reads both strings fully,
    brings each matrix to the lexicographically least row-major form over
    all vertex relabelings, and compares.  Brute force over v! relabelings,
    so v is capped at ``MAX_VERTICES`` by default.  A caller comparing many
    samples with one reference keeps the reference's ``canonical`` form.
    """

    max_vertices: int = MAX_VERTICES
    one_sided: ClassVar[bool] = True

    def query_budget(self, n: int, eps: float) -> int:
        return 2 * n

    def canonical(self, reader, sample) -> bytes:
        """Least row-major form of the 1-sample batch's graph over relabelings."""
        n = reader.n
        v = math.isqrt(n)
        if v * v != n:
            raise ValueError("adjacency strings need square length")
        if v > self.max_vertices:
            raise ValueError(f"exact isomorphism capped at {self.max_vertices} vertices")
        mat = reader.query_block(sample, np.arange(1, n + 1)).reshape(v, v)
        perms = _all_permutations(v)
        relabeled = mat[perms[:, :, None], perms[:, None, :]].reshape(len(perms), n)
        return np.sort(pack_rows(relabeled))[0].tobytes()

    def test(self, reader, a, b, eps: float, rng: np.random.Generator) -> bool:
        """True iff the 1-sample batches ``a`` and ``b`` hold isomorphic graphs."""
        return self.canonical(reader, a) == self.canonical(reader, b)
