"""Property testers and self-correctors for single strings.

A string tester sees one sample through a :class:`~probedist.core.SampleView`
and decides membership in a fixed property at a given proximity; a
self-corrector recovers single bits of the nearby member when the sample is
mildly corrupted.  Batch variants exist purely for speed: they run the same
procedure for many samples at once through one oracle call.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Protocol, runtime_checkable

import numpy as np

from .core import BilledOracle, SampleBatch, SampleView, pack_rows

__all__ = [
    "StringTester",
    "SelfCorrector",
    "CorrectableProperty",
    "LinearityTester",
    "HadamardCorrector",
    "hadamard_property",
    "ConstantTester",
    "FullReadTester",
    "ExactIsomorphismTester",
]

# Most vertices of a graph whose v! relabelings are enumerated.
MAX_VERTICES = 7

# Batch primitives split a batch into chunks of at most this many probe
# positions, bounding their temporaries; a call under it is one chunk.
CHUNK_ENTRIES = 1 << 22


def _chunk_samples(entries_per_sample: int) -> int:
    return max(1, CHUNK_ENTRIES // max(1, entries_per_sample))


@runtime_checkable
class StringTester(Protocol):
    """Decides membership of one string in a fixed property."""

    one_sided: bool

    def query_budget(self, n: int, eps: float) -> int:
        """Upper bound on positions probed by one ``test`` call."""

    def test(self, view: SampleView, eps: float, rng: np.random.Generator) -> bool:
        ...


@runtime_checkable
class SelfCorrector(Protocol):
    """Recovers bits of the property member nearest to each sample."""

    queries_per_call: int

    def correct_batch(
        self,
        oracle: BilledOracle,
        batch: SampleBatch,
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
        return 3 * self.rounds(eps)

    def test(self, view: SampleView, eps: float, rng: np.random.Generator) -> bool:
        n = view.n
        if n & (n - 1):
            raise ValueError("linearity testing needs n = 2^k")
        r = self.rounds(eps)
        a = rng.integers(0, n, size=r)
        b = rng.integers(0, n, size=r)
        bits = view.query_block(np.concatenate([a, b, a ^ b]) + 1)
        xa, xb, xc = bits[:r], bits[r : 2 * r], bits[2 * r :]
        return bool(np.all((xa ^ xb) == xc))

    def test_batch(
        self,
        oracle: BilledOracle,
        batch: SampleBatch,
        eps: float,
        rng: np.random.Generator,
        repeats: int = 1,
    ) -> np.ndarray:
        """Run ``repeats`` independent tests per sample; (samples, repeats) bools."""
        n = oracle.n
        if n & (n - 1):
            raise ValueError("linearity testing needs n = 2^k")
        k = len(batch)
        r = self.rounds(eps)
        step = _chunk_samples(repeats * r * 3)
        if k > step:
            parts = [batch[i : i + step] for i in range(0, k, step)]
            return np.concatenate([self.test_batch(oracle, p, eps, rng, repeats) for p in parts])
        a = rng.integers(0, n, size=(k, repeats, r))
        b = rng.integers(0, n, size=(k, repeats, r))
        pos = np.stack([a, b, a ^ b], axis=-1).reshape(k, repeats * r * 3)
        pos += 1
        bits = oracle.query_block(batch, pos).reshape(k, repeats, r, 3)
        ok = (bits[..., 0] ^ bits[..., 1]) == bits[..., 2]
        return ok.all(axis=2)


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

    def correct(
        self, view: SampleView, position: int, rng: np.random.Generator
    ) -> Optional[int]:
        n = view.n
        a = position - 1
        r = rng.integers(0, n, size=2)
        bits = view.query_block(np.array([a ^ r[0], r[0], a ^ r[1], r[1]]) + 1)
        e0, e1 = bits[0] ^ bits[1], bits[2] ^ bits[3]
        return int(e0) if e0 == e1 else None

    def correct_batch(
        self,
        oracle: BilledOracle,
        batch: SampleBatch,
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
        n = oracle.n
        k = len(batch)
        a = np.asarray(positions, dtype=np.int64) - 1
        if a.ndim == 1:
            a = np.broadcast_to(a, (k, a.size))
        if a.shape[0] != k:
            raise ValueError("positions must be shared or one row per sample")
        L = a.shape[1]
        step = _chunk_samples(L * repeats * 4)
        if k > step:
            parts = [(batch[i : i + step], a[i : i + step] + 1) for i in range(0, k, step)]
            done = [self.correct_batch(oracle, b, p, rng, repeats) for b, p in parts]
            return np.concatenate(done)
        r = rng.integers(0, n, size=(k, L, repeats, 2))
        shifted = a[:, :, None, None] ^ r
        pos = np.stack([shifted, r], axis=-1).reshape(k, L * repeats * 4)
        pos += 1
        bits = oracle.query_block(batch, pos).reshape(k, L, repeats, 2, 2)
        est = bits[..., 0] ^ bits[..., 1]
        call = np.where(est[..., 0] == est[..., 1], est[..., 0], -1).astype(np.int8)
        ones = (call == 1).sum(axis=2)
        zeros = (call == 0).sum(axis=2)
        return np.where(
            2 * ones > repeats, 1, np.where(2 * zeros > repeats, 0, -1)
        ).astype(np.int8)


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

    Probes position 1 plus ceil(c / eps) uniformly random positions and
    accepts iff all probed bits agree.
    """

    rounds_factor: float = 4.0
    one_sided: ClassVar[bool] = True

    def query_budget(self, n: int, eps: float) -> int:
        return 1 + _rounds(self.rounds_factor, eps)

    def test(self, view: SampleView, eps: float, rng: np.random.Generator) -> bool:
        first = view.query(1)
        pos = rng.integers(1, view.n + 1, size=_rounds(self.rounds_factor, eps))
        bits = view.query_block(pos)
        return bool(np.all(bits == first))


@dataclass(frozen=True)
class FullReadTester:
    """Reads the whole string and checks exact membership; n queries.

    The correct-but-expensive baseline for properties without a sublinear
    tester wired in.
    """

    contains: Callable[[np.ndarray], bool]
    one_sided: ClassVar[bool] = True

    def query_budget(self, n: int, eps: float) -> int:
        return n

    def test(self, view: SampleView, eps: float, rng: np.random.Generator) -> bool:
        bits = view.query_block(np.arange(1, view.n + 1))
        return bool(self.contains(bits))


@functools.lru_cache(maxsize=None)
def _all_permutations(v: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(v))), dtype=np.int64)


@dataclass(frozen=True, eq=False)
class ExactIsomorphismTester:
    """Exact graph-isomorphism check between two adjacency-matrix samples.

    Samples are v x v adjacency matrices read row-major (directed graphs,
    self-loops allowed; undirected graphs are the symmetric special case).
    Reads both strings fully, brings each matrix to the lexicographically
    least row-major form over all vertex relabelings, and compares.  Brute
    force over v! relabelings, so v is capped at ``MAX_VERTICES`` by
    default; canonical forms are cached per handle, which keeps t-sample
    runs at one canonicalisation per sample.  The cache holds the handles
    of one oracle at a time: a handle of another oracle empties it.
    """

    max_vertices: int = MAX_VERTICES
    one_sided: ClassVar[bool] = True

    def __post_init__(self):
        object.__setattr__(self, "_cache", {})
        object.__setattr__(self, "_cache_token", None)

    def query_budget(self, n: int, eps: float) -> int:
        return 2 * n

    def _canonical(self, view: SampleView) -> bytes:
        key = (view.handle.token, view.handle.source, view.handle.row)
        if key[0] != self._cache_token:
            self._cache.clear()
            object.__setattr__(self, "_cache_token", key[0])
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        n = view.n
        v = math.isqrt(n)
        if v * v != n:
            raise ValueError("adjacency strings need square length")
        if v > self.max_vertices:
            raise ValueError(f"exact isomorphism capped at {self.max_vertices} vertices")
        mat = view.query_block(np.arange(1, n + 1)).reshape(v, v)
        perms = _all_permutations(v)
        relabeled = mat[perms[:, :, None], perms[:, None, :]].reshape(len(perms), n)
        canon = bytes(np.sort(pack_rows(relabeled))[0])
        self._cache[key] = canon
        return canon

    def test(
        self, view_a: SampleView, view_b: SampleView, eps: float, rng: np.random.Generator
    ) -> bool:
        return self._canonical(view_a) == self._canonical(view_b)
