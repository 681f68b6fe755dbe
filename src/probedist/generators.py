"""Instance generators: property members, certified-far instances, codes.

Generators return explicit :class:`FiniteDistribution` objects whenever the
support is small enough to enumerate, and sampler-backed
:class:`ImplicitDistribution` objects otherwise.  Implicit instances carry
their construction parameters in ``metadata`` so tests can certify distances
from how the instance was built rather than from sampling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    FiniteDistribution,
    ImplicitDistribution,
    _as_bit_array,
    _exact_unit_weights,
    _merge_rows,
    _to01,
    new_rng,
    pack_rows,
)
from .strings import MAX_VERTICES, _all_permutations

__all__ = [
    "uniform_random_subset",
    "inside_outside_mixture",
    "shift_dist",
    "perturb_dist",
    "coordinate_noise_dist",
    "iso_copies_dist",
    "mixture",
    "LinearCode",
    "hadamard_code",
    "code_lift",
]


def uniform_random_subset(
    seed, n: int, m: int, min_distance: float = 0.0, max_attempts: int = 2000
) -> FiniteDistribution:
    """Uniform distribution over m random strings, pairwise well separated.

    Draws strings one by one, rejecting any that comes within relative
    Hamming distance ``min_distance`` of an already chosen one.
    """
    if m < 1 or n < 1:
        raise ValueError("need n >= 1 and m >= 1")
    rng = new_rng(seed)
    chosen: list[np.ndarray] = []
    attempts = 0
    while len(chosen) < m:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError(
                f"could not place {m} strings at pairwise distance {min_distance}"
            )
        cand = rng.integers(0, 2, size=n, dtype=np.uint8)
        if all((c != cand).mean() >= min_distance for c in chosen) and not any(
            np.array_equal(c, cand) for c in chosen
        ):
            chosen.append(cand)
    return FiniteDistribution.uniform_over(chosen)


def inside_outside_mixture(strings):
    """Half the mass uniform over the given set, half uniform off it.

    Explicit when n is at most 16 (the full cube is enumerated); otherwise
    an implicit rejection sampler.
    """
    rows = _merge_rows(np.stack([_as_bit_array(s) for s in strings]))[0]
    inside, n = rows.shape
    if inside >= 2**n:
        raise ValueError("the set covers the whole cube; nothing is outside")
    if n <= 16:
        total = 1 << n
        everything = ((np.arange(total)[:, None] >> np.arange(n)[None, :]) & 1).astype(
            np.uint8
        )
        member = np.isin(pack_rows(everything), pack_rows(rows))
        weights = np.where(member, 0.5 / inside, 0.5 / (total - inside))
        return FiniteDistribution(rows=everything, weights=_exact_unit_weights(weights))

    keys = set(pack_rows(rows).tolist())

    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        out = np.empty((count, n), dtype=np.uint8)
        pick_inside = rng.random(count) < 0.5
        k_in = int(pick_inside.sum())
        if k_in:
            out[pick_inside] = rows[rng.integers(0, inside, size=k_in)]
        todo = np.nonzero(~pick_inside)[0]
        while todo.size:
            cand = rng.integers(0, 2, size=(todo.size, n), dtype=np.uint8)
            bad = np.array([k in keys for k in pack_rows(cand).tolist()])
            out[todo[~bad]] = cand[~bad]
            todo = todo[bad]
        return out

    return ImplicitDistribution(
        n=n,
        sampler=sampler,
        metadata={"family": "inside-outside", "inside": int(inside)},
    )


def shift_dist(x, law=None) -> FiniteDistribution:
    """Distribution of a fixed string rotated by a law-weighted amount.

    ``law`` is a weight vector over rotation amounts 0..n-1 (uniform when
    omitted).  Coinciding rotations are merged, so periodic strings yield
    small supports.
    """
    bits = _as_bit_array(x)
    n = bits.size
    if law is None:
        law = np.full(n, 1.0 / n)
    law = np.asarray(law, dtype=np.float64)
    if law.shape != (n,) or law.min() < 0 or abs(float(law.sum()) - 1.0) > 1e-9:
        raise ValueError("law must be a probability vector over 0..n-1")
    rows = np.stack([np.roll(bits, k) for k in range(n)])
    keep = law > 0
    return FiniteDistribution.merged(rows[keep], law[keep])


def _binomial_tail_above(n: int, rate: float, radius: int) -> float:
    """Pr[Binomial(n, rate) > radius] for 0 < rate < 1, up to float rounding.

    The point masses are formed in log space and scaled by the largest one
    before summing, so no binomial coefficient overflows at any n.
    """
    log_p, log_q, log_nf = math.log(rate), math.log1p(-rate), math.lgamma(n + 1)
    logs = [
        log_nf - math.lgamma(d + 1) - math.lgamma(n - d + 1) + d * log_p + (n - d) * log_q
        for d in range(radius + 1)
    ]
    top = max(logs)
    return max(0.0, 1.0 - math.exp(top) * math.fsum(math.exp(v - top) for v in logs))


def perturb_dist(
    x,
    eta: float,
    delta: float,
    rate: float | None = None,
):
    """Member of the bounded-perturbation family around a reference string.

    Each bit flips independently with probability ``rate`` (default eta),
    conditioned on the total flip count staying within radius
    floor(delta * n).  That conditioning only lowers the per-bit flip
    marginals, so rate <= eta certifies family membership.  Raises when the
    conditioning would discard half the noise mass or more, since the
    result would stop resembling rate-level noise.

    Explicit enumeration of the radius ball for n <= 10, otherwise an
    implicit rejection sampler.
    """
    bits = _as_bit_array(x)
    n = bits.size
    if not 0.0 <= eta < 0.5:
        raise ValueError("eta must lie in [0, 0.5)")
    if rate is None:
        rate = eta
    if not 0.0 <= rate <= eta:
        raise ValueError("rate must lie in [0, eta]")
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    radius = math.floor(delta * n)
    truncation = _binomial_tail_above(n, rate, radius) if rate > 0 else 0.0
    if truncation >= 0.5:
        raise ValueError(
            f"infeasible parameters: radius {radius} cuts {truncation:.3f} "
            "of the noise mass (needs < 0.5)"
        )
    metadata = {
        "family": "bounded-perturbation",
        "reference": _to01(bits),
        "eta": float(eta),
        "rate": float(rate),
        "delta": float(delta),
        "radius": int(radius),
        "truncation_mass": float(truncation),
    }
    if n <= 10:
        rows, weights = [], []
        for r in range(radius + 1):
            base_w = rate**r * (1.0 - rate) ** (n - r)
            if base_w == 0.0 and r > 0:
                continue
            for flip_set in itertools.combinations(range(n), r):
                y = bits.copy()
                y[list(flip_set)] ^= 1
                rows.append(y)
                weights.append(base_w)
        weights = np.asarray(weights)
        weights = weights / weights.sum()
        return FiniteDistribution(
            rows=np.stack(rows), weights=_exact_unit_weights(weights)
        )

    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        flips = rng.random((count, n)) < rate
        over = flips.sum(axis=1) > radius
        guard = 0
        while over.any():
            guard += 1
            if guard > 500:
                raise RuntimeError("perturbation sampler failed to respect the radius")
            k = int(over.sum())
            flips[over] = rng.random((k, n)) < rate
            over = flips.sum(axis=1) > radius
        return (bits[None, :] ^ flips).astype(np.uint8)

    return ImplicitDistribution(n=n, sampler=sampler, metadata=metadata)


def coordinate_noise_dist(x, flip_probs) -> ImplicitDistribution:
    """Product noise around a reference string: bit i flips w.p. flip_probs[i].

    No radius truncation; the exact marginals sit in the metadata.  The law
    is product form, so an oracle draws each bit only when it is billed.
    """
    bits = _as_bit_array(x)
    n = bits.size
    # The product law below is checked on construction: n rates in [0, 1].
    probs = np.asarray(flip_probs, dtype=np.float64)

    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        flips = rng.random((count, n)) < probs[None, :]
        return (bits[None, :] ^ flips).astype(np.uint8)

    return ImplicitDistribution(
        n=n,
        sampler=sampler,
        metadata={
            "family": "coordinate-noise",
            "reference": _to01(bits),
            "marginals": probs.tolist(),
        },
        product=(bits, probs),
    )


def iso_copies_dist(adjacency) -> FiniteDistribution:
    """Uniform relabeling of one graph: adjacency matrices of its copies.

    ``adjacency`` is a v x v 0/1 matrix (or its row-major n = v^2 string).
    The distribution draws a uniformly random vertex relabeling; copies
    that coincide (automorphisms) merge into heavier atoms, each weighing
    its count of relabelings over v!.  At most ``MAX_VERTICES`` vertices.
    """
    if isinstance(adjacency, str):
        adjacency = _as_bit_array(adjacency)
    arr = np.asarray(adjacency, dtype=np.uint8)
    if arr.ndim == 1:
        v = math.isqrt(arr.size)
        if v * v != arr.size:
            raise ValueError("adjacency string must have square length")
        arr = arr.reshape(v, v)
    v = arr.shape[0]
    if arr.shape != (v, v) or int(arr.max(initial=0)) > 1:
        raise ValueError("adjacency must be a square 0/1 matrix")
    if v > MAX_VERTICES:
        raise ValueError(f"permutation enumeration capped at {MAX_VERTICES} vertices")
    perms = _all_permutations(v)
    relabeled = arr[perms[:, :, None], perms[:, None, :]].reshape(len(perms), v * v)
    # counts / v!: adding v! weights of 1/v! can differ in the last bit.
    uniq, counts = _merge_rows(relabeled)
    return FiniteDistribution(rows=uniq, weights=_exact_unit_weights(counts / len(perms)))


def mixture(components, weights) -> FiniteDistribution:
    """Explicit mixture of explicit distributions."""
    weights = np.asarray(weights, dtype=np.float64)
    if len(components) != weights.size or weights.min() <= 0:
        raise ValueError("one positive weight per component required")
    if abs(float(weights.sum()) - 1.0) > 1e-9:
        raise ValueError("mixture weights must sum to 1")
    if not all(isinstance(c, FiniteDistribution) for c in components):
        raise ValueError("mixture needs explicit components")
    n = components[0].n
    if any(c.n != n for c in components):
        raise ValueError("components live over different n")
    rows = np.concatenate([c.rows for c in components])
    w = np.concatenate([c.weights * wt for c, wt in zip(components, weights)])
    return FiniteDistribution.merged(rows, w)


@dataclass(frozen=True)
class LinearCode:
    """A binary linear code given by a k x n generator matrix over GF(2).

    All 2^k codewords are enumerated at construction (k capped at 12):
    encoding must be injective, and ``measured_min_distance`` records the
    least relative Hamming distance between distinct codewords.  For a
    linear code that equals the least weight over nonzero messages, which
    covers every pair since differences of codewords are codewords.
    """

    generator: np.ndarray
    measured_min_distance: float = field(init=False)

    def __post_init__(self):
        g = np.ascontiguousarray(np.asarray(self.generator, dtype=np.uint8) & 1)
        if g.ndim != 2 or g.shape[0] < 1 or g.shape[1] < 1:
            raise ValueError("generator must be a non-empty k x n matrix")
        if g.shape[0] > 12:
            raise ValueError("codeword enumeration at construction caps k at 12")
        g.setflags(write=False)
        object.__setattr__(self, "generator", g)
        words = self.codewords()
        if np.unique(pack_rows(words)).size != words.shape[0]:
            raise ValueError("generator is rank-deficient; encoding is not injective")
        dist = float(words[1:].sum(axis=1).min()) / g.shape[1]
        object.__setattr__(self, "measured_min_distance", dist)

    @property
    def k(self) -> int:
        return int(self.generator.shape[0])

    @property
    def n(self) -> int:
        return int(self.generator.shape[1])

    def encode(self, message) -> np.ndarray:
        msg = np.asarray(message, dtype=np.uint8)
        return (msg @ self.generator) % 2

    def codewords(self) -> np.ndarray:
        msgs = ((np.arange(1 << self.k)[:, None] >> np.arange(self.k)[None, :]) & 1).astype(
            np.uint8
        )
        return (msgs @ self.generator) % 2


def hadamard_code(k: int) -> LinearCode:
    """The length 2^k code of truth tables of GF(2)^k linear forms.

    Generator row i is the truth table of the i-th coordinate form: bit j
    of row i is bit i of the point index j.  Every pair of distinct
    codewords differs on exactly half the positions.
    """
    if not 1 <= k <= 12:
        raise ValueError("k must lie in [1, 12]")
    n = 1 << k
    gen = ((np.arange(n)[None, :] >> np.arange(k)[:, None]) & 1).astype(np.uint8)
    return LinearCode(gen)


def code_lift(code: LinearCode, p: FiniteDistribution) -> FiniteDistribution:
    """Push a distribution over k-bit messages through a code's encoder.

    Encoding is injective, so the lift preserves support sizes, all
    collision statistics, and total variation distances exactly, while
    pulling atom pairs apart to at least the code's measured distance.
    """
    if p.n != code.k:
        raise ValueError("message distribution must live over k bits")
    encoded = (p.rows @ code.generator) % 2
    return FiniteDistribution(rows=encoded.astype(np.uint8), weights=p.weights.copy())
