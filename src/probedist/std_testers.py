"""Testers for the classical sampling model: whole samples, no billing.

Each decision here depends only on the collision structure of the sample
lists (which values are equal to which), never on what the values are.  That
label invariance is what lets the billed testers feed in restrictions of
their samples and inherit the guarantees, so it is a hard requirement for
anything added to this module.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .constants import DEFAULT_CONSTANTS, Constants

__all__ = [
    "std_support_tester",
    "std_grained_tester",
    "collision_statistic",
    "equality_threshold",
    "std_equality_tester",
    "SupportInner",
    "GrainedInner",
]


def _counts(values) -> np.ndarray:
    """Multiplicity vector of a value list, label-free."""
    if isinstance(values, np.ndarray):
        _, counts = np.unique(values, return_counts=True)
        return counts
    return np.array(sorted(Counter(values).values()), dtype=np.int64)


def std_support_tester(values, m: int) -> bool:
    """Accept iff the sample list shows at most m distinct values.

    One-sided: a distribution on at most m strings can never produce more
    than m distinct values, so members always pass.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    return _counts(values).size <= m


def std_grained_tester(phase1_values, phase2_values, m: int, eps: float) -> bool:
    """Accept iff the phase-2 frequencies look like multiples of 1/m.

    Phase 1 fixes the plausible support W.  Any phase-2 value outside W
    rejects; every phase-2 frequency of at least (1 - 0.1*eps)/(2m) must
    fall within a factor 1 +- 0.1*eps of a positive integer multiple of
    1/m, and frequencies below that floor are ignored.  Phase sizes are the
    caller's responsibility (the billed wrapper uses the calibrated
    formulas).
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    p1 = np.asarray(phase1_values)
    p2 = np.asarray(phase2_values)
    if p1.size == 0 or p2.size == 0:
        raise ValueError("both phases need at least one sample")
    if not np.isin(p2, p1).all():
        return False
    _, counts = np.unique(p2, return_counts=True)
    freqs = counts / p2.size
    floor = (1.0 - 0.1 * eps) / (2.0 * m)
    for f in freqs:
        if f < floor:
            continue
        k = round(f * m)
        if k < 1:
            return False
        if not (1.0 - 0.1 * eps) * k / m <= f <= (1.0 + 0.1 * eps) * k / m:
            return False
    return True


def collision_statistic(counts_a, counts_b) -> float:
    """Z = sum over values of (a_v - b_v)^2 - a_v - b_v.

    With Poisson(lam) sized samples from p and q, E[Z] equals
    lam^2 * ||p - q||_2^2, which is what makes Z usable as an equality
    statistic.  Inputs are per-value count vectors over the value union.
    """
    a = np.asarray(counts_a, dtype=np.float64)
    b = np.asarray(counts_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("count vectors must align")
    d = a - b
    return float((d * d - a - b).sum())


def equality_threshold(poisson_mean: float, m: int, eps: float) -> float:
    """Accept/reject cut for the collision statistic.

    Halfway calibration between E[Z] = 0 (equal distributions) and the
    smallest E[Z] an eps-far pair can have once one side lives on at most
    m strings: eps-far in L1 forces ||p - q||_2 >= eps / (2 sqrt(m)).
    """
    return poisson_mean**2 * (eps / (2.0 * math.sqrt(m))) ** 2 / 2.0


def _paired_counts(values_a, values_b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(values_a)
    b = np.asarray(values_b)
    merged = np.concatenate([a, b])
    _, inverse = np.unique(merged, return_inverse=True)
    k = int(inverse.max()) + 1
    ca = np.bincount(inverse[: a.size], minlength=k)
    cb = np.bincount(inverse[a.size :], minlength=k)
    return ca, cb


def std_equality_tester(values_a, values_b, m: int, eps: float, poisson_mean: float) -> bool:
    """Collision-statistic equality test for Poisson sized sample lists.

    Accepts iff Z stays below ``equality_threshold(poisson_mean, m, eps)``.
    The caller draws the two sample counts as Poisson(poisson_mean) and
    passes that mean in; m bounds the support size promised for at least
    one of the two distributions.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    if poisson_mean <= 0:
        raise ValueError("poisson_mean must be positive")
    a = np.asarray(values_a)
    b = np.asarray(values_b)
    if a.size == 0 or b.size == 0:
        raise ValueError("degenerate Poisson draw: zero samples on one side")
    ca, cb = _paired_counts(a, b)
    return collision_statistic(ca, cb) < equality_threshold(poisson_mean, m, eps)


@dataclass(frozen=True)
class SupportInner:
    """Bounded-support inner tester, pluggable into the projection lift."""

    m: int
    constants: Constants = field(default=DEFAULT_CONSTANTS)
    one_sided: bool = True

    def sample_count(self, eps: float) -> int:
        return math.ceil(self.constants.support_samples * self.m / eps)

    def decide(self, values, eps: float) -> bool:
        return std_support_tester(values, self.m)


@dataclass(frozen=True)
class GrainedInner:
    """Grained-weights inner tester, pluggable into the projection lift.

    The sample budget covers both phases; ``decide`` splits its input in
    draw order (the first phase-1 block fixes the support).
    """

    m: int
    constants: Constants = field(default=DEFAULT_CONSTANTS)
    one_sided: bool = False

    def phase_sizes(self, eps: float) -> tuple[int, int]:
        scale = self.m * math.log(self.m + 1.0)
        s1 = math.ceil(self.constants.grained_phase1 * scale)
        s2 = math.ceil(self.constants.grained_phase2 * scale / eps**2)
        return s1, s2

    def sample_count(self, eps: float) -> int:
        s1, s2 = self.phase_sizes(eps)
        return s1 + s2

    def decide(self, values, eps: float) -> bool:
        s1, _ = self.phase_sizes(eps)
        values = np.asarray(values)
        if values.size <= s1:
            raise ValueError("sample list shorter than phase 1")
        return std_grained_tester(values[:s1], values[s1:], self.m, eps)
