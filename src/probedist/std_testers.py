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
from typing import ClassVar

import numpy as np

from .constants import DEFAULT_CONSTANTS, Constants

__all__ = [
    "std_support_tester",
    "tv_to_grained",
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


def tv_to_grained(counts, m: int) -> float:
    """Exact TV distance from an empirical distribution to the m-grained set.

    ``counts`` holds the multiplicity of each observed value; the result is
    the minimum, over distributions whose weights are multiples of 1/m, of
    the TV distance to counts / counts.sum().  Mass may sit on values never
    observed.  Integer arithmetic: with s samples each value first takes
    floor(count * m / s) units of 1/m, leaving remainder rem; the R units
    still free go to the R largest remainders, each lowering that value's
    |f - units/m| from rem/(s m) to (s - rem)/(s m).  Every value's cost is
    convex in its units, so this greedy is exact.  A unit on an unseen value
    would cost the full 1/m, never less than a remainder's (s - 2 rem)/(s m),
    and the remainders sum to s * R with each below s, so at least R values
    have one and no unit ever goes unseen.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    c = np.asarray(counts, dtype=np.int64)
    s = int(c.sum())
    if s < 1:
        raise ValueError("need at least one sample")
    units, rem = np.divmod(c * m, s)
    r = m - int(units.sum())
    top = np.sort(rem)[rem.size - r :]
    return (int(rem.sum()) + int((s - 2 * top).sum())) / (2 * s * m)


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
    """Per-value counts of both sides over the sorted union of their values.

    Counts each side on its own, then places both count vectors on the
    union, so no sort spans every sample of the two sides together.
    """
    labels_a, counts_a = np.unique(np.asarray(values_a), return_counts=True)
    labels_b, counts_b = np.unique(np.asarray(values_b), return_counts=True)
    labels = np.union1d(labels_a, labels_b)
    ca = np.zeros(labels.size, dtype=np.int64)
    cb = np.zeros(labels.size, dtype=np.int64)
    ca[np.searchsorted(labels, labels_a)] = counts_a
    cb[np.searchsorted(labels, labels_b)] = counts_b
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
    one_sided: ClassVar[bool] = True

    def sample_count(self, eps: float) -> int:
        return math.ceil(self.constants.support_samples * self.m / eps)

    def decide(self, values, eps: float) -> bool:
        return std_support_tester(values, self.m)


@dataclass(frozen=True)
class GrainedInner:
    """Grained-weights inner tester, pluggable into the projection lift.

    Draws s = ceil(c * m * ln(m+1) / eps^2) samples and accepts iff the
    empirical distribution lies within eps/2 in TV of some m-grained
    distribution (:func:`tv_to_grained`).  Completeness: a member has at
    most m atoms, so E TV(p_hat, p) <= (1/2) sum_i sqrt(p_i / s) <=
    (1/2) sqrt(m/s), which is eps / (2 sqrt(c ln(m+1))), and TV(p_hat, p)
    moves by at most 1/s per sample, so it concentrates around that mean.
    Soundness: for an eps-far p and any fixed m-grained g, E TV(p_hat, g) >=
    TV(p, g) >= eps by convexity, with the same concentration; the ln(m+1)
    pays for the union over the grained candidates near p.  Learning an
    m-point distribution in TV takes Theta(m / eps^2) samples (Canonne, "A
    short note on learning discrete distributions", arXiv 2002.11457).
    This is an argument for the shape of s, not a proof of the shipped c:
    that constant is calibrated by Monte Carlo on value-level and lifted
    fixtures (``tests/test_grained_rule.py``).
    """

    m: int
    constants: Constants = field(default=DEFAULT_CONSTANTS)
    one_sided: ClassVar[bool] = False

    def sample_count(self, eps: float) -> int:
        scale = self.m * math.log(self.m + 1.0)
        return math.ceil(self.constants.grained_samples * scale / eps**2)

    def decide(self, values, eps: float) -> bool:
        return tv_to_grained(_counts(values), self.m) <= eps / 2.0
