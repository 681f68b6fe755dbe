"""Label-invariant testers commute with the isometries of the cube.

x -> x XOR z maps {0,1}^n onto itself and keeps every Hamming distance, so
it keeps every property these testers decide.  Their decisions read only
which restricted samples are equal, never what they are, so on the image of
a source they must draw, bill and decide exactly as on the source itself,
trial by trial: same verdict, bill, samples and trace.

Rotation and constancy are kept only by the XOR of a constant string, so
the rotation testers and constant membership are checked under the
complement x -> x XOR 1^n, which commutes with every rotation.

The Hadamard testers commute with the XOR of a codeword c, which keeps
linear truth tables linear: a linearity check x(a) + x(b) + x(a xor b) is
unchanged, and both estimates x(a xor r) + x(r) of a corrector call at a
flip with c(a), so the corrected bits of every sample flip at the same
positions.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from probedist.core import BilledOracle, FiniteDistribution, ImplicitDistribution
from probedist.generators import (
    coordinate_noise_dist,
    hadamard_code,
    shift_dist,
    uniform_random_subset,
)
from probedist.std_testers import GrainedInner, SupportInner
from probedist.strings import ConstantTester, LinearityTester, hadamard_property
from probedist.testers import (
    cyclic_shift_tester,
    grained_tester,
    membership_tester,
    pair_equality_tester,
    projection_tester,
    self_correcting_tester,
    shift_law_tester,
    support_tester,
    uniformity_tester,
)


def xor_source(src, z):
    """The image of ``src`` under x -> x XOR z.

    Atoms keep their order and weights, and a sampler or product law keeps
    its draws, so an oracle seeded alike draws the same samples, each
    XORed with z.
    """
    z = np.asarray(z, dtype=np.uint8)
    if isinstance(src, FiniteDistribution):
        return FiniteDistribution(rows=src.rows ^ z, weights=src.weights)
    product = None if src.product is None else (src.product[0] ^ z, src.product[1])
    return ImplicitDistribution(
        src.n, lambda rng, count: src.sampler(rng, count) ^ z, dict(src.metadata), product
    )


def _explicit(n, m, seed):
    return [uniform_random_subset(seed, n=n, m=m, min_distance=0.2)]


# name -> (sources, tester run on an oracle and a seed).  The comments give
# the restriction width, which decides between uint64 and void keys.
CASES = {
    # 129 positions
    "support-wide": (_explicit(512, 4, 1), lambda o, s: support_tester(o, 4, 0.1, s)),
    # 43 positions
    "support-narrow": (_explicit(512, 6, 2), lambda o, s: support_tester(o, 4, 0.3, s)),
    # 129 positions on a product source, whose bits are drawn when billed
    "support-product": (
        [coordinate_noise_dist("01" * 256, np.full(512, 0.01))],
        lambda o, s: support_tester(o, 4, 0.1, s),
    ),
    # 111 positions in each of three blocks
    "projected-support": (
        _explicit(512, 5, 3), lambda o, s: projection_tester(o, SupportInner(4), 0.25, s)
    ),
    # 108 positions
    "projected-grained": (
        _explicit(512, 3, 4), lambda o, s: projection_tester(o, GrainedInner(2), 0.25, s)
    ),
    "grained": (_explicit(512, 3, 5), lambda o, s: grained_tester(o, 2, 0.25, s)),
    # the grained branch at eps / 2, 108 positions
    "uniformity-grained": (_explicit(512, 2, 6), lambda o, s: uniformity_tester(o, 2, 0.5, s)),
    # the full-read branch, all 66 positions
    "uniformity-full-read": (_explicit(66, 3, 7), lambda o, s: uniformity_tester(o, 2, 0.03, s)),
    # 7 positions; an equal pair, both sides moved by the same z
    "pair-equality": (
        _explicit(128, 4, 8) * 2,
        lambda o, s: pair_equality_tester(o, 4, 0.5, s),
    ),
}


def _anchors(src) -> np.ndarray:
    """Strings whose XOR sends a sample of ``src`` to, or near, 0^n."""
    return src.rows if isinstance(src, FiniteDistribution) else src.product[0][None]


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_trials_are_unchanged_by_an_xor_of_the_cube(case, data):
    """z is random, or a string of the first source, so that the moved
    source holds 0^n and a rule that reads labels, say one that drops the
    all-zero key, decides differently."""
    sources, run = CASES[case]
    n = sources[0].n
    anchors = _anchors(sources[0])
    pick = data.draw(st.integers(-1, len(anchors) - 1))
    if pick < 0:
        z = np.frombuffer(data.draw(st.binary(min_size=n, max_size=n)), np.uint8) & 1
    else:
        z = anchors[pick]
    _assert_same_trials(case, sources, z, run, data)


def _assert_same_trials(case, sources, z, run, data):
    """Two seeded trials on ``sources`` and on their image under x -> x XOR z
    give the same report."""
    moved = [xor_source(src, z) for src in sources]
    for seed in data.draw(st.lists(st.integers(0, 2**32), min_size=2, max_size=2)):
        want = run(BilledOracle(sources, seed=seed), seed + 1).to_dict()
        got = run(BilledOracle(moved, seed=seed), seed + 1).to_dict()
        assert got == want, (case, seed)


def _codeword(k: int, coeff: int) -> np.ndarray:
    """The truth table over GF(2)^k of the linear form x -> <coeff, x>."""
    message = (coeff >> np.arange(k)) & 1
    return (message @ hadamard_code(k).generator % 2).astype(np.uint8)


def _flipped_linear(k: int, coeff: int, flips: list, weight: float) -> FiniteDistribution:
    """The codeword of ``coeff``, and at ``weight`` a copy of it with the bits
    at 0-based ``flips`` flipped."""
    exact = _codeword(k, coeff)
    noisy = exact.copy()
    noisy[flips] ^= 1
    return FiniteDistribution(rows=np.stack([exact, noisy]), weights=np.array([1 - weight, weight]))


# name -> (k, the codeword coefficient of the source, source, tester run on
# an oracle and a seed).  The flipped copy is rare enough that trials both
# accept and reject, and that some self-correcting trials run the corrector
# on every sample.
HADAMARD_CASES = {
    "self-correcting-hadamard": (
        5, 19, _flipped_linear(5, 19, [3], 1 / 512),
        lambda o, s: self_correcting_tester(o, hadamard_property(5), SupportInner(2), 0.5, s),
    ),
    "membership-linearity-plain": (
        6, 45, _flipped_linear(6, 45, [0, 17, 40], 1 / 16),
        lambda o, s: membership_tester(o, LinearityTester(), 0.5, s),
    ),
    "membership-linearity-staged": (
        6, 45, _flipped_linear(6, 45, [0, 17, 40], 1 / 256),
        lambda o, s: membership_tester(o, LinearityTester(), 0.5, s, mode="staged"),
    ),
}


@pytest.mark.parametrize("case", sorted(HADAMARD_CASES))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_hadamard_trials_are_unchanged_by_a_codeword_xor(case, data):
    """c is a random codeword, or the source's own, so that the moved source
    sits at 0^n and a corrector that reads labels, say one that drops the
    x(r) term of its estimates, decides differently."""
    k, coeff, source, run = HADAMARD_CASES[case]
    pick = data.draw(st.one_of(st.just(coeff), st.integers(0, (1 << k) - 1)))
    _assert_same_trials(case, [source], _codeword(k, pick), run, data)


def _one_zero_rotations(n: int) -> FiniteDistribution:
    """Rotations of 1^(n-1) 0, uniformly: many restrictions of a sample are
    all ones, so under the complement many are all zeros."""
    return shift_dist("1" * (n - 1) + "0")


def _mostly_constant(n: int) -> FiniteDistribution:
    """0^n, rarely 1^n, and rarely a string of alternating bits, so that
    membership trials both accept and reject, and that the complement moves
    most samples to 1^n."""
    rows = np.stack([np.zeros(n), np.ones(n), np.arange(n) % 2]).astype(np.uint8)
    return FiniteDistribution(rows=rows, weights=np.array([0.9, 0.05, 0.05]))


# name -> (sources, tester run on an oracle and a seed), for complement-only
# invariance.
COMPLEMENT_CASES = {
    # 12 of 16 positions on X's side, read through query_block's keys
    "rotation-law": (
        [_one_zero_rotations(16)],
        lambda o, s: shift_law_tester(o, np.full(16, 1 / 16), 0.5, s),
    ),
    # 163 candidate rotations of 62 offsets per side and comparison
    "rotation-family": (
        [_one_zero_rotations(1024)], lambda o, s: cyclic_shift_tester(o, 0.5, s),
    ),
    "membership-constant": (
        [_mostly_constant(32)], lambda o, s: membership_tester(o, ConstantTester(), 0.5, s),
    ),
}


@pytest.mark.parametrize("case", sorted(COMPLEMENT_CASES))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_trials_are_unchanged_by_the_complement(case, data):
    """Sources whose complement holds many all-zero restrictions, or mostly
    0^n strings, so that a rule that reads labels, say one that drops the
    all-zero key or passes only all-zero probes, decides differently."""
    sources, run = COMPLEMENT_CASES[case]
    _assert_same_trials(case, sources, np.ones(sources[0].n, dtype=np.uint8), run, data)


def test_xor_source_moves_every_sample():
    src = _explicit(70, 3, 10)[0]
    z = np.arange(70, dtype=np.uint8) % 3 == 0
    a, b = BilledOracle(src, seed=4), BilledOracle(xor_source(src, z), seed=4)
    pos = np.arange(1, 71)
    assert np.array_equal(a.query_block(a.draw(9), pos) ^ z, b.query_block(b.draw(9), pos))
