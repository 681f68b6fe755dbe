"""Label-invariant testers commute with the isometries of the cube.

x -> x XOR z maps {0,1}^n onto itself and keeps every Hamming distance, so
it keeps every property these testers decide.  Their decisions read only
which restricted samples are equal, never what they are, so on the image of
a source they must draw, bill and decide exactly as on the source itself,
trial by trial: same verdict, bill, samples and trace.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from probedist.core import BilledOracle, FiniteDistribution, ImplicitDistribution
from probedist.generators import coordinate_noise_dist, uniform_random_subset
from probedist.std_testers import GrainedInner, SupportInner
from probedist.testers import (
    grained_tester,
    pair_equality_tester,
    projection_tester,
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
    moved = [xor_source(src, z) for src in sources]
    for seed in data.draw(st.lists(st.integers(0, 2**32), min_size=2, max_size=2)):
        want = run(BilledOracle(sources, seed=seed), seed + 1).to_dict()
        got = run(BilledOracle(moved, seed=seed), seed + 1).to_dict()
        assert got == want, (case, seed)


def test_xor_source_moves_every_sample():
    src = _explicit(70, 3, 10)[0]
    z = np.arange(70, dtype=np.uint8) % 3 == 0
    a, b = BilledOracle(src, seed=4), BilledOracle(xor_source(src, z), seed=4)
    pos = np.arange(1, 71)
    assert np.array_equal(a.query_block(a.draw(9), pos) ^ z, b.query_block(b.draw(9), pos))
