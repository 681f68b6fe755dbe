"""Acceptance suite: ten end-to-end criteria at fixed desk-scale parameters.

Each test prints one verdict line "ACCEPTANCE <k> <name>: PASS|FAIL".  Tester
runs from the Monte Carlo criteria are collected in REGISTRY so the budget-law
criterion can audit every single run afterwards; it also audits one run of
every registered tester on its fixed spec, so it checks them all when run
alone.
"""

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fixed_specs import FIXED_SPECS
from probedist.constants import DEFAULT_CONSTANTS
from probedist.core import BilledOracle, FiniteDistribution, new_rng, pack_rows, random_subset
from probedist.distances import dist_to_support_m, emd, grain_round, tv
from probedist.generators import (
    code_lift,
    coordinate_noise_dist,
    hadamard_code,
    mixture,
    perturb_dist,
    shift_dist,
    uniform_random_subset,
)
from probedist.harness import TESTERS, build_source, wilson_interval
from probedist.std_testers import SupportInner, collision_statistic
from probedist.strings import hadamard_property
from probedist.testers import (
    cyclic_shift_tester,
    pair_equality_tester,
    perturbation_tester,
    self_correcting_tester,
    shift_law_tester,
    support_tester,
)

# every tester run from criteria 2-8: (label, oracle n, TesterReport)
REGISTRY: list = []


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}{tail}")


def _mc(label: str, make_oracle, call, trials: int, seed_base: int,
        workers: int = os.cpu_count() or 1) -> int:
    """Run `trials` independent tester trials; returns the accept count.

    Trials run on a pool of `workers` threads.  Each keeps its own seeds and
    oracle, and the reports reach REGISTRY in trial order, so the count and
    the registry do not depend on the pool.
    """

    def trial(t: int):
        oracle = make_oracle(seed_base + t)
        return oracle.n, call(oracle, seed_base + 1_000_003 * (t + 1))

    with ThreadPoolExecutor(max_workers=workers) as pool:
        runs = list(pool.map(trial, range(trials)))
    REGISTRY.extend((label, n, rep) for n, rep in runs)
    return sum(rep.accepted for _, rep in runs)


def _rand_dist(rng: np.random.Generator, n: int, max_support: int) -> FiniteDistribution:
    k = int(rng.integers(1, max_support + 1))
    rows = rng.integers(0, 2, size=(3 * k, n), dtype=np.uint8)
    rows = np.unique(rows, axis=0)[:k]
    w = rng.dirichlet(np.ones(rows.shape[0]))
    w = np.maximum(w, 1e-6)
    w = w / w.sum()
    w[-1] += 1.0 - w.sum()
    return FiniteDistribution(rows=rows, weights=w)


def test_criterion_01_transport_tv_coincidence():
    rng = new_rng(20260818)
    t0 = time.perf_counter()
    worst_ineq = worst_ham = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        p = _rand_dist(rng, n, 6)
        q = _rand_dist(rng, n, 6)
        gap = abs(emd(p, q, metric="ineq") - tv(p, q))
        slack = emd(p, q, metric="hamming") - tv(p, q)
        worst_ineq = max(worst_ineq, gap)
        worst_ham = max(worst_ham, slack)
    elapsed = time.perf_counter() - t0
    ok = worst_ineq <= 1e-9 and worst_ham <= 1e-9 and elapsed < 10.0
    _verdict(1, "transport-tv-coincidence", ok,
             f"max gap {worst_ineq:.2e}, max hamming excess {worst_ham:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_02_support_tester_one_sided():
    fixtures = []
    for m, seed in [(1, 11), (2, 12), (4, 13), (8, 14)]:
        fixtures.append((m, uniform_random_subset(seed, n=128, m=m, min_distance=0.3)))
    t0 = time.perf_counter()
    rejects = 0
    for i, (m, p) in enumerate(fixtures):
        accepts = _mc(
            "support",
            lambda s, p=p: BilledOracle([p], seed=s),
            lambda o, s, m=m: support_tester(o, m=m, eps=0.25, seed=s),
            trials=2500,
            seed_base=100_000 + i * 10_000,
        )
        rejects += 2500 - accepts
    elapsed = time.perf_counter() - t0
    ok = rejects == 0 and elapsed < 30.0
    _verdict(2, "support-tester-one-sided", ok,
             f"{rejects} rejections in 10000 trials, {elapsed:.1f}s")
    assert ok


def test_criterion_03_support_tester_soundness():
    p = uniform_random_subset(21, n=128, m=16, min_distance=0.3)
    t0 = time.perf_counter()
    accepts = _mc(
        "support",
        lambda s: BilledOracle([p], seed=s),
        lambda o, s: support_tester(o, m=8, eps=0.25, seed=s),
        trials=1000,
        seed_base=200_000,
    )
    elapsed = time.perf_counter() - t0
    lo, _ = wilson_interval(1000 - accepts, 1000)
    ok = lo >= 0.66 and elapsed < 60.0
    _verdict(3, "support-tester-soundness", ok,
             f"reject rate {(1000 - accepts) / 1000:.3f}, wilson low {lo:.3f}, {elapsed:.1f}s")
    assert ok


def _projection_pairs():
    """Twenty pairs (p, q, m) with exact transport distance above 0.25."""
    sizes = [(2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (2, 4), (3, 6), (4, 6), (5, 2), (6, 3)]
    pairs = []
    seed = 0
    while len(pairs) < 20:
        sa, sb = sizes[len(pairs) % len(sizes)]
        n = 32 if max(sa, sb) == 2 and len(pairs) % 4 == 0 else 64
        p = uniform_random_subset(300_000 + seed, n=n, m=sa, min_distance=0.4)
        q = uniform_random_subset(600_000 + seed, n=n, m=sb, min_distance=0.4)
        seed += 1
        if emd(p, q) > 0.25:
            pairs.append((p, q, max(2, sa, sb)))
        assert seed < 200, "could not assemble certified-far pairs"
    return pairs


def test_criterion_04_projection_preserves_distance():
    eps = 0.25
    t0 = time.perf_counter()
    rng = new_rng(404)
    worst_fraction = 1.0
    for p, q, m in _projection_pairs():
        ell = math.ceil(8.0 / eps * math.log(m))
        hits = 0
        for _ in range(200):
            positions = random_subset(rng, p.n, ell)
            if emd(p.project(positions), q.project(positions)) >= 0.3 * eps:
                hits += 1
        worst_fraction = min(worst_fraction, hits / 200)
    elapsed = time.perf_counter() - t0
    ok = worst_fraction >= 0.9 and elapsed < 120.0
    _verdict(4, "projection-preserves-distance", ok,
             f"worst pair fraction {worst_fraction:.3f}, {elapsed:.1f}s")
    assert ok


def test_criterion_05_pair_equality():
    same = uniform_random_subset(51, n=128, m=8, min_distance=0.4)
    pool = uniform_random_subset(52, n=128, m=16, min_distance=0.4)
    strings = ["".join("01"[b] for b in row) for row in pool.rows]
    far_a = FiniteDistribution.uniform_over(strings[:8])
    far_b = FiniteDistribution.uniform_over(strings[8:])
    assert emd(far_a, far_b) >= 0.2  # certificate: supports pairwise 0.4 apart

    t0 = time.perf_counter()
    accepts = _mc(
        "pair-equality",
        lambda s: BilledOracle([same, same], seed=s),
        lambda o, s: pair_equality_tester(o, m=8, eps=0.25, seed=s),
        trials=1000,
        seed_base=500_000,
    )
    far_accepts = _mc(
        "pair-equality",
        lambda s: BilledOracle([far_a, far_b], seed=s),
        lambda o, s: pair_equality_tester(o, m=8, eps=0.25, seed=s),
        trials=1000,
        seed_base=550_000,
    )
    elapsed = time.perf_counter() - t0
    lo_acc, _ = wilson_interval(accepts, 1000)
    lo_rej, _ = wilson_interval(1000 - far_accepts, 1000)
    ok = lo_acc >= 0.66 and lo_rej >= 0.66 and elapsed < 120.0
    _verdict(5, "pair-equality-tester", ok,
             f"accept wilson low {lo_acc:.3f}, reject wilson low {lo_rej:.3f}, {elapsed:.1f}s")
    assert ok


def test_criterion_06_grain_rounding():
    rng = new_rng(606)
    t0 = time.perf_counter()
    ok = True
    for i in range(100):
        n = 8 if i % 2 == 0 else 16
        ell = int(math.floor(math.log2(n)))
        ell_prime = i % ell
        p = _rand_dist(rng, n, 6)
        rounded, cert = grain_round(p, ell_prime)
        grain = 2.0 ** -(n - ell_prime)
        scaled = rounded.weights / grain
        exact_multiples = bool(np.all(scaled == np.round(scaled)))
        bound = ell / n + 2.0 ** (ell_prime - ell)
        within = emd(p, rounded) <= bound + 1e-12
        ok = ok and exact_multiples and within and cert["distance_bound"] == pytest.approx(bound)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _verdict(6, "grain-rounding", ok, f"100 instances, {elapsed:.1f}s")
    assert ok


def test_criterion_07_single_object_family_testers():
    t0 = time.perf_counter()
    results = {}

    # bounded-perturbation family, in-family fixture
    in_family = perturb_dist("01" * 64, eta=0.15, delta=0.2, rate=0.1)
    accepts = _mc(
        "perturbation",
        lambda s: BilledOracle([in_family], seed=s),
        lambda o, s: perturbation_tester(o, eta=0.15, delta=0.2, eps=0.25, seed=s),
        trials=500,
        seed_base=700_000,
    )
    results["perturbation-accept"] = wilson_interval(accepts, 500)[0]

    # far fixture A: 48 of 64 coordinates carry fair-coin noise; any family
    # member at eta=0.15 keeps every marginal outside (0.15, 0.85), so each
    # noisy coordinate contributes at least 0.35 to the coupled flip rate:
    # transport distance >= 48 * 0.35 / 64 = 0.2625 >= 0.25
    assert 48 * (0.5 - 0.15) / 64 >= 0.25
    probs = np.zeros(64)
    probs[:48] = 0.5
    noisy = coordinate_noise_dist("0" * 64, probs)
    far_accepts = _mc(
        "perturbation",
        lambda s: BilledOracle([noisy], seed=s),
        lambda o, s: perturbation_tester(o, eta=0.15, delta=0.3, eps=0.25, seed=s),
        trials=500,
        seed_base=710_000,
    )
    results["perturbation-reject-noise"] = wilson_interval(500 - far_accepts, 500)[0]

    # far fixture B: four strings whose columns each hold exactly two ones,
    # so any reference string disagrees with at least two of the four on
    # every coordinate; the mean distance from the mixture to any reference
    # is therefore exactly 1/2, and a family member at delta=0.05 stays
    # within 0.05 of its reference: transport distance >= 0.45 >= 0.25
    pair_types = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    rows4 = np.zeros((4, 128), dtype=np.uint8)
    for i in range(128):
        a, b = pair_types[i % 6]
        rows4[a, i] = 1
        rows4[b, i] = 1
    ones = rows4.sum(axis=0)
    mean_to_any_reference = float((np.minimum(ones, 4 - ones) / 4).mean())
    assert mean_to_any_reference - 0.05 >= 0.25
    spread = FiniteDistribution(rows=rows4, weights=np.full(4, 0.25))
    far_b_accepts = _mc(
        "perturbation",
        lambda s: BilledOracle([spread], seed=s),
        lambda o, s: perturbation_tester(o, eta=0.2, delta=0.05, eps=0.25, seed=s),
        trials=500,
        seed_base=720_000,
    )
    results["perturbation-reject-spread"] = wilson_interval(500 - far_b_accepts, 500)[0]

    # rotation family: in-family = uniform rotations of one string
    base = "".join("01"[b] for b in new_rng(77).integers(0, 2, size=64))
    rotations = shift_dist(base)
    accepts = _mc(
        "rotation-family",
        lambda s: BilledOracle([rotations], seed=s),
        lambda o, s: cyclic_shift_tester(o, eps=0.25, seed=s),
        trials=500,
        seed_base=730_000,
    )
    results["rotation-accept"] = wilson_interval(accepts, 500)[0]

    # far fixture: half mass on the zero string, half on a weight-48 string;
    # for any reference z of weight w, the expected distance to the nearest
    # rotation is at least (w/2 + |48 - w|/2)/64, minimised at 0.375 >= 0.25
    worst = min((w / 2 + abs(48 - w) / 2) / 64 for w in range(65))
    assert worst >= 0.25
    two_atoms = mixture(
        [FiniteDistribution.point("0" * 64),
         FiniteDistribution.point("1" * 48 + "0" * 16)],
        [0.5, 0.5],
    )
    far_accepts = _mc(
        "rotation-family",
        lambda s: BilledOracle([two_atoms], seed=s),
        lambda o, s: cyclic_shift_tester(o, eps=0.25, seed=s),
        trials=500,
        seed_base=740_000,
    )
    results["rotation-reject"] = wilson_interval(500 - far_accepts, 500)[0]

    # fixed rotation law (uniform law): same certificates as above
    law = np.full(64, 1.0 / 64)
    accepts = _mc(
        "rotation-law",
        lambda s: BilledOracle([rotations], seed=s),
        lambda o, s: shift_law_tester(o, law, eps=0.25, seed=s),
        trials=500,
        seed_base=750_000,
    )
    results["rotation-law-accept"] = wilson_interval(accepts, 500)[0]
    far_accepts = _mc(
        "rotation-law",
        lambda s: BilledOracle([two_atoms], seed=s),
        lambda o, s: shift_law_tester(o, law, eps=0.25, seed=s),
        trials=500,
        seed_base=760_000,
    )
    results["rotation-law-reject"] = wilson_interval(500 - far_accepts, 500)[0]

    elapsed = time.perf_counter() - t0
    ok = all(v >= 0.66 for v in results.values()) and elapsed < 300.0
    detail = ", ".join(f"{k} {v:.3f}" for k, v in results.items())
    _verdict(7, "single-object-family-testers", ok, f"{detail}, {elapsed:.1f}s")
    assert ok


def test_criterion_08_self_correcting_tester():
    prop = hadamard_property(7)
    code = hadamard_code(7)
    msgs4 = ["1100000", "1000101", "0011011", "1111000"]
    msgs8 = [f"{i:07b}"[::-1] for i in [1, 2, 4, 8, 16, 32, 64, 127]]
    four = code_lift(code, FiniteDistribution.uniform_over(msgs4))
    eight = code_lift(code, FiniteDistribution.uniform_over(msgs8))
    # certificate: collapsing eight pairwise-1/2-far codewords onto four
    # strings moves mass at least 0.15
    assert dist_to_support_m(eight, 4) >= 0.15

    table = code.encode([1, 0, 1, 0, 0, 1, 1])
    noisy_bits = table.copy()
    noisy_bits[new_rng(5).choice(128, size=26, replace=False)] ^= 1
    # certificate: 26/128 > delta = 1/8 from its codeword, and at least
    # (64 - 26)/128 from every other codeword
    dists = (code.codewords() != noisy_bits[None, :]).mean(axis=1)
    assert dists.min() == 26 / 128 > prop.delta
    noisy = FiniteDistribution.point("".join("01"[b] for b in noisy_bits))

    t0 = time.perf_counter()
    inner = SupportInner(m=4)
    accepts = _mc(
        "self-correcting",
        lambda s: BilledOracle([four], seed=s),
        lambda o, s: self_correcting_tester(o, prop, inner, eps=0.25, seed=s),
        trials=500,
        seed_base=800_000,
    )
    eight_accepts = _mc(
        "self-correcting",
        lambda s: BilledOracle([eight], seed=s),
        lambda o, s: self_correcting_tester(o, prop, inner, eps=0.15, seed=s),
        trials=500,
        seed_base=810_000,
    )
    noisy_accepts = _mc(
        "self-correcting",
        lambda s: BilledOracle([noisy], seed=s),
        lambda o, s: self_correcting_tester(o, prop, inner, eps=0.25, seed=s),
        trials=500,
        seed_base=820_000,
    )
    elapsed = time.perf_counter() - t0
    lo_acc = wilson_interval(accepts, 500)[0]
    lo_eight = wilson_interval(500 - eight_accepts, 500)[0]
    lo_noise = wilson_interval(500 - noisy_accepts, 500)[0]
    checks = {
        "Wilson floor 0.66": min(lo_acc, lo_eight, lo_noise) >= 0.66,
        "300 s budget": elapsed < 300.0,
    }
    ok = all(checks.values())
    detail = (f"accept {lo_acc:.3f}, oversupport reject {lo_eight:.3f}, "
              f"noise reject {lo_noise:.3f}, {elapsed:.1f}s")
    _verdict(8, "self-correcting-tester", ok, detail)
    missed = " and ".join(name for name, passed in checks.items() if not passed)
    assert ok, f"missed the {missed}: {detail}"


def _fixed_spec_runs() -> list:
    """One run of every registered tester on its fixed spec."""
    runs = []
    for name, (params, sources, _) in sorted(FIXED_SPECS.items()):
        oracle = BilledOracle([build_source(src, i) for i, src in enumerate(sources)], seed=9)
        report = TESTERS[name](oracle, params, DEFAULT_CONSTANTS, 9)
        runs.append((f"fixed-{name}", oracle.n, report))
    return runs


def test_criterion_09_budget_law():
    fixed = _fixed_spec_runs()
    assert {label for label, _, _ in fixed} == {f"fixed-{name}" for name in TESTERS}
    violations = []
    for label, n, rep in REGISTRY + fixed:
        samples = sum(rep.samples_used)
        budget = rep.trace["budget"]
        if budget["kind"] == "exact":
            if rep.queries_used != budget["value"]:
                violations.append((label, "exact-budget", rep.queries_used, budget["value"]))
        else:
            if rep.queries_used > budget["value"]:
                violations.append((label, "bound-budget", rep.queries_used, budget["value"]))
        if not (samples <= rep.queries_used <= samples * n):
            violations.append((label, "sample-query-law", samples, rep.queries_used))
    ok = not violations
    _verdict(9, "budget-law", ok,
             f"{len(REGISTRY)} criterion runs and {len(fixed)} fixed-spec runs audited, "
             f"{len(violations)} violations")
    assert ok, violations[:5]


def _l2_squared(p: FiniteDistribution, q: FiniteDistribution) -> float:
    table: dict = {}
    for key, w in zip(pack_rows(p.rows).tolist(), p.weights):
        table[key] = table.get(key, 0.0) + float(w)
    for key, w in zip(pack_rows(q.rows).tolist(), q.weights):
        table[key] = table.get(key, 0.0) - float(w)
    return float(sum(v * v for v in table.values()))


def test_criterion_10_collision_statistic_mean():
    rng = new_rng(1010)
    u4 = uniform_random_subset(1, n=8, m=4)
    u4_shift = uniform_random_subset(2, n=8, m=4)
    two = uniform_random_subset(3, n=8, m=2)
    pairs = [
        (u4, u4),
        (FiniteDistribution.point("0" * 8), FiniteDistribution.point("1" * 8)),
        (FiniteDistribution.point("0" * 8), FiniteDistribution.point("0" * 8)),
        (u4, u4_shift),
        (_rand_dist(new_rng(4), 8, 5), _rand_dist(new_rng(5), 8, 5)),
        (_rand_dist(new_rng(6), 8, 6), _rand_dist(new_rng(7), 8, 6)),
        (FiniteDistribution.point("0" * 8), uniform_random_subset(8, n=8, m=8)),
        (two, uniform_random_subset(9, n=8, m=2)),
        (
            FiniteDistribution([("00000000", 0.9), ("11111111", 0.1)]),
            FiniteDistribution([("00000000", 0.1), ("11111111", 0.9)]),
        ),
        (uniform_random_subset(10, n=8, m=6), uniform_random_subset(11, n=8, m=3)),
    ]
    lam = 300.0
    trials = 10_000
    t0 = time.perf_counter()
    ok = True
    worst_sigma = 0.0
    for p, q in pairs:
        keys = sorted(
            set(pack_rows(p.rows).tolist()) | set(pack_rows(q.rows).tolist())
        )
        pv = dict(zip(pack_rows(p.rows).tolist(), p.weights))
        qv = dict(zip(pack_rows(q.rows).tolist(), q.weights))
        pw = np.array([pv.get(k, 0.0) for k in keys])
        qw = np.array([qv.get(k, 0.0) for k in keys])
        a = rng.poisson(lam * pw, size=(trials, len(keys)))
        b = rng.poisson(lam * qw, size=(trials, len(keys)))
        z = np.array([collision_statistic(a[t], b[t]) for t in range(trials)])
        want = lam * lam * _l2_squared(p, q)
        se = z.std(ddof=1) / math.sqrt(trials)
        sigmas = abs(z.mean() - want) / se
        worst_sigma = max(worst_sigma, sigmas)
        ok = ok and sigmas <= 3.0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _verdict(10, "collision-statistic-mean", ok,
             f"worst deviation {worst_sigma:.2f} standard errors, {elapsed:.1f}s")
    assert ok


def test_mc_results_do_not_depend_on_the_worker_count():
    """One thread and a pool of two give the same accept count and the same
    reports in the same REGISTRY order."""
    rotations = shift_dist("".join("01"[b] for b in new_rng(78).integers(0, 2, size=32)))
    before = len(REGISTRY)
    results = []
    for workers in (1, 2):
        accepts = _mc(
            "rotation-family",
            lambda s: BilledOracle([rotations], seed=s),
            lambda o, s: cyclic_shift_tester(o, eps=0.25, seed=s),
            trials=24,
            seed_base=900_000,
            workers=workers,
        )
        runs = [(label, n, rep.to_dict()) for label, n, rep in REGISTRY[before:]]
        del REGISTRY[before:]
        results.append((accepts, runs))
    assert results[0] == results[1]
    assert len(results[0][1]) == 24
