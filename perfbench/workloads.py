"""Benchmark workloads: certified instance pairs built from a workload seed.

Each workload pairs a member spec (expectation ``accept``) with a far spec
(expectation ``reject``).  ``build`` is the workload's set-up: it generates
every instance with ``probedist.generators`` from its seed (the workload
seed and the round number), certifies it, and
returns experiment specs whose sources are explicit generated inputs
(strings, messages, flip probabilities), so the program under test never
sees the seed.  Why each workload exists is in ``README.md`` beside this
file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from probedist import distances, generators
from probedist.core import FiniteDistribution
from probedist.strings import hadamard_property


class CertificateError(RuntimeError):
    """A generated fixture does not have the property its spec assumes."""


@dataclass(frozen=True)
class Case:
    """One experiment of a workload, as it is handed to ``run_experiment``."""

    label: str
    tester: str
    tester_params: dict
    sources: list
    expectation: str
    one_sided: bool
    trials: int


# The percentile trial_ms_p90 needs at least ten trials beyond it.
MIN_TRIALS = 100


@dataclass(frozen=True)
class Workload:
    """A workload and the cost estimates that size its runs.

    ``trial_s`` and ``setup_s`` are the mean trial time (over the
    member/far mix) and the set-up time of one round, measured on a 2-vCPU
    Xeon at the commit that added the benchmark.  They only size runs: a
    run does ``rounds`` rounds of set-up plus trials, with about
    ``seconds`` of work in all but never fewer than ``MIN_TRIALS`` trials,
    so its work, and every count it reports, is a function of
    (seed, seconds) alone.
    """

    name: str
    n: int
    build: Callable[[list, tuple, dict], list]
    trial_s: float
    setup_s: float
    member_share: float = 0.5
    rounds: int = 5

    def plan(self, seconds: float) -> tuple[int, int]:
        """Trials of the member and of the far case in each round."""
        budget = max(0.0, seconds - self.rounds * self.setup_s)
        total = max(MIN_TRIALS, round(budget / self.trial_s))
        member = math.ceil(total * self.member_share / self.rounds)
        return member, math.ceil(total * (1.0 - self.member_share) / self.rounds)


def _certify(name: str, value: float, op: str, bound: float, record: dict) -> None:
    ok = bool(value >= bound if op == ">=" else value <= bound)
    record[name] = {"value": float(value), "op": op, "bound": float(bound), "ok": ok}
    if not ok:
        raise CertificateError(f"{name}: {value!r} {op} {bound!r} does not hold")


def _strings(dist) -> list[str]:
    return [(row + ord("0")).tobytes().decode("ascii") for row in dist.rows]


def _support_wide(seed: list, trials: tuple, certs: dict) -> list[Case]:
    n, m, eps = 1 << 16, 4, 0.05
    member_ss, far_ss = np.random.SeedSequence(seed).spawn(2)
    member = generators.uniform_random_subset(member_ss, n=n, m=m, min_distance=0.3)
    far = generators.uniform_random_subset(far_ss, n=n, m=2 * m, min_distance=0.3)
    _certify("member.dist_to_support_m", distances.dist_to_support_m(member, m), "<=", 0.0, certs)
    _certify("far.dist_to_support_m", distances.dist_to_support_m(far, m), ">=", eps, certs)
    params = {"m": m, "eps": eps}

    def source(dist) -> list:
        return [{"kind": "uniform-strings", "params": {"strings": _strings(dist)}}]

    return [
        Case("member", "support", params, source(member), "accept", True, trials[0]),
        Case("far", "support", params, source(far), "reject", False, trials[1]),
    ]


def _messages(rng: np.random.Generator, k: int, count: int) -> list[str]:
    picks = rng.choice(1 << k, size=count, replace=False)
    return ["".join(str(int(v) >> i & 1) for i in range(k)) for v in picks]


def _selfcorrect_hadamard(seed: list, trials: tuple, certs: dict) -> list[Case]:
    k, m = 7, 4
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    member_msgs = _messages(rng, k, m)
    far_msgs = _messages(rng, k, 2 * m)
    code = generators.hadamard_code(k)
    prop = hadamard_property(k)
    member = generators.code_lift(code, FiniteDistribution.uniform_over(member_msgs))
    far = generators.code_lift(code, FiniteDistribution.uniform_over(far_msgs))
    codewords = float(all(prop.contains(row) for row in member.rows))
    _certify("member.codewords", codewords, ">=", 1.0, certs)
    _certify("member.dist_to_support_m", distances.dist_to_support_m(member, m), "<=", 0.0, certs)
    _certify("far.dist_to_support_m", distances.dist_to_support_m(far, m), ">=", 0.15, certs)

    def source(msgs: list) -> list:
        return [{"kind": "hadamard-codewords", "params": {"k": k, "messages": msgs}}]

    def params(eps: float) -> dict:
        return {"k": k, "m": m, "eps": eps, "inner": "support"}

    return [
        Case("member", "self-correcting-hadamard", params(0.25), source(member_msgs), "accept",
             True, trials[0]),
        Case("far", "self-correcting-hadamard", params(0.15), source(far_msgs), "reject",
             False, trials[1]),
    ]


def _noise_to_family(flip_probs: np.ndarray, eta: float) -> float:
    # A family member at noise eta has every marginal in [0, eta] or
    # [1 - eta, 1], so coordinate i costs any coupling at least
    # max(0, min(p_i, 1 - p_i) - eta) expected relative flips.
    p = np.minimum(flip_probs, 1.0 - flip_probs)
    return float(np.maximum(0.0, p - eta).mean())


def _noisy_implicit(seed: list, trials: tuple, certs: dict) -> list[Case]:
    n, eta, delta, eps, base_flip = 4096, 0.1, 0.2, 0.25, 0.05
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x = str(int(rng.integers(0, 2))) * n
    member_probs = np.full(n, base_flip)
    far_probs = member_probs.copy()
    far_probs[rng.choice(n, size=3 * n // 4, replace=False)] = 0.5
    member = generators.coordinate_noise_dist(x, member_probs)
    far = generators.coordinate_noise_dist(x, far_probs)
    # The member's reference is constant, every flip rate is at most eta, and
    # its flip count stays eight deviations below delta * n.
    flips = member_probs.sum() + 8.0 * math.sqrt((member_probs * (1 - member_probs)).sum())
    _certify("member.max_flip", float(member_probs.max()), "<=", eta, certs)
    _certify("member.flip_count_8sd", flips, "<=", delta * n, certs)
    _certify("member.noise_to_family", _noise_to_family(member_probs, eta), "<=", 0.0, certs)
    _certify("far.noise_to_family", _noise_to_family(far_probs, eta), ">=", eps, certs)
    params = {"property": "constant", "eta": eta, "delta": delta, "eps": eps}

    def source(dist) -> list:
        meta = dist.metadata
        return [{"kind": "coordinate-noise",
                 "params": {"x": meta["reference"], "flip_probs": meta["marginals"]}}]

    return [
        Case("member", "noisy-membership", params, source(member), "accept", False, trials[0]),
        Case("far", "noisy-membership", params, source(far), "reject", False, trials[1]),
    ]


def _pair_equality(seed: list, trials: tuple, certs: dict) -> list[Case]:
    n, m, eps = 128, 8, 0.25
    same_ss, pool_ss = np.random.SeedSequence(seed).spawn(2)
    same = generators.uniform_random_subset(same_ss, n=n, m=m, min_distance=0.4)
    pool = _strings(generators.uniform_random_subset(pool_ss, n=n, m=2 * m, min_distance=0.4))
    far_a = FiniteDistribution.uniform_over(pool[:m])
    far_b = FiniteDistribution.uniform_over(pool[m:])
    _certify("member.emd", distances.emd(same, same), "<=", 1e-12, certs)
    _certify("far.emd", distances.emd(far_a, far_b), ">=", 0.2, certs)
    params = {"m": m, "eps": eps}
    member_src = {"kind": "uniform-strings", "params": {"strings": _strings(same)}}
    return [
        Case("member", "pair-equality", params, [member_src, member_src], "accept", False,
             trials[0]),
        Case("far", "pair-equality", params,
             [{"kind": "uniform-strings", "params": {"strings": pool[:m]}},
              {"kind": "uniform-strings", "params": {"strings": pool[m:]}}],
             "reject", False, trials[1]),
    ]


WORKLOADS = {
    w.name: w
    for w in [
        # Three rounds only: each set-up validates 12 atoms of 2^16 bits.
        Workload("support-wide", 1 << 16, _support_wide, trial_s=0.055, setup_s=2.2, rounds=3),
        # Trial times hang on the drawn codewords by up to a tenth, so this
        # workload spreads its 100 trials over ten instances.
        Workload("selfcorrect-hadamard", 128, _selfcorrect_hadamard, trial_s=0.35, setup_s=0.05,
                 rounds=10),
        # Member trials take about twice as long as far ones; three quarters
        # of the trials are members so that the median lies inside one mode.
        Workload("noisy-implicit", 4096, _noisy_implicit, trial_s=0.17, setup_s=0.02,
                 member_share=0.75),
        Workload("pair-equality", 128, _pair_equality, trial_s=0.047, setup_s=0.05),
    ]
}
