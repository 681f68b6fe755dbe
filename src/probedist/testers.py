"""Distribution testers for the billed sampling model.

Every tester here follows the same access discipline: draw sample handles
from a :class:`~probedist.core.BilledOracle`, probe few positions per sample,
decide from the probed bits alone.  Each report's trace carries a ``budget``
entry documenting the query schedule: kind ``"exact"`` means the billed count
must equal ``value``; kind ``"bound"`` means the schedule may revisit a
(sample, position) pair, which bills only once, so the billed count may fall
below ``value`` but never above.

The proximity parameter ``eps`` always refers to transport distance under
relative Hamming ground metric: a tester for property P accepts members with
the stated probability and rejects anything eps-far from P with probability
at least 2/3.  Testers documented as one-sided accept members always.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .constants import DEFAULT_CONSTANTS, Constants
from .core import (
    BilledOracle,
    SampleView,
    TesterReport,
    finish_report,
    new_rng,
    pack_rows,
    random_subset,
)
from .std_testers import GrainedInner, SupportInner, std_equality_tester
from .strings import ExactIsomorphismTester

__all__ = [
    "projection_tester",
    "support_tester",
    "grained_tester",
    "uniformity_tester",
    "membership_tester",
    "self_correcting_tester",
    "pair_equality_tester",
    "equality_sample_mean",
    "perturbation_tester",
    "noisy_membership_tester",
    "cyclic_shift_tester",
    "shift_law_tester",
    "graph_copies_tester",
]


def _check_eps(eps: float) -> None:
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")


def _ln1p(x: float) -> float:
    return math.log(x + 1.0)


def _odd(r: int) -> int:
    return r if r % 2 == 1 else r + 1


def _budget(kind: str, value: int, form: str) -> dict:
    return {"kind": kind, "value": int(value), "form": form}


# ---------------------------------------------------------------------------
# projection lift and the collision-structure testers built on it


def projection_tester(
    oracle: BilledOracle,
    inner,
    eps: float,
    seed,
    constants: Constants = DEFAULT_CONSTANTS,
) -> TesterReport:
    """Lift a label-invariant classical tester to billed sample access.

    Runs three independent blocks.  Each block draws the inner tester's
    sample budget at proximity eps/2, restricts the fresh samples to one
    random subset of ceil(c * ln(s/eps + 1) / eps) positions, and lets the
    inner tester decide from the restricted values alone.  The verdict is
    the majority of the three block verdicts.  When the inner tester is
    one-sided the lift stays one-sided: members restrict to members in
    every block.
    """
    _check_eps(eps)
    rng = new_rng(seed)
    n = oracle.n
    s = int(inner.sample_count(eps / 2.0))
    if s < 1:
        raise ValueError("inner tester requested no samples")
    ell = min(n, math.ceil(constants.lift_positions * _ln1p(s / eps) / eps))
    votes = []
    for _ in range(3):
        batch = oracle.draw(s)
        positions = random_subset(rng, n, ell)
        values = pack_rows(oracle.query_block(batch, positions))
        votes.append(bool(inner.decide(values, eps / 2.0)))
    accept = sum(votes) >= 2
    trace = {
        "tester": "projection",
        "params": {"eps": eps},
        "sizes": {"samples_per_block": s, "positions": ell, "blocks": 3},
        "votes": votes,
        "budget": _budget("exact", 3 * s * ell, "3 * s * ell"),
    }
    return finish_report(oracle, accept, trace)


def support_tester(
    oracle: BilledOracle,
    m: int,
    eps: float,
    seed,
    constants: Constants = DEFAULT_CONSTANTS,
) -> TesterReport:
    """One-sided test that X is supported on at most m strings.

    Draws s = ceil(c * m / eps) samples, restricts all of them to one
    random subset of ceil(c * ln(m+1) / eps) positions, and accepts iff at
    most m distinct restricted values occur.  A distribution on at most m
    strings can never produce more than m distinct restrictions, so members
    are always accepted.
    """
    _check_eps(eps)
    if m < 1:
        raise ValueError("m must be at least 1")
    rng = new_rng(seed)
    n = oracle.n
    s = math.ceil(constants.support_samples * m / eps)
    ell = min(n, math.ceil(constants.support_positions * _ln1p(m) / eps))
    batch = oracle.draw(s)
    positions = random_subset(rng, n, ell)
    values = pack_rows(oracle.query_block(batch, positions))
    distinct = int(np.unique(values).size)
    trace = {
        "tester": "support",
        "params": {"m": m, "eps": eps},
        "sizes": {"samples": s, "positions": ell},
        "distinct_restrictions": distinct,
        "budget": _budget("exact", s * ell, "s * ell"),
    }
    if ell < 63 and m >= 1 << ell:
        trace["warning"] = "vacuous parameters: m >= 2^positions, nothing can be rejected"
    return finish_report(oracle, distinct <= m, trace)


def grained_tester(
    oracle: BilledOracle,
    m: int,
    eps: float,
    seed,
    constants: Constants = DEFAULT_CONSTANTS,
) -> TesterReport:
    """Test that X is m-grained: every atom weight a multiple of 1/m.

    Projection lift of the two-phase classical grained tester.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    rep = projection_tester(oracle, GrainedInner(m, constants), eps, seed, constants)
    return replace(rep, trace={**rep.trace, "tester": "grained", "params": {"m": m, "eps": eps}})


def uniformity_tester(
    oracle: BilledOracle,
    m: int,
    eps: float,
    seed,
    constants: Constants = DEFAULT_CONSTANTS,
) -> TesterReport:
    """Test that X is uniform over some m-element set of strings.

    When eps > 2*ceil(log2 m)/n, the m-grained tester at proximity eps/2
    decides: uniform-over-m members are m-grained, and any m-grained
    distribution can be edited into a uniform-over-m one by overwriting
    the first ceil(log2 m) bits of each atom, which costs under eps/2 in
    move distance.  Otherwise n is small enough that whole samples are
    affordable: read s = ceil(c * m * ln(m+1) / eps^2) samples fully and
    accept iff the empirical distribution lies within eps/2 total variation
    of uniform over its m most frequent values, which is the closest
    uniform-over-m fit to the empirical distribution.
    """
    _check_eps(eps)
    if m < 1:
        raise ValueError("m must be at least 1")
    n = oracle.n
    cutoff = 2.0 * math.ceil(math.log2(m)) / n
    if eps > cutoff:
        rep = grained_tester(oracle, m, eps / 2.0, seed, constants)
        trace = {"tester": "uniform-over-m", "params": {"m": m, "eps": eps}, "branch": "grained"}
        return replace(rep, trace={**rep.trace, **trace})
    s = math.ceil(constants.uniform_full_read * m * _ln1p(m) / eps**2)
    batch = oracle.draw(s)
    values = pack_rows(oracle.query_block(batch, np.arange(1, n + 1)))
    _, counts = np.unique(values, return_counts=True)
    freqs = np.sort(counts / s)[::-1]
    top = freqs[:m]
    rest = freqs[m:]
    best_tv = 0.5 * (
        np.abs(top - 1.0 / m).sum() + rest.sum() + max(0, m - freqs.size) / m
    )
    trace = {
        "tester": "uniform-over-m",
        "params": {"m": m, "eps": eps},
        "branch": "full-read",
        "sizes": {"samples": s, "positions": n},
        "empirical_tv_to_uniform": float(best_tv),
        "budget": _budget("exact", s * n, "s * n"),
    }
    return finish_report(oracle, bool(best_tv <= eps / 2.0), trace)


# ---------------------------------------------------------------------------
# membership of every sample in a string property


def _judge_samples(oracle, batch, tester, prox, rng, repeats) -> np.ndarray:
    """Per-sample membership judgement; True marks a rejected sample.

    One-sided testers reject a sample as soon as any run fails (their
    failures are conclusive); two-sided ones go by strict majority.
    """
    if hasattr(tester, "test_batch"):
        ok = tester.test_batch(oracle, batch, prox, rng, repeats)
    else:
        ok = np.array(
            [
                [tester.test(SampleView(oracle, h), prox, rng) for _ in range(repeats)]
                for h in batch
            ],
            dtype=bool,
        ).reshape(len(batch), repeats)
    if tester.one_sided:
        return ~ok.all(axis=1)
    return (~ok).sum(axis=1) * 2 > repeats


def membership_tester(
    oracle: BilledOracle,
    string_tester,
    eps: float,
    seed,
    constants: Constants = DEFAULT_CONSTANTS,
    mode: str = "plain",
) -> TesterReport:
    """Test that X only produces strings with the given property.

    plain: t = ceil(c / eps) samples, each judged at proximity eps/2 by an
    odd r = ceil(c_amp * ln(1/eps + 1)) runs of the string tester.  Reject
    iff some sample is judged rejecting.  One-sided when the string tester
    is.

    staged: rounds i = 1 .. ceil(log2(16/eps)); round i judges
    ceil(c_staged * i^2 * 2^i) fresh samples at proximity
    min(1, 2^(i-3) * eps), with a single run per sample for one-sided
    testers and an odd ceil(c_amp * ln(t_i + 1)) majority otherwise.
    Cheap rounds look at many samples shallowly; later rounds few samples
    sharply, which trades the same rejection power for fewer queries when
    far samples are blatantly far.
    """
    _check_eps(eps)
    rng = new_rng(seed)
    n = oracle.n
    if mode == "plain":
        t = math.ceil(constants.membership_samples / eps)
        r = _odd(math.ceil(constants.amplification * _ln1p(1.0 / eps)))
        prox = eps / 2.0
        batch = oracle.draw(t)
        rejected = _judge_samples(oracle, batch, string_tester, prox, rng, r)
        bound = t * r * string_tester.query_budget(n, prox)
        trace = {
            "tester": "membership",
            "params": {"eps": eps, "mode": mode},
            "sizes": {"samples": t, "runs_per_sample": r, "proximity": prox},
            "rejected_samples": int(rejected.sum()),
            "budget": _budget("bound", bound, "t * r * tester_budget"),
        }
        return finish_report(oracle, not bool(rejected.any()), trace)
    if mode != "staged":
        raise ValueError("mode must be 'plain' or 'staged'")
    rounds = max(1, math.ceil(math.log2(16.0 / eps)))
    schedule = []
    bound = 0
    rejected_total = 0
    for i in range(1, rounds + 1):
        t_i = math.ceil(constants.staged_samples * i * i * 2.0**i)
        prox_i = min(1.0, 2.0 ** (i - 3) * eps)
        r_i = 1 if string_tester.one_sided else _odd(
            math.ceil(constants.amplification * _ln1p(t_i))
        )
        bound += t_i * r_i * string_tester.query_budget(n, prox_i)
        schedule.append({"round": i, "samples": t_i, "proximity": prox_i, "runs": r_i})
    for i, step in enumerate(schedule, start=1):
        batch = oracle.draw(step["samples"])
        rejected = _judge_samples(
            oracle, batch, string_tester, step["proximity"], rng, step["runs"]
        )
        rejected_total += int(rejected.sum())
        if rejected.any():
            break
    trace = {
        "tester": "membership",
        "params": {"eps": eps, "mode": mode},
        "schedule": schedule,
        "rejected_samples": rejected_total,
        "budget": _budget("bound", bound, "sum_i t_i * r_i * tester_budget_i"),
    }
    return finish_report(oracle, rejected_total == 0, trace)


# ---------------------------------------------------------------------------
# self-correction: collision testing of mildly corrupted property members


def self_correcting_tester(
    oracle: BilledOracle,
    prop,
    inner,
    eps: float,
    seed,
    constants: Constants = DEFAULT_CONSTANTS,
) -> TesterReport:
    """Collision-structure testing of distributions over near-members of a
    correctable string property.

    Works at proximity eps' = min(eps, prop.delta), with s the inner
    tester's sample budget at eps'/2:

      1. Support screening: t1 = ceil(c / (eps'/2)) fresh samples, each
         judged against the property at proximity prop.delta and
         spot-checked on k1 = min(n, ceil(c / (eps'/2))) random positions,
         comparing the amplified corrector against the directly queried
         bit.  Any judged-rejecting sample, undecided correction, or
         mismatch rejects.
      2. The s inner samples are each judged against the property at
         proximity prop.delta.
      3. The same s samples are corrected on one common random subset of
         min(n, ceil(c_corr * ln(s+1) / prop.delta)) positions; an
         undecided correction rejects, otherwise the inner tester decides
         on the corrected restrictions at proximity eps'/2.

    On exact members the corrector never errs and a one-sided property
    tester never fails, so with a one-sided inner tester the whole
    procedure is one-sided.
    """
    _check_eps(eps)
    delta = float(prop.delta)
    eps_eff = min(eps, delta)
    rng = new_rng(seed)
    n = oracle.n
    s = int(inner.sample_count(eps_eff / 2.0))
    q_prop = prop.tester.query_budget(n, delta)

    t1 = math.ceil(constants.membership_samples / (eps_eff / 2.0))
    k1 = min(n, math.ceil(constants.membership_samples / (eps_eff / 2.0)))
    r1 = _odd(math.ceil(constants.amplification * _ln1p(t1)))
    r1_amp = _odd(math.ceil(constants.amplification * _ln1p(t1 * k1)))
    r2 = _odd(math.ceil(constants.amplification * _ln1p(s)))
    ell = min(n, math.ceil(constants.correction_positions * _ln1p(s) / delta))
    r3_amp = _odd(math.ceil(constants.amplification * _ln1p(s * ell)))

    bound = (
        t1 * (r1 * q_prop + k1 * (1 + prop.corrector.queries_per_call * r1_amp))
        + s * r2 * q_prop
        + s * ell * prop.corrector.queries_per_call * r3_amp
    )
    sizes = {
        "screen_samples": t1,
        "screen_positions": k1,
        "inner_samples": s,
        "correction_positions": ell,
        "property_runs": {"screen": r1, "inner": r2},
        "corrector_calls": {"screen": r1_amp, "inner": r3_amp},
    }
    trace = {
        "tester": "self-correcting",
        "params": {"eps": eps, "delta": delta, "property": prop.name},
        "sizes": sizes,
        "budget": _budget(
            "bound",
            bound,
            "t1*(r1*q + k1*(1 + calls*r1_amp)) + s*r2*q + s*ell*calls*r3_amp",
        ),
    }

    # Step 1: support screening on fresh samples.
    screen = oracle.draw(t1)
    judged = _judge_samples(oracle, screen, prop.tester, delta, rng, r1)
    if judged.any():
        trace["reject_stage"] = "screen-membership"
        return finish_report(oracle, False, trace)
    spots = np.stack([random_subset(rng, n, k1) for _ in range(t1)])
    direct = oracle.query_block(screen, spots)
    corrected = prop.corrector.correct_batch(oracle, screen, spots, rng, r1_amp)
    if (corrected < 0).any() or (corrected != direct).any():
        trace["reject_stage"] = "screen-correction"
        return finish_report(oracle, False, trace)

    # Steps 2 and 3 share one batch of inner samples.
    batch = oracle.draw(s)
    judged = _judge_samples(oracle, batch, prop.tester, delta, rng, r2)
    if judged.any():
        trace["reject_stage"] = "sample-membership"
        trace["rejected_samples"] = int(judged.sum())
        return finish_report(oracle, False, trace)
    positions = random_subset(rng, n, ell)
    values = prop.corrector.correct_batch(oracle, batch, positions, rng, r3_amp)
    undecided = int((values < 0).sum())
    if undecided:
        trace["reject_stage"] = "undecided-correction"
        trace["undecided"] = undecided
        return finish_report(oracle, False, trace)
    accept = bool(inner.decide(pack_rows(values.astype(np.uint8)), eps_eff / 2.0))
    if not accept:
        trace["reject_stage"] = "inner"
    return finish_report(oracle, accept, trace)


# ---------------------------------------------------------------------------
# equality of two distributions


def equality_sample_mean(m: int, eps: float, constants: Constants = DEFAULT_CONSTANTS) -> float:
    """Poisson mean for the collision-statistic equality test.

    lam = c * max(eps^(-4/3) * m^(2/3), eps^(-2) * sqrt(m)); the second term
    rules for small supports, the first once m outgrows eps^(-4).
    """
    _check_eps(eps)
    if m < 1:
        raise ValueError("m must be at least 1")
    return constants.equality_mean * max(
        eps ** (-4.0 / 3.0) * m ** (2.0 / 3.0), eps**-2.0 * math.sqrt(m)
    )


def pair_equality_tester(
    oracle: BilledOracle,
    m: int,
    eps: float,
    seed,
    constants: Constants = DEFAULT_CONSTANTS,
    both_bounded: bool = True,
) -> TesterReport:
    """Test whether the oracle's two distributions are transport-equal.

    Requires a support promise: both distributions on at most m strings
    (``both_bounded=True``), or just the first.  Each side draws a
    Poisson(lam) number of samples at the reduced proximity (0.3 * eps when
    both sides are bounded, 0.25 * eps otherwise); all samples are
    restricted to one shared random subset of ceil(c * ln(m+1) / eps)
    positions and the collision statistic on the restrictions decides.
    """
    _check_eps(eps)
    if oracle.num_sources != 2:
        raise ValueError("pair equality needs an oracle over two distributions")
    if m < 1:
        raise ValueError("m must be at least 1")
    rng = new_rng(seed)
    n = oracle.n
    eps_inner = (0.3 if both_bounded else 0.25) * eps
    lam = equality_sample_mean(m, eps_inner, constants)
    ell = min(n, math.ceil(constants.equality_positions * _ln1p(m) / eps))
    sa = int(rng.poisson(lam))
    sb = int(rng.poisson(lam))
    if sa == 0 or sb == 0:
        raise RuntimeError("degenerate Poisson draw: zero samples on one side")
    positions = random_subset(rng, n, ell)
    values_a = pack_rows(oracle.query_block(oracle.draw(sa, source=0), positions))
    values_b = pack_rows(oracle.query_block(oracle.draw(sb, source=1), positions))
    accept = std_equality_tester(values_a, values_b, m, eps_inner, lam)
    trace = {
        "tester": "pair-equality",
        "params": {"m": m, "eps": eps, "both_bounded": both_bounded},
        "sizes": {
            "poisson_mean": lam,
            "samples": [sa, sb],
            "positions": ell,
            "inner_eps": eps_inner,
        },
        "budget": _budget("exact", (sa + sb) * ell, "(sa + sb) * ell"),
    }
    return finish_report(oracle, accept, trace)


# ---------------------------------------------------------------------------
# bounded perturbations of a single string


def perturbation_tester(
    oracle: BilledOracle,
    eta: float,
    delta: float,
    eps: float,
    seed,
    constants: Constants = DEFAULT_CONSTANTS,
) -> TesterReport:
    """Test membership in the bounded-perturbation family of some string.

    The family around a reference x*: every bit i flips with probability at
    most eta, and the total flip weight stays within delta*n always.  The
    tester never knows x*; it reconstructs a candidate on a probe set.

    Needs eta + 0.25*eps < 1/2; if eps is too large it is shrunk to fit
    (recorded in the trace).  With I = min(n, ceil(c * eps^-2 * ln(1/eps+1)))
    probe positions: estimate each marginal Pr[bit = 1] on I from
    s2 = ceil(c * eps^-2 * ln(|I|+1)) shared samples; an estimate inside
    [eta + 0.2*eps, 1 - eta - 0.2*eps] rejects (no reference bit is that
    noisy), otherwise the majority bit becomes the reference estimate.
    Then m3 = ceil(c * eps^-1 * ln(1/eps+1)) fresh samples are compared to
    the reference on I and any mismatch count above (delta + 0.1*eps)*|I|
    rejects.
    """
    _check_eps(eps)
    if not 0.0 <= eta < 0.5:
        raise ValueError("eta must lie in [0, 0.5)")
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    eps_eff = min(eps, 3.99 * (0.5 - eta))
    rng = new_rng(seed)
    n = oracle.n
    size_i = min(n, math.ceil(constants.perturb_positions * _ln1p(1.0 / eps_eff) / eps_eff**2))
    s2 = math.ceil(constants.perturb_estimate_samples * _ln1p(size_i) / eps_eff**2)
    m3 = math.ceil(constants.perturb_check_samples * _ln1p(1.0 / eps_eff) / eps_eff)
    probe = random_subset(rng, n, size_i)
    trace = {
        "tester": "perturbation-family",
        "params": {"eta": eta, "delta": delta, "eps": eps, "eps_effective": eps_eff},
        "sizes": {"probe_positions": size_i, "estimate_samples": s2, "check_samples": m3},
        "budget": _budget("exact", (s2 + m3) * size_i, "(s2 + m3) * |I|"),
    }

    bits = oracle.query_block(oracle.draw(s2), probe)
    freq = bits.mean(axis=0)
    lo = eta + 0.2 * eps_eff
    hi = 1.0 - eta - 0.2 * eps_eff
    ambiguous = (freq >= lo) & (freq <= hi)
    if ambiguous.any():
        trace["reject_stage"] = "marginal"
        trace["flagged_positions"] = probe[ambiguous][:16].tolist()
        oracle.query_block(oracle.draw(m3), probe)  # keep the budget schedule fixed
        return finish_report(oracle, False, trace)
    reference = (freq > 0.5).astype(np.uint8)

    check = oracle.query_block(oracle.draw(m3), probe)
    mismatches = (check != reference[None, :]).sum(axis=1)
    threshold = (delta + 0.1 * eps_eff) * size_i
    trace["max_mismatch"] = int(mismatches.max())
    trace["mismatch_threshold"] = float(threshold)
    if (mismatches > threshold).any():
        trace["reject_stage"] = "radius"
        return finish_report(oracle, False, trace)
    return finish_report(oracle, True, trace)


class _MajorityView:
    """Virtual string view: each queried bit is a fresh-sample majority.

    Emulates query access to the perturbed family's reference string by
    drawing ``repeats`` fresh samples per query (repeats kept odd, so there
    are no ties) and returning the majority bit at that position.
    """

    def __init__(self, oracle: BilledOracle, repeats: int, rng: np.random.Generator):
        self._oracle = oracle
        self._repeats = _odd(repeats)
        self._rng = rng
        self.calls = 0

    @property
    def n(self) -> int:
        return self._oracle.n

    @property
    def repeats(self) -> int:
        return self._repeats

    def query(self, position: int) -> int:
        batch = self._oracle.draw(self._repeats)
        bits = self._oracle.query_block(batch, np.array([position], dtype=np.int64))
        self.calls += 1
        return int(2 * int(bits[:, 0].sum()) > self._repeats)

    def query_block(self, positions) -> np.ndarray:
        return np.array(
            [self.query(int(p)) for p in np.asarray(positions).ravel()], dtype=np.uint8
        )


def noisy_membership_tester(
    oracle: BilledOracle,
    string_tester,
    eta: float,
    delta: float,
    eps: float,
    seed,
    constants: Constants = DEFAULT_CONSTANTS,
) -> TesterReport:
    """Test that X is a bounded perturbation of some string in a property.

    First runs the perturbation-family tester at proximity eps/2.  If that
    accepts, the string tester is replayed at proximity eps/2 against a
    virtual string whose bit at any position is the majority over
    r = odd(ceil(c * ln(Q+1))) fresh samples, Q being the string tester's
    query budget.  Accept iff both parts accept.
    """
    _check_eps(eps)
    rng = new_rng(seed)
    rng_family, rng_emulate = rng.spawn(2)
    part1 = perturbation_tester(oracle, eta, delta, eps / 2.0, rng_family, constants)
    q = string_tester.query_budget(oracle.n, eps / 2.0)
    r = _odd(math.ceil(constants.noisy_majority * _ln1p(q)))
    trace = {
        "tester": "noisy-membership",
        "params": {"eta": eta, "delta": delta, "eps": eps},
        "family_stage": part1.trace,
        "sizes": {"majority_repeats": r, "tester_budget": q},
    }
    if not part1.accepted:
        trace["reject_stage"] = "family"
        trace["budget"] = _budget(
            "exact", part1.queries_used, "family_stage only (rejected before emulation)"
        )
        return finish_report(oracle, False, trace)
    view = _MajorityView(oracle, r, rng_emulate)
    ok = bool(string_tester.test(view, eps / 2.0, rng_emulate))
    trace["emulated_queries"] = view.calls
    trace["budget"] = _budget(
        "exact",
        part1.queries_used + view.repeats * view.calls,
        "family_stage + r * emulated_queries",
    )
    if not ok:
        trace["reject_stage"] = "property"
    return finish_report(oracle, ok, trace)


# ---------------------------------------------------------------------------
# families generated by cyclic rotations


def _rotation_pair_match(
    oracle: BilledOracle,
    ref_batch,
    cand_batch,
    m_shifts: int,
    ell: int,
    rng: np.random.Generator,
    audit: dict,
) -> bool:
    """True iff some candidate rotation aligns the two samples on all probes.

    Draws m_shifts candidate rotations per side and ell probe offsets; side
    A is read at (shift_j + offset_k) and side B at (shift'_j + offset_k),
    and the pair matches when some row of A equals some row of B.
    """
    n = oracle.n
    shifts_a = rng.integers(0, n, size=m_shifts)
    shifts_b = rng.integers(0, n, size=m_shifts)
    offsets = rng.integers(0, n, size=ell)
    pos_a = (shifts_a[:, None] + offsets[None, :]) % n + 1
    pos_b = (shifts_b[:, None] + offsets[None, :]) % n + 1
    bits_a = oracle.query_block(ref_batch, pos_a.reshape(1, -1)).reshape(m_shifts, ell)
    bits_b = oracle.query_block(cand_batch, pos_b.reshape(1, -1)).reshape(m_shifts, ell)
    audit.setdefault(int(ref_batch.rows[0]), []).append(pos_a.ravel())
    audit.setdefault(int(cand_batch.rows[0]), []).append(pos_b.ravel())
    keys_a = set(pack_rows(bits_a).tolist())
    keys_b = set(pack_rows(bits_b).tolist())
    return bool(keys_a & keys_b)


def cyclic_shift_tester(
    oracle: BilledOracle,
    eps: float,
    seed,
    constants: Constants = DEFAULT_CONSTANTS,
    mode: str = "plain",
) -> TesterReport:
    """Test that X is supported on the cyclic rotations of a single string.

    Compares every further sample against the first one drawn; a comparison
    passes when some pair of candidate rotations aligns the two samples on
    every probed offset, and the first failed comparison rejects.  Each
    further sample is drawn when its comparison starts, so a run that
    rejects early draws no sample it never reads.

    plain: t = ceil(c / eps) samples; each comparison uses
    m = ceil(c * sqrt(n * ln(t+1))) candidate rotations per side and
    ell = ceil(c * ln(n/eps + 1) / eps) probe offsets.

    staged: round r = 1, 2, ... compares t_r = ceil(c * 2^-r * ln(1/eps+1)/eps)
    fresh samples (until t_r hits zero) at ell_r = ceil(c * 2^r * ln(n/eps+1))
    offsets, so blatantly far samples are caught cheaply in early rounds.

    Budget: probe positions are modular sums and can repeat, so the bill is
    the number of distinct (sample, position) pairs; the tester recounts
    that independently and reports it as its exact budget.
    """
    _check_eps(eps)
    rng = new_rng(seed)
    n = oracle.n
    audit: dict[int, list] = {}
    ref = oracle.draw(1)
    comparisons = []
    if mode == "plain":
        t = max(2, math.ceil(constants.ideal_samples / eps))
        m_shifts = math.ceil(constants.shift_count * math.sqrt(n * _ln1p(t)))
        ell = math.ceil(constants.offset_count * _ln1p(n / eps) / eps)
        mismatch = False
        for _ in range(t - 1):
            ok = _rotation_pair_match(
                oracle, ref, oracle.draw(1), m_shifts, ell, rng, audit
            )
            comparisons.append(ok)
            if not ok:
                mismatch = True
                break
        schedule = [{"samples": t - 1, "shifts": m_shifts, "offsets": ell}]
    elif mode == "staged":
        base = constants.ideal_samples * _ln1p(1.0 / eps) / eps
        mismatch = False
        schedule = []
        r = 1
        while True:
            raw = base * 2.0**-r
            if raw < 1.0:
                break
            t_r = math.ceil(raw)
            ell_r = math.ceil(constants.offset_count * 2.0**r * _ln1p(n / eps))
            m_r = math.ceil(constants.shift_count * math.sqrt(n * _ln1p(t_r)))
            schedule.append({"round": r, "samples": t_r, "shifts": m_r, "offsets": ell_r})
            r += 1
        for step in schedule:
            if mismatch:
                break
            for _ in range(step["samples"]):
                ok = _rotation_pair_match(
                    oracle, ref, oracle.draw(1), step["shifts"], step["offsets"], rng, audit
                )
                comparisons.append(ok)
                if not ok:
                    mismatch = True
                    break
    else:
        raise ValueError("mode must be 'plain' or 'staged'")
    billed = sum(
        int(np.unique(np.concatenate(chunks)).size) for chunks in audit.values()
    )
    trace = {
        "tester": "rotation-family",
        "params": {"eps": eps, "mode": mode},
        "schedule": schedule,
        "comparisons_passed": int(sum(comparisons)),
        "comparisons_total": len(comparisons),
        "budget": _budget(
            "exact", billed, "distinct (sample, position) pairs probed (recounted)"
        ),
    }
    return finish_report(oracle, not mismatch, trace)


def shift_law_tester(
    oracle: BilledOracle,
    law,
    eps: float,
    seed,
    constants: Constants = DEFAULT_CONSTANTS,
) -> TesterReport:
    """Test X against the family of fixed-law rotations of a single string.

    ``law`` is a weight vector over rotation amounts 0..n-1 that must be
    invariant under translation by every amount in its own support (checked
    exhaustively to 1e-12; without that closure the family to test against
    would depend on which rotation of the base string is named, and the
    test is ill-posed).  The family member generated by any string z is:
    rotate z by an amount drawn from the law.

    The tester draws one reference sample, emulates the law-rotated family
    of that reference as a virtual second distribution (each virtual sample
    is the reference read at rotated positions, so the virtual side bills
    at most n distinct reference positions), and runs the collision
    equality statistic between X and the virtual side at reduced proximity
    0.25 * eps with support promise n.
    """
    _check_eps(eps)
    n = oracle.n
    law = np.asarray(law, dtype=np.float64)
    if law.shape != (n,):
        raise ValueError("law must assign a weight to every rotation amount 0..n-1")
    if law.min() < 0.0 or abs(float(law.sum()) - 1.0) > 1e-9:
        raise ValueError("law must be a probability vector (sum 1 within 1e-9)")
    support = np.nonzero(law > 0.0)[0]
    for amount in support:
        if np.abs(np.roll(law, int(amount)) - law).max() > 1e-12:
            raise ValueError("law is not invariant under its own rotation amounts")

    rng = new_rng(seed)
    eps_inner = 0.25 * eps
    lam = equality_sample_mean(n, eps_inner, constants)
    ell = min(n, math.ceil(constants.equality_positions * _ln1p(n) / eps))
    sa = int(rng.poisson(lam))
    sb = int(rng.poisson(lam))
    if sa == 0 or sb == 0:
        raise RuntimeError("degenerate Poisson draw: zero samples on one side")

    ref = oracle.draw(1)
    positions = random_subset(rng, n, ell)
    values_x = pack_rows(oracle.query_block(oracle.draw(sa), positions))

    amounts = rng.choice(n, size=sb, p=law)
    virtual_pos = (positions[None, :] - 1 + amounts[:, None]) % n + 1
    hit = np.zeros(n + 1, dtype=bool)
    hit[virtual_pos.ravel()] = True
    needed = np.nonzero(hit)[0]
    ref_bits = oracle.query_block(ref, needed)[0]
    table = np.zeros(n + 1, dtype=np.uint8)
    table[needed] = ref_bits
    values_y = pack_rows(table[virtual_pos])

    accept = std_equality_tester(values_x, values_y, n, eps_inner, lam)
    trace = {
        "tester": "fixed-rotation-law",
        "params": {"eps": eps, "law_support": support.tolist()},
        "sizes": {
            "poisson_mean": lam,
            "samples": [sa, sb],
            "positions": ell,
            "reference_positions": int(needed.size),
            "inner_eps": eps_inner,
        },
        "budget": _budget(
            "exact", sa * ell + int(needed.size), "sa * ell + distinct reference positions"
        ),
    }
    return finish_report(oracle, accept, trace)


def graph_copies_tester(
    oracle: BilledOracle,
    eps: float,
    seed,
    constants: Constants = DEFAULT_CONSTANTS,
) -> TesterReport:
    """Test that X is supported on the isomorphic copies of one graph.

    Samples are v x v adjacency matrices read row-major (n = v^2).  Uses
    t = ceil(c / eps) samples and rejects at the first (first, i-th) pair
    the isomorphism tester rejects; the i-th sample is drawn when its pair
    is compared, so a run that rejects early draws no sample it never
    reads.  The isomorphism tester reads both
    matrices fully and compares canonical relabelings exactly, which is
    correct, one-sided, and pays at most n per distinct sample thanks to
    per-handle caching.
    """
    _check_eps(eps)
    n = oracle.n
    v = math.isqrt(n)
    if v * v != n:
        raise ValueError("adjacency strings need square length n = v^2")
    iso = ExactIsomorphismTester()
    rng = new_rng(seed)
    t = max(2, math.ceil(constants.ideal_samples / eps))
    ref_view = SampleView(oracle, oracle.draw(1)[0])
    mismatch = False
    checked = 0
    for _ in range(t - 1):
        checked += 1
        if not iso.test(ref_view, SampleView(oracle, oracle.draw(1)[0]), eps, rng):
            mismatch = True
            break
    trace = {
        "tester": "graph-copies",
        "params": {"eps": eps, "vertices": v},
        "sizes": {"samples": t, "pairs_checked": checked},
        "budget": _budget(
            "bound", t * iso.query_budget(n, eps), "t * pair_tester_budget"
        ),
    }
    return finish_report(oracle, not mismatch, trace)
