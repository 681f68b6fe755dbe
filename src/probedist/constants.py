"""Calibrated constants behind the tester size formulas.

Every sample count, position count, and repetition count in the testers is a
ceiling of (constant x scaling term).  The field defaults of :class:`Constants`
are the shipped values and their only source: they were calibrated by Monte
Carlo (the CLI's ``calibrate`` subcommand) so that completeness and soundness
both clear a 0.9 empirical rate on the calibration fixtures; the shipped tests
then only rely on rates >= 2/3.  ``Constants.from_file`` loads tuned values
over them.  Each field's comment names the formula it scales.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

__all__ = ["Constants", "DEFAULT_CONSTANTS"]


@dataclass(frozen=True)
class Constants:
    # samples and positions of the bounded-support tester:
    # s = ceil(c * m / eps), ell = ceil(c * ln(m+1) / eps)
    support_samples: float = 8.0
    support_positions: float = 8.0

    # restriction size of the generic projection lift:
    # ell = ceil(c * ln(s / eps) / eps) for an inner budget of s samples
    lift_positions: float = 4.0

    # grained tester phases: s1 = ceil(c * m * ln(m+1)),
    # s2 = ceil(c * m * ln(m+1) / eps^2)
    grained_phase1: float = 4.0
    grained_phase2: float = 250.0

    # Poisson mean of the collision-statistic equality tester:
    # lam = c * max(eps^(-4/3) * m^(2/3), eps^(-2) * sqrt(m))
    equality_mean: float = 36.0
    # restriction size of the pair equality tester:
    # ell = ceil(c * ln(m+1) / eps)
    equality_positions: float = 2.0

    # perturbation-family tester: probe set |I| = ceil(c * eps^-2 * ln(1/eps + 1)),
    # marginal-estimate samples s2 = ceil(c * eps^-2 * ln(|I|+1)),
    # mismatch-check samples m3 = ceil(c * eps^-1 * ln(1/eps + 1))
    perturb_positions: float = 4.0
    perturb_estimate_samples: float = 4.0
    perturb_check_samples: float = 4.0

    # per-query majority width when emulating a string tester on noisy
    # samples: r = ceil(c * ln(Q+1)) for a Q-query tester
    noisy_majority: float = 6.0

    # sample count of the single-object testers (rotations, graph copies):
    # t = ceil(c / eps)
    ideal_samples: float = 2.0
    # rotation alignment: shifts m = ceil(c * sqrt(n * ln(t+1))) and
    # offsets ell = ceil(c * eps^-1 * ln(n/eps + 1)) per compared pair
    shift_count: float = 4.0
    offset_count: float = 4.0

    # property-membership tester over samples: t = ceil(c / eps)
    membership_samples: float = 8.0
    # generic amplification width r = ceil(c * ln(k+1)) used wherever a
    # sub-test must fail with probability small against k repetitions
    amplification: float = 2.0
    # self-correction restriction size: ell = ceil(c * ln(s+1) / delta)
    correction_positions: float = 1.0
    # staged schedules: round i uses ceil(c * i^2 * 2^i) samples
    staged_samples: float = 1.0

    # full-read uniformity fallback: s = ceil(c * eps^-2 * m * ln(m+1))
    uniform_full_read: float = 16.0

    def replace(self, **kwargs) -> "Constants":
        return dataclasses.replace(self, **kwargs)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Constants":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown constants: {sorted(unknown)}")
        return cls(**{k: float(v) for k, v in data.items()})

    @classmethod
    def from_file(cls, path) -> "Constants":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        return cls.from_dict(payload.get("constants", payload))


DEFAULT_CONSTANTS = Constants()
