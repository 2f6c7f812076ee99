"""Brute-force verification of the bounds over the Caratheodory body.

Nothing here trusts the closed forms: the oracle samples the feasible
second-order Schwarz body (a dense grid plus seeded random draws plus
the forced extremal jets), pushes every sample through the member-jet
formulas, and maximizes the functional directly.  A sound implementation
never sees the empirical maximum exceed the theoretical bound; with the
extremal jets forced into the sample set the maximum also attains the
bound, witnessing sharpness.

Sampling is deterministic for a fixed seed.  Record merging in sweeps is
sequential and ordered by mu, so results are reproducible run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .bounds import (
    BoundReport,
    BRANCH_MAX_FORM,
    _require_real,
    caratheodory_piecewise_bound,
    fs_bound_from_numbers,
    fs_scales,
    ma_minda_bound,
    thresholds_from_numbers,
)
from .classes import ClassKind, MaMindaTarget, SchwarzJet, deformation_numbers
from .pq_core import DomainError, PQParams

DEFAULT_SEED = 20259

#: Largest number of mu points one sweep may verify.
MAX_SWEEP_POINTS = 100_000


@dataclass(frozen=True)
class OracleConfig:
    """Sampling budget and acceptance slack for the brute-force checks.

    The grid places ``grid_density`` points per real dimension on the
    four-dimensional parameter box (cost grows as the fourth power), the
    random draws are prefix-stable in ``random_samples`` for a fixed
    seed, and ``include_extremals`` forces in the two jets that attain
    the sharp bounds.
    """

    grid_density: int = 24
    random_samples: int = 10_000
    include_extremals: bool = True
    tolerance: float = 1e-9
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.grid_density < 8:
            raise DomainError(f"grid_density must be >= 8, got {self.grid_density}")
        if self.random_samples < 0:
            raise DomainError(f"random_samples must be >= 0, got {self.random_samples}")
        if not 0.0 < self.tolerance < math.inf:
            raise DomainError(f"tolerance must be finite and > 0, got {self.tolerance}")


@dataclass(frozen=True)
class VerificationRecord:
    """Outcome of one brute-force comparison against a theoretical bound.

    ``gap`` is theoretical - empirical_max: a positive gap means the
    sample set did not attain the bound, a negative gap beyond the
    tolerance means the bound was violated (an implementation bug).
    """

    mu: complex
    theoretical: float
    empirical_max: float
    gap: float
    attained: bool
    witness: SchwarzJet
    branch: str
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.empirical_max <= self.theoretical + self.tolerance

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


@dataclass(frozen=True)
class SweepEntry:
    """One mu slot of a sweep: either a record or a recorded domain error."""

    mu: float
    record: VerificationRecord | None
    error: str | None = None

    @property
    def status(self) -> str:
        if self.record is None:
            return "SKIP(domain)"
        return self.record.status


@lru_cache(maxsize=16)
def _sample_jets(
    grid_density: int, random_samples: int, include_extremals: bool, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """(w1, w2) sample arrays covering the feasible Schwarz body.

    Grid part: u1..u4 on [-1, 1]^4 with w1 = u1 + i u2 kept inside the
    closed unit disc and w2 = (u3 + i u4)(1 - |w1|^2) kept inside its
    shrunken disc.  Random part: w1 uniform on the disc, then w2 uniform
    on the disc of radius 1 - |w1|^2, drawn row-wise so that a larger
    budget extends a smaller one.  Extremal jets (1, 0) and (0, 1) and
    their negatives are appended last when requested.
    """
    u = np.linspace(-1.0, 1.0, grid_density)
    u1, u2, u3, u4 = (g.ravel() for g in np.meshgrid(u, u, u, u, indexing="ij"))
    w1 = u1 + 1j * u2
    inner = u3 + 1j * u4
    keep = (np.abs(w1) <= 1.0) & (np.abs(inner) <= 1.0)
    w1 = w1[keep]
    w2 = inner[keep] * (1.0 - np.abs(w1) ** 2)

    if random_samples:
        rows = np.random.default_rng(seed).random((random_samples, 4))
        r1 = np.sqrt(rows[:, 0])
        rw1 = r1 * np.exp(2j * np.pi * rows[:, 1])
        r2 = np.sqrt(rows[:, 2]) * (1.0 - r1 * r1)
        rw2 = r2 * np.exp(2j * np.pi * rows[:, 3])
        w1 = np.concatenate([w1, rw1])
        w2 = np.concatenate([w2, rw2])

    if include_extremals:
        w1 = np.concatenate([w1, [1.0, 0.0, -1.0, 0.0]])
        w2 = np.concatenate([w2, [0.0, 1.0, 0.0, -1.0]])

    w1.setflags(write=False)
    w2.setflags(write=False)
    return w1, w2


def _caratheodory_samples(cfg: OracleConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    w1, w2 = _sample_jets(cfg.grid_density, cfg.random_samples, cfg.include_extremals, cfg.seed)
    return w1, w2, 2.0 * w1, 2.0 * w1 * w1 + 2.0 * w2


def _record(
    mu: complex,
    theoretical: float,
    values: np.ndarray,
    w1: np.ndarray,
    w2: np.ndarray,
    branch: str,
    cfg: OracleConfig,
) -> VerificationRecord:
    i = int(np.argmax(values))
    empirical = float(values[i])
    gap = theoretical - empirical
    return VerificationRecord(
        mu=mu,
        theoretical=theoretical,
        empirical_max=empirical,
        gap=gap,
        attained=gap <= cfg.tolerance,
        witness=SchwarzJet(complex(w1[i]), complex(w2[i])),
        branch=branch,
        tolerance=cfg.tolerance,
    )


def brute_force_caratheodory_max(mu: complex, cfg: OracleConfig) -> VerificationRecord:
    """Maximize |c2 - mu c1^2| over the sampled body against the sharp
    value 2 max(1, |2 mu - 1|); mu may be complex."""
    w1, w2, c1, c2 = _caratheodory_samples(cfg)
    values = np.abs(c2 - mu * c1 * c1)
    return _record(mu, ma_minda_bound(mu), values, w1, w2, BRANCH_MAX_FORM, cfg)


def brute_force_caratheodory_piecewise(
    v: float, cfg: OracleConfig, refined: bool = False
) -> VerificationRecord:
    """Maximize |c2 - v c1^2| (real v) against its three-branch sharp value.

    With ``refined`` the functional gains v |c1|^2 for 0 < v <= 1/2 or
    (1 - v)|c1|^2 for 1/2 <= v < 1, and the cap is the constant 2; values
    of v outside (0, 1) have no refined form and are rejected.
    """
    w1, w2, c1, c2 = _caratheodory_samples(cfg)
    base = np.abs(c2 - v * c1 * c1)
    if not refined:
        return _record(v, caratheodory_piecewise_bound(v), base, w1, w2, "piecewise", cfg)
    if not 0.0 < v < 1.0:
        raise DomainError(f"refined forms need 0 < v < 1, got v={v:g}")
    weight = v if v <= 0.5 else 1.0 - v
    values = base + weight * np.abs(c1) ** 2
    branch = "refined_low" if v <= 0.5 else "refined_high"
    return _record(v, 2.0, values, w1, w2, branch, cfg)


def _member_samples(
    kind: ClassKind, phi: MaMindaTarget, two: float, three: float, cfg: OracleConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(w1, w2, a2, a3): the sampled jets and their member arrays, a
    vectorized form of the member-jet constructors in classes.py.  The
    Caratheodory arrays c1, c2 are dropped on return."""
    A, B, E = fs_scales(kind, two, three)
    b1, b2 = phi.b1, phi.b2
    w1, w2, c1, c2 = _caratheodory_samples(cfg)
    a2 = b1 * c1 / (2.0 * E)
    a3 = b1 / (2.0 * A) * (c2 - 0.5 * (1.0 - b2 / b1 - b1 / B) * c1 * c1)
    return w1, w2, a2, a3


def _fs_verifier(
    kind: ClassKind, phi: MaMindaTarget, params: PQParams, cfg: OracleConfig
) -> Callable[[complex], VerificationRecord]:
    """Build the mu-invariant member arrays once and return the per-mu check.

    The returned function computes the bound report, |a3 - mu a2^2| into
    two buffers owned by this closure, and the argmax.  The buffered steps
    are the ufuncs of ``abs(a3 - mu * a2 * a2)`` in the same order, so the
    values match that expression bit for bit.
    """
    two, three = deformation_numbers(params)
    w1, w2, a2, a3 = _member_samples(kind, phi, two, three, cfg)
    t = np.empty_like(a2)
    values = np.empty(a2.shape)

    def verify(mu: complex) -> VerificationRecord:
        report: BoundReport = fs_bound_from_numbers(kind, mu, phi, two, three, params.p, params.q)
        np.multiply(mu, a2, out=t)
        np.multiply(t, a2, out=t)
        np.subtract(a3, t, out=t)
        np.abs(t, out=values)
        return _record(mu, report.value, values, w1, w2, report.branch, cfg)

    return verify


def verify_fs(
    kind: ClassKind, mu: complex, phi: MaMindaTarget, params: PQParams, cfg: OracleConfig
) -> VerificationRecord:
    """Maximize |a3 - mu a2^2| over member jets built from the sampled body
    and compare with the max-form bound."""
    return _fs_verifier(kind, phi, params, cfg)(mu)


def verify_refined(
    kind: ClassKind, mu: float, phi: MaMindaTarget, params: PQParams, cfg: OracleConfig
) -> VerificationRecord:
    """Maximize the refined functional over member jets inside the threshold
    window that contains mu; window violations surface as domain errors."""
    mu = _require_real(mu)
    two, three = deformation_numbers(params)
    t1, t2, t3 = thresholds_from_numbers(kind, phi, two, three)
    if t1 < mu <= t3:
        penalty, branch = mu - t1, "refined_low"
    elif t3 <= mu < t2:
        penalty, branch = t2 - mu, "refined_high"
    else:
        raise DomainError(
            f"refined forms need mu in ({t1:.6g}, {t2:.6g}) split at {t3:.6g}, got mu={mu:.6g}"
        )
    w1, w2, a2, a3 = _member_samples(kind, phi, two, three, cfg)
    values = np.abs(a3 - mu * a2 * a2) + penalty * np.abs(a2) ** 2
    A, _, _ = fs_scales(kind, two, three)
    return _record(mu, phi.b1 / A, values, w1, w2, branch, cfg)


def sweep(
    kind: ClassKind,
    mu_range: tuple[float, float, float],
    phi: MaMindaTarget,
    params: PQParams,
    cfg: OracleConfig,
) -> list[SweepEntry]:
    """One verification per mu on the inclusive range (lo, hi, step).

    Entries come back in increasing mu order; a mu whose bound is not
    defined (degenerate parameters) is recorded as a domain skip instead
    of aborting the sweep.  An empty range (lo >= hi) yields no entries.
    Non-finite endpoints or step, a step <= 0 and a range of more than
    ``MAX_SWEEP_POINTS`` points are domain errors.

    The member arrays do not depend on mu, so they are built once per
    call and every mu reuses them; each record is bit-identical to the
    one ``verify_fs`` returns for that mu.
    """
    lo, hi, step = mu_range
    if not all(math.isfinite(x) for x in mu_range):
        raise DomainError(f"sweep range needs finite lo, hi and step, got {lo:g}:{hi:g}:{step:g}")
    if not step > 0.0:
        raise DomainError(f"sweep step must be > 0, got {step:g}")
    if not lo < hi:
        return []
    span = (hi - lo) / step  # inf when the division overflows
    count = math.floor(span + 1e-9) + 1 if math.isfinite(span) else math.inf
    if count > MAX_SWEEP_POINTS:
        raise DomainError(
            f"sweep range {lo:g}:{hi:g}:{step:g} has more than {MAX_SWEEP_POINTS} points"
        )
    mus = [lo + k * step for k in range(count)]
    try:
        verify = _fs_verifier(kind, phi, params, cfg)
    except DomainError as exc:
        return [SweepEntry(mu=mu, record=None, error=str(exc)) for mu in mus]
    entries: list[SweepEntry] = []
    for mu in mus:
        try:
            entries.append(SweepEntry(mu=mu, record=verify(mu)))
        except DomainError as exc:
            entries.append(SweepEntry(mu=mu, record=None, error=str(exc)))
    return entries


def summarize(entries: list[SweepEntry]) -> tuple[int, int, int]:
    """(passes, failures, skips) for a sweep."""
    statuses = [e.status for e in entries]
    return statuses.count("PASS"), statuses.count("FAIL"), statuses.count("SKIP(domain)")
