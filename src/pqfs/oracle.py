"""Brute-force verification of the bounds over the Caratheodory body.

Nothing here trusts the closed forms: the oracle samples the feasible
second-order Schwarz body (a dense grid plus seeded random draws plus
the forced extremal jets), pushes every sample through the member-jet
formulas, and maximizes the functional directly.  A sound implementation
never sees the empirical maximum exceed the theoretical bound; with the
extremal jets forced into the sample set the maximum also attains the
bound, witnessing sharpness.

The sample set is two cached parts: the grid, which depends on the grid
density alone and is shared by every seed and budget (kept as its
Caratheodory data c1, c2, for the last density used), and the per-seed
tail of random and extremal jets (for the last config used).  Every functional
is evaluated block by block over slices of at most ``BLOCK`` jets of one
part, and a sweep evaluates all its mu on each block in one pass, so no
check allocates an array as long as the sample set.

Sampling is deterministic for a fixed seed.  Record merging in sweeps is
sequential and ordered by mu, so results are reproducible run to run.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .bounds import (
    BoundReport,
    BRANCH_MAX_FORM,
    _require_real,
    caratheodory_piecewise_bound,
    ma_minda_bound,
    max_form_report,
)
from .classes import ClassKind, Kernel, MaMindaTarget, SchwarzJet, schwarz_jets_from_rows
from .pq_core import DomainError, PQParams

DEFAULT_SEED = 20259

#: Largest number of mu points one sweep may verify.
MAX_SWEEP_POINTS = 100_000

#: Largest grid density and random budget an OracleConfig accepts; the
#: sample set grows as the fourth power of the grid density.
MAX_GRID_DENSITY = 48
MAX_RANDOM_SAMPLES = 1_000_000

#: Jets per block of the blocked reductions: no oracle check allocates an
#: array longer than this, apart from the cached sample set.  A complex
#: block is 128,000 bytes, under glibc's 131,072-byte mmap threshold, so its
#: temporaries always come from the heap, whatever was allocated before.
BLOCK = 8000


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
        for name in ("grid_density", "random_samples", "seed"):
            value = getattr(self, name)
            # bool is an int subclass, but True is not a budget or a seed
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if not 8 <= self.grid_density <= MAX_GRID_DENSITY:
            raise DomainError(
                f"grid_density must be in [8, {MAX_GRID_DENSITY}], got {self.grid_density}"
            )
        if not 0 <= self.random_samples <= MAX_RANDOM_SAMPLES:
            raise DomainError(
                f"random_samples must be in [0, {MAX_RANDOM_SAMPLES}], got {self.random_samples}"
            )
        if not 0.0 < self.tolerance < math.inf:
            raise DomainError(f"tolerance must be finite and > 0, got {self.tolerance}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class VerificationRecord:
    """Outcome of one brute-force comparison against a theoretical bound.

    ``gap`` is theoretical - empirical_max: a positive gap means the
    sample set did not attain the bound, a negative gap beyond the
    tolerance means the bound was violated (an implementation bug);
    ``attained`` means |gap| <= tolerance.
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


class _Grid(NamedTuple):
    """The grid part of the sample set, kept as its Caratheodory data.

    Grid jet i has w1 = disc[i // n] and w2 = disc[i % n] shrink[i // n],
    with n = disc.size and shrink = 1 - |disc|^2; ``jets`` rebuilds them.
    """

    disc: np.ndarray
    shrink: np.ndarray
    c1: np.ndarray
    c2: np.ndarray

    def jets(self, i):
        """(w1, w2) of grid index i, an int or an integer array, with the
        ufuncs of the disc x disc build, so the bytes are those of the jets
        that c1 and c2 were computed from."""
        outer, inner = np.divmod(i, self.disc.size)
        return self.disc[outer], np.multiply(self.disc[inner], self.shrink[outer])


@lru_cache(maxsize=1)
def _grid(grid_density: int) -> _Grid:
    """The grid part of the sample set, shared by every seed and budget.

    u1..u4 on [-1, 1]^4 with w1 = u1 + i u2 kept inside the closed unit
    disc and w2 = (u3 + i u4)(1 - |w1|^2) kept inside its shrunken disc, in
    the "ij" order of a four-way meshgrid.  The kept points are the product
    of the 2-D disc grid with itself, so they are built as disc x disc.
    Only c1 = 2 w1 and c2 = 2 w1^2 + 2 w2 are stored, for the last density
    only (about 32 bytes per jet: 5.3 MB at density 24, 94 MB at 48), and
    computed in place, so that the build holds at most three jet-sized
    complex arrays, with the ufuncs of ``2.0 * w1`` and ``2.0 * w1 * w1 + 2.0 * w2``.
    """
    u = np.linspace(-1.0, 1.0, grid_density)
    disc = (u[:, None] + 1j * u[None, :]).ravel()
    disc = disc[np.abs(disc) <= 1.0]
    shrink = 1.0 - np.abs(disc) ** 2
    n = disc.size
    w1 = np.repeat(disc, n)
    c1 = 2.0 * w1
    c2 = np.multiply(c1, w1, out=w1)
    w2 = np.tile(disc, n)
    w2 *= np.repeat(shrink, n)
    w2 *= 2.0
    c2 += w2
    for a in (disc, shrink, c1, c2):
        a.setflags(write=False)
    return _Grid(disc, shrink, c1, c2)


@lru_cache(maxsize=1)
def _sample_jets(
    random_samples: int, include_extremals: bool, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """(w1, w2) of the per-seed tail that follows the grid in the sample set.

    Random part: rows of four seeded uniform variates through
    ``schwarz_jets_from_rows`` (w1 uniform on the disc, then w2 uniform on
    the disc of radius 1 - |w1|^2), drawn row-wise so that a larger budget
    extends a smaller one.  Extremal jets (1, 0) and (0, 1) and their
    negatives are appended last when requested.  Only the last tail is kept.
    """
    rows = np.random.default_rng(seed).random((random_samples, 4))
    w1, w2 = schwarz_jets_from_rows(rows)
    if include_extremals:
        w1 = np.concatenate([w1, [1.0, 0.0, -1.0, 0.0]])
        w2 = np.concatenate([w2, [0.0, 1.0, 0.0, -1.0]])
    w1.setflags(write=False)
    w2.setflags(write=False)
    return w1, w2


def _tail(cfg: OracleConfig) -> tuple[np.ndarray, np.ndarray]:
    return _sample_jets(cfg.random_samples, cfg.include_extremals, cfg.seed)


def _caratheodory(w1: np.ndarray, w2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return 2.0 * w1, 2.0 * w1 * w1 + 2.0 * w2


def _caratheodory_samples(cfg: OracleConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(w1, w2, c1, c2) over the whole sample set at once, grid then tail.
    The checks below never call this: they go through
    ``_caratheodory_blocks``."""
    grid, (tw1, tw2) = _grid(cfg.grid_density), _tail(cfg)
    gw1, gw2 = grid.jets(np.arange(grid.c1.size))
    tc1, tc2 = _caratheodory(tw1, tw2)
    return (
        np.concatenate([gw1, tw1]),
        np.concatenate([gw2, tw2]),
        np.concatenate([grid.c1, tc1]),
        np.concatenate([grid.c2, tc2]),
    )


Blocks = Iterator[tuple[int, np.ndarray, np.ndarray]]


def _caratheodory_blocks(cfg: OracleConfig) -> Blocks:
    """(start, c1, c2) for slices of at most ``BLOCK`` sampled jets: views
    of the cached grid, then the tail, whose c1 and c2 are computed per
    block.  ``start`` is the index of the block's first jet in the set."""
    grid, (w1, w2) = _grid(cfg.grid_density), _tail(cfg)
    size = grid.c1.size
    for start in range(0, size, BLOCK):
        yield start, grid.c1[start : start + BLOCK], grid.c2[start : start + BLOCK]
    for start in range(0, w1.size, BLOCK):
        yield size + start, *_caratheodory(w1[start : start + BLOCK], w2[start : start + BLOCK])


def _member_blocks(k: Kernel, phi: MaMindaTarget, cfg: OracleConfig) -> Blocks:
    """(start, a2, a3) for the blocks of ``_caratheodory_blocks``, through
    the member jet of the kernel."""
    return ((start, *k.member(c1, c2, phi)) for start, c1, c2 in _caratheodory_blocks(cfg))


Functional = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _argmax(blocks: Blocks, functionals: Sequence[Functional]) -> list[tuple[float, int]]:
    """(max, first index) of each functional over all blocks, in one pass.

    Each functional maps the two arrays of a block to real values.  Within
    a block ``np.argmax`` picks the first maximum; across blocks a later
    block wins only with a strictly larger value, so the index is the one
    ``np.argmax`` gives over the whole set.  Like ``np.argmax``, a NaN
    counts as the largest value and the first NaN wins.
    """
    best = [(-math.inf, -1)] * len(functionals)
    for start, x, y in blocks:
        for k, functional in enumerate(functionals):
            values = functional(x, y)
            i = int(np.argmax(values))
            v, top = float(values[i]), best[k][0]
            if v > top or (math.isnan(v) and not math.isnan(top)):
                best[k] = (v, start + i)
    return best


def _record(
    mu: complex,
    theoretical: float,
    best: tuple[float, int],
    branch: str,
    cfg: OracleConfig,
) -> VerificationRecord:
    empirical, i = best
    grid = _grid(cfg.grid_density)
    if i < grid.c1.size:
        w1, w2 = grid.jets(i)
    else:
        w1, w2 = (w[i - grid.c1.size] for w in _tail(cfg))
    gap = theoretical - empirical
    return VerificationRecord(
        mu=mu,
        theoretical=theoretical,
        empirical_max=empirical,
        gap=gap,
        attained=abs(gap) <= cfg.tolerance,
        witness=SchwarzJet(complex(w1), complex(w2)),
        branch=branch,
        tolerance=cfg.tolerance,
    )


def brute_force_caratheodory_max(mu: complex, cfg: OracleConfig) -> VerificationRecord:
    """Maximize |c2 - mu c1^2| over the sampled body against the sharp
    value 2 max(1, |2 mu - 1|); mu may be complex, but must be finite."""
    bound = ma_minda_bound(mu)
    (best,) = _argmax(_caratheodory_blocks(cfg), [lambda c1, c2: np.abs(c2 - mu * c1 * c1)])
    return _record(mu, bound, best, BRANCH_MAX_FORM, cfg)


def brute_force_caratheodory_piecewise(
    v: float, cfg: OracleConfig, refined: bool = False
) -> VerificationRecord:
    """Maximize |c2 - v c1^2| (real v) against its three-branch sharp value.

    With ``refined`` the functional gains v |c1|^2 for 0 < v <= 1/2 or
    (1 - v)|c1|^2 for 1/2 <= v < 1, and the cap is the constant 2; values
    of v outside (0, 1) have no refined form and are rejected.
    """
    if not refined:
        bound = caratheodory_piecewise_bound(v)
        (best,) = _argmax(_caratheodory_blocks(cfg), [lambda c1, c2: np.abs(c2 - v * c1 * c1)])
        return _record(v, bound, best, "piecewise", cfg)
    if not 0.0 < v < 1.0:
        raise DomainError(f"refined forms need 0 < v < 1, got v={v:g}")
    weight = v if v <= 0.5 else 1.0 - v

    def values(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
        return np.abs(c2 - v * c1 * c1) + weight * np.abs(c1) ** 2

    (best,) = _argmax(_caratheodory_blocks(cfg), [values])
    return _record(v, 2.0, best, "refined_low" if v <= 0.5 else "refined_high", cfg)


def _fs_outcomes(
    k: Kernel, mus: Sequence[complex], phi: MaMindaTarget, params: PQParams, cfg: OracleConfig
) -> list[VerificationRecord | DomainError]:
    """One record per mu, or the DomainError of its bound, from a single
    pass over the member blocks of the kernel k.

    Each block evaluates |a3 - mu a2^2| for every mu through two scratch
    buffers; the buffered steps are the ufuncs of ``abs(a3 - mu * a2 * a2)``
    in the same order, so the values match that expression bit for bit.
    """
    reports: list[BoundReport | DomainError] = []
    for mu in mus:
        try:
            reports.append(max_form_report(k, mu, phi, params))
        except DomainError as exc:
            reports.append(exc)
    live = [mu for mu, r in zip(mus, reports) if isinstance(r, BoundReport)]
    if not live:
        return reports
    # the largest block: blocks never straddle the grid and the tail
    size = min(BLOCK, max(_grid(cfg.grid_density).c1.size, _tail(cfg)[0].size))
    t, buf = np.empty(size, dtype=complex), np.empty(size)

    def functional(mu: complex) -> Functional:
        def values(a2: np.ndarray, a3: np.ndarray) -> np.ndarray:
            tt, vv = t[: a2.size], buf[: a2.size]
            np.multiply(mu, a2, out=tt)
            np.multiply(tt, a2, out=tt)
            np.subtract(a3, tt, out=tt)
            return np.abs(tt, out=vv)

        return values

    bests = iter(_argmax(_member_blocks(k, phi, cfg), [functional(mu) for mu in live]))
    return [
        r if isinstance(r, DomainError) else _record(mu, r.value, next(bests), r.branch, cfg)
        for mu, r in zip(mus, reports)
    ]


def verify_fs(
    kind: ClassKind, mu: complex, phi: MaMindaTarget, params: PQParams, cfg: OracleConfig
) -> VerificationRecord:
    """Maximize |a3 - mu a2^2| over member jets built from the sampled body
    and compare with the max-form bound."""
    return max_form_check(Kernel.of(kind, params), mu, phi, params, cfg)


def max_form_check(
    k: Kernel, mu: complex, phi: MaMindaTarget, params: PQParams, cfg: OracleConfig
) -> VerificationRecord:
    """``verify_fs`` over the member jets of the kernel k, such as the
    Bernardi image kernel."""
    (out,) = _fs_outcomes(k, [mu], phi, params, cfg)
    if isinstance(out, DomainError):
        raise out
    return out


def verify_refined(
    kind: ClassKind, mu: float, phi: MaMindaTarget, params: PQParams, cfg: OracleConfig
) -> VerificationRecord:
    """Maximize the refined functional over member jets inside the threshold
    window that contains mu; window violations surface as domain errors."""
    return refined_check(Kernel.of(kind, params), mu, phi, cfg)


def refined_check(k: Kernel, mu: float, phi: MaMindaTarget, cfg: OracleConfig) -> VerificationRecord:
    """``verify_refined`` over the member jets of the kernel k, against its
    cap b1 / A."""
    mu = _require_real(mu)
    side, penalty = k.refined_penalty(mu, phi)

    def values(a2: np.ndarray, a3: np.ndarray) -> np.ndarray:
        return k.refined_functional(a2, a3, mu, penalty)

    (best,) = _argmax(_member_blocks(k, phi, cfg), [values])
    return _record(mu, phi.b1 / k.A, best, f"refined_{side}", cfg)


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

    The member arrays do not depend on mu, so one pass over the member
    blocks serves every mu; each record is bit-identical to the one
    ``verify_fs`` returns for that mu.
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
        outcomes = _fs_outcomes(Kernel.of(kind, params), mus, phi, params, cfg)
    except DomainError as exc:
        return [SweepEntry(mu=mu, record=None, error=str(exc)) for mu in mus]
    return [
        SweepEntry(mu=mu, record=None, error=str(out))
        if isinstance(out, DomainError)
        else SweepEntry(mu=mu, record=out)
        for mu, out in zip(mus, outcomes)
    ]


def summarize(entries: list[SweepEntry]) -> tuple[int, int, int]:
    """(passes, failures, skips) for a sweep."""
    statuses = [e.status for e in entries]
    return statuses.count("PASS"), statuses.count("FAIL"), statuses.count("SKIP(domain)")
