"""Brute-force verification of the bounds over the Caratheodory body.

Nothing here trusts the closed forms: the oracle samples the feasible
second-order Schwarz body, pushes every sample through the member-jet
formulas, and maximizes the functional directly.  A sound implementation
never sees the empirical maximum exceed the theoretical bound.  Every
functional has its maximum on the rim |w2| = 1 - |w1|^2, and the sample
set is a grid on that rim followed by the forced extremal jets (1, 0),
(0, 1) and their negatives.  The grid holds the extremal jets pulled
inside by the factor ``INSET``, so it alone attains the sharp bounds to
about 1e-12 (relative); the forced extremal jets attain them to the last
bit.  Seeded random interior jets, between the grid and the extremal
jets, are an opt-in check of the rim argument itself
(``OracleConfig.random_samples``, 0 by default).

The sample set is one cached, read-only set of arrays (its jets and their
Caratheodory data c1, c2, for the last config used; without random jets
it does not depend on the seed).  Every functional is evaluated block by
block over views of at most ``BLOCK`` jets, and a sweep evaluates all its
mu on each block in one pass, so no check allocates an array as long as
the sample set.  A sweep evaluates |a3 - mu a2^2| only on the jets that
can still attain a block's maximum: a quadratic in mu with a proven slack
selects them, and the records are bit-identical to those of one check per
mu (``_sweep_argmax``) where numpy rounds a gathered jet as it does in
the whole block, which ``test_gathered_functional_equals_the_full_block``
checks.

Sampling is deterministic for a fixed seed.  Record merging in sweeps is
sequential and ordered by mu, so results are reproducible run to run.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

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
#: grid grows as the cube of its density (101,708 jets at 48).
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

    The grid places ``grid_density`` radii |w1| and ``grid_density`` - 1
    angles for each of arg w1 and arg w2 on the rim of the body (cost
    grows as the cube).  ``random_samples`` adds that many seeded random
    jets of the body, an opt-in check that the rim suffices; they are
    prefix-stable in the count for a fixed seed, and the seed matters only
    when there are some.  ``include_extremals`` forces in the jets (1, 0),
    (0, 1) and their negatives, which attain the sharp bounds exactly.
    """

    grid_density: int = 24
    random_samples: int = 0
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
    tolerance means the bound was violated (an implementation bug).
    ``passed`` means empirical_max <= theoretical + tolerance, an absolute
    slack; ``attained`` means passed and gap <= tolerance * max(1,
    |theoretical|), a slack relative to a bound above 1, because the
    sampled maximum falls short by rounding and by the grid's inset in
    proportion to the bound.  Both are derived from the numbers, so a
    violated bound never reads as attained.
    """

    mu: complex
    theoretical: float
    empirical_max: float
    witness: SchwarzJet
    branch: str
    tolerance: float

    @property
    def gap(self) -> float:
        return self.theoretical - self.empirical_max

    @property
    def attained(self) -> bool:
        return self.passed and self.gap <= self.tolerance * max(1.0, abs(self.theoretical))

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


def _caratheodory(w1: np.ndarray, w2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return 2.0 * w1, 2.0 * w1 * w1 + 2.0 * w2


#: Factor by which every grid jet is pulled inside the body.  On the rim
#: itself the functionals round a few ulps above their closed forms; the
#: inset keeps the grid's maximum about 1e-12 (relative) below them.
INSET = 1.0 - 2.0**-40


def _polar(modulus: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    z = np.empty(modulus.size, complex)
    z.real = modulus * cos
    z.imag = modulus * sin
    return z


def _grid(grid_density: int) -> tuple[np.ndarray, np.ndarray]:
    """(w1, w2) of the grid that opens the sample set.

    Every functional the oracle maximizes is |affine in w2| plus a term in
    w1 alone, so for fixed w1 its maximum lies on the rim |w2| = 1 - |w1|^2.
    The grid is the product of n = ``grid_density`` radii |w1| =
    linspace(0, 1, n) with n - 1 angles 2 pi k / (n - 1) for arg w1 and for
    arg w2, radius first: (n - 2)(n - 1)^2 + 2(n - 1) jets, because w1 = 0
    keeps one arg w1 and w2 = 0 (at |w1| = 1) keeps one arg w2.  Each jet
    is scaled by ``INSET``.  The grid at density n is a subset of the one
    at 2n - 1; it has 11,684 jets at 24 and 101,708 at 48.
    """
    n = grid_density
    # one libm cosine and sine per angle: numpy's vectorized ones differ by
    # build and CPU, and the grid's bytes should not
    angles = [2.0 * math.pi * k / (n - 1) for k in range(n - 1)]
    cos = np.array([math.cos(t) for t in angles])
    sin = np.array([math.sin(t) for t in angles])
    radius = np.linspace(0.0, 1.0, n)
    r, j, k = np.indices((n, n - 1, n - 1)).reshape(3, -1)
    keep = ((r > 0) | (j == 0)) & ((r < n - 1) | (k == 0))
    r, j, k = r[keep], j[keep], k[keep]
    w1 = _polar((INSET * radius)[r], cos[j], sin[j])
    w2 = _polar((INSET * (1.0 - radius * radius))[r], cos[k], sin[k])
    return w1, w2


@lru_cache(maxsize=1)
def _sample_jets(
    grid_density: int, random_samples: int, include_extremals: bool, seed: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(w1, w2, c1, c2) of the whole sample set, read-only.

    The set is the grid (``_grid``), then ``random_samples`` random jets,
    then the extremal jets (1, 0), (0, 1) and their negatives when
    requested.  The random jets are one draw of rows of four seeded uniform
    variates through ``schwarz_jets_from_rows`` (w1 uniform on the disc,
    then w2 uniform on the disc of radius 1 - |w1|^2), so a larger budget
    extends a smaller one.  Only the last set is kept (11,688 jets, 0.75 MB
    by default; 6.5 MB for the grid alone at density 48).
    """
    parts = [_grid(grid_density)]
    if random_samples:
        parts.append(schwarz_jets_from_rows(np.random.default_rng(seed).random((random_samples, 4))))
    if include_extremals:
        parts.append((np.array([1.0, 0.0, -1.0, 0.0], complex), np.array([0.0, 1.0, 0.0, -1.0], complex)))
    w1, w2 = (np.concatenate(w) for w in zip(*parts))
    jets = (w1, w2, *_caratheodory(w1, w2))
    for a in jets:
        a.setflags(write=False)
    return jets


def _caratheodory_samples(cfg: OracleConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(w1, w2, c1, c2) of the sample set of ``cfg``.  The seed only
    matters with random jets, so without them every seed shares one set."""
    seed = cfg.seed if cfg.random_samples else None
    return _sample_jets(cfg.grid_density, cfg.random_samples, cfg.include_extremals, seed)


Blocks = Iterator[tuple[int, np.ndarray, np.ndarray]]


def _caratheodory_blocks(cfg: OracleConfig) -> Blocks:
    """(start, c1, c2) for views of at most ``BLOCK`` jets of the cached
    sample set; ``start`` is the index of the block's first jet in it."""
    _, _, c1, c2 = _caratheodory_samples(cfg)
    for start in range(0, c1.size, BLOCK):
        yield start, c1[start : start + BLOCK], c2[start : start + BLOCK]


def _member_blocks(k: Kernel, phi: MaMindaTarget, cfg: OracleConfig) -> Blocks:
    """(start, a2, a3) for the blocks of ``_caratheodory_blocks``, through
    the member jet of the kernel."""
    return ((start, *k.member(c1, c2, phi)) for start, c1, c2 in _caratheodory_blocks(cfg))


Functional = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _fs_functional(mu: complex | np.ndarray) -> Functional:
    """|y - mu x^2| of a block: |a3 - mu a2^2| over member jets, or
    |c2 - v c1^2| over the body.  One temporary per block; its in-place
    steps are the ufuncs of ``abs(y - mu * x * x)`` in the same order, so
    the values match that expression bit for bit.  mu may also be an array
    as long as the block, one mu per jet (the sweep's prefilter)."""

    def values(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        t = np.multiply(mu, x)
        np.multiply(t, x, out=t)
        np.subtract(y, t, out=t)
        return np.abs(t)

    return values


def _merge(best: list[tuple[float, int]], start: int, block: Iterable[tuple[float, int]]) -> None:
    """Fold one block's (max, first index) per functional into ``best``.

    A later block wins only with a strictly larger value, so the index is
    the one ``np.argmax`` gives over the whole set.  Like ``np.argmax``, a
    NaN counts as the largest value and the first NaN wins.
    """
    for k, (v, i) in enumerate(block):
        top = best[k][0]
        if v > top or (math.isnan(v) and not math.isnan(top)):
            best[k] = (v, start + i)


def _argmax(blocks: Blocks, functionals: Sequence[Functional]) -> list[tuple[float, int]]:
    """(max, first index) of each functional over all blocks, in one pass.

    Each functional maps the two arrays of a block to real values; within
    a block ``np.argmax`` picks the first maximum.
    """
    best = [(-math.inf, -1)] * len(functionals)
    for start, x, y in blocks:
        block = []
        for functional in functionals:
            values = functional(x, y)
            i = int(np.argmax(values))
            block.append((float(values[i]), i))
        _merge(best, start, block)
    return best


#: Relative slack of the sweep's prefilter and its absolute floor for
#: products that underflow (see ``_sweep_argmax``).
_ETA = 2.0**-40
_FLOOR = 2.0**-960

#: A chunk whose survivors are more than 1 / ``_SPARSE`` of its (mu, jet)
#: pairs is evaluated whole: gathering costs more per pair than that saves.
_SPARSE = 8

#: The prefilter takes mu in chunks whose quadratic Q holds at most this
#: many times ``BLOCK`` doubles (512 KB), whatever the number of mu.
_Q_BLOCKS = 8


def _sweep_argmax(blocks: Blocks, mus: Sequence[float]) -> list[tuple[float, int]]:
    """``_argmax(blocks, [_fs_functional(mu) for mu in mus])`` for real mu,
    bit for bit, with the exact functional evaluated only on the jets of a
    block that can still attain its maximum.

    For a block (x, y) and X = x^2 the squared functional is a quadratic in
    mu, |y - mu X|^2 = A - 2 mu B + mu^2 C with the real rows A = |y|^2,
    B = Re(conj(y) X) and C = |X|^2; one matmul gives Q = [1, -2 mu, mu^2]
    [A; B; C] for a chunk of mu.  A jet j survives when Q_j >= max Q -
    2 s_mu, where s_mu = 2 eta (max A + mu^2 max C) + floor (1 + |mu|)^2,
    eta = 2^-40 and floor = 2^-960.  On the survivors only, the unchanged
    ``_fs_functional`` (the same ufuncs in the same order, with mu an
    array) gives the values, and their maximum and first index; blocks
    merge as in ``_argmax``.  A chunk's Q holds at most ``_Q_BLOCKS`` *
    ``BLOCK`` doubles and its survivors are evaluated before the next
    chunk's, so no array grows with the number of mu beyond the mu
    themselves.

    Why no maximizer is dropped: every rounded quantity here, Q_j and the
    square of the computed value v_j alike, lies within 2 c u (A + mu^2 C)
    + d 2^-1074 (1 + |mu|)^2 of the exact |y - mu x^2|^2, with c < 64,
    d < 16 and u = 2^-53.  The first term is the rounding of normal
    numbers, within c u (|y| + |mu| |x|^2)^2; the second is that of
    products that underflow, whose absolute error of at most 2^-1075 A, B
    and C carry into Q times 1, 2|mu| and mu^2 (where X itself underflows,
    2ab <= u a^2 + b^2 / u splits its cross terms between the two).  So
    each lies within s_mu, the first term with more than 100x margin and
    the second with more than 2^100x.  A j that attains max v then has
    Q_j >= v_j^2 - s_mu >= v_k^2 - s_mu >= Q_k - 2 s_mu for every k.

    The bound needs every square finite, and the filter pays only where it
    drops most jets, so some mu go through ``_argmax`` unchanged: all mu of
    a block whose largest part of x^2 lies outside [2^-450, 2^510) (NaN
    jets, targets from |b1| near 1e75 up or below about 1e-68, where the
    floor term outweighs mu^2 max C and subnormal rows cost tens of times
    more than normal ones), and the mu of each chunk where max A + max
    mu^2 max C is not below 2^1020 (inf jets, or |mu| from about 1.3e154
    up) or more than 1 / ``_SPARSE`` of whose pairs survive (ties, or a
    quadratic that cancels).  Rows are built only where some chunk can
    pass: none for such a block or where every chunk holds a mu whose
    square overflows, and no B row where no chunk fits.

    The values are those of the whole block only if numpy rounds an
    element the same in every array length, which
    ``test_gathered_functional_equals_the_full_block`` checks (numpy 2.4.6
    on an AVX-512 x86_64 host).  It does for two elements and more, but
    its in-place complex multiply takes an unfused loop on a single
    element.  So a block of one jet (the last block of a set whose size is
    1 mod ``BLOCK``, which random jets can give) goes through ``_argmax``
    too, and a lone survivor is evaluated as a pair.
    """
    mu = np.array(mus, float)
    with np.errstate(over="ignore"):
        coef = np.stack([np.ones_like(mu), -2.0 * mu, mu * mu], axis=1)
        under = 2.0 * ((np.abs(mu) + 1.0) * 2.0**-480) ** 2  # 2 floor (1 + |mu|)^2
    reaches: dict[int, list[float]] = {}  # per chunk length: max mu^2 of each chunk
    best = [(-math.inf, -1)] * mu.size
    work = np.empty(0)
    for start, x, y in blocks:
        n = x.size
        chunk = min(mu.size, max(1, _Q_BLOCKS * BLOCK // n))
        if chunk not in reaches:
            reaches[chunk] = np.maximum.reduceat(coef[:, 2], np.arange(0, mu.size, chunk)).tolist()
        fits = [False] * len(reaches[chunk])
        sq = x * x
        top_sq = float(np.abs(sq.view(float)).max())  # max C lies in [top_sq^2, 2 top_sq^2]
        if n > 1 and min(reaches[chunk]) < math.inf and 2.0**-450 <= top_sq < 2.0**510:
            if work.size < (3 + chunk) * n:
                # one buffer for [A; B; C] and Q per call: arrays this large come
                # from fresh pages on each allocation, which costs more than the sums
                work = np.empty((3 + chunk) * n)
            abc = work[: 3 * n].reshape(3, n)
            with np.errstate(over="ignore", invalid="ignore"):
                np.add(y.real * y.real, y.imag * y.imag, out=abc[0])
                np.add(sq.real * sq.real, sq.imag * sq.imag, out=abc[2])
                top_a, top_c = float(abc[0].max()), float(abc[2].max())
                fits = [top_a + r * top_c < 2.0**1020 for r in reaches[chunk]]
                if any(fits):
                    np.add(y.real * sq.real, y.imag * sq.imag, out=abc[1])
                    slack = (4.0 * _ETA) * (top_a + top_c * coef[:, 2]) + under
        block: list[tuple[float, int]] = []
        for fit, lo in zip(fits, range(0, mu.size, chunk)):
            hi = min(lo + chunk, mu.size)
            if fit:
                q = np.matmul(coef[lo:hi], abc, out=work[3 * n : (3 + hi - lo) * n].reshape(hi - lo, n))
                # np.flatnonzero: the 2-D np.nonzero is about ten times slower
                keep = np.flatnonzero(q >= (q.max(axis=1) - slack[lo:hi])[:, None])
            if not fit or keep.size > q.size // _SPARSE:
                block += _argmax([(0, x, y)], [_fs_functional(m) for m in mus[lo:hi]])
                continue
            row, col = np.divmod(np.repeat(keep, 2) if keep.size == 1 else keep, n)  # no lone jet
            values = _fs_functional(mu[lo + row])(x[col], y[col])
            starts = np.flatnonzero(np.diff(row, prepend=-1))  # every row keeps its max
            top = np.maximum.reduceat(values, starts)
            first = np.minimum.reduceat(np.where(values == top[row], col, n), starts)
            block += zip(top.tolist(), first.tolist())
        _merge(best, start, block)
    return best


def _record(
    mu: complex,
    theoretical: float,
    best: tuple[float, int],
    branch: str,
    cfg: OracleConfig,
) -> VerificationRecord:
    empirical, i = best
    w1, w2, _, _ = _caratheodory_samples(cfg)
    return VerificationRecord(
        mu=mu,
        theoretical=theoretical,
        empirical_max=empirical,
        witness=SchwarzJet(complex(w1[i]), complex(w2[i])),
        branch=branch,
        tolerance=cfg.tolerance,
    )


def _check(
    blocks: Blocks, mu: complex, theoretical: float, branch: str, functional: Functional, cfg: OracleConfig
) -> VerificationRecord:
    """The record of one functional maximized over the blocks."""
    (best,) = _argmax(blocks, [functional])
    return _record(mu, theoretical, best, branch, cfg)


def brute_force_caratheodory_max(mu: complex, cfg: OracleConfig) -> VerificationRecord:
    """Maximize |c2 - mu c1^2| over the sampled body against the sharp
    value 2 max(1, |2 mu - 1|); mu may be complex, but must be finite."""
    bound = ma_minda_bound(mu)
    return _check(_caratheodory_blocks(cfg), mu, bound, BRANCH_MAX_FORM, _fs_functional(mu), cfg)


def brute_force_caratheodory_piecewise(
    v: float, cfg: OracleConfig, refined: bool = False
) -> VerificationRecord:
    """Maximize |c2 - v c1^2| (real v) against its three-branch sharp value.

    With ``refined`` the functional gains v |c1|^2 for 0 < v <= 1/2 or
    (1 - v)|c1|^2 for 1/2 <= v < 1, and the cap is the constant 2; values
    of v outside (0, 1) have no refined form and are rejected.
    """
    v = _require_real(v, "v")
    if not refined:
        bound = caratheodory_piecewise_bound(v)
        return _check(_caratheodory_blocks(cfg), v, bound, "piecewise", _fs_functional(v), cfg)
    if not 0.0 < v < 1.0:
        raise DomainError(f"refined forms need 0 < v < 1, got v={v:g}")
    weight, branch = (v, "refined_low") if v <= 0.5 else (1.0 - v, "refined_high")

    def values(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
        return Kernel.refined_functional(c1, c2, v, weight)

    return _check(_caratheodory_blocks(cfg), v, 2.0, branch, values, cfg)


def verify_fs(
    kind: ClassKind, mu: complex, phi: MaMindaTarget, params: PQParams, cfg: OracleConfig
) -> VerificationRecord:
    """Maximize |a3 - mu a2^2| over member jets built from the sampled body
    and compare with the max-form bound."""
    return max_form_check(Kernel.of(kind, params), mu, phi, cfg)


def max_form_check(k: Kernel, mu: complex, phi: MaMindaTarget, cfg: OracleConfig) -> VerificationRecord:
    """``verify_fs`` over the member jets of the kernel k, such as the
    Bernardi image kernel."""
    report = max_form_report(k, mu, phi)
    return _check(_member_blocks(k, phi, cfg), mu, report.value, report.branch, _fs_functional(mu), cfg)


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

    return _check(_member_blocks(k, phi, cfg), mu, phi.b1 / k.A, f"refined_{side}", values, cfg)


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
    blocks serves every mu.  Per block, |a3 - mu a2^2|^2 is a quadratic in
    mu, and the exact functional runs only on the jets whose quadratic
    comes within a proven rounding slack of the block's largest
    (``_sweep_argmax``): 84 to 612 of the 245,448 (mu, jet) pairs of 21 mu
    over the default set of 11,688 jets.  Each record is bit-identical to
    the one ``verify_fs`` returns for that mu wherever
    ``test_gathered_functional_equals_the_full_block`` passes, that is
    where numpy gives a jet gathered from a block the bits it gives it in
    the whole block (checked with numpy 2.4.6 on an AVX-512 x86_64 host).
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
    mus = [lo + i * step for i in range(count)]
    try:
        k = Kernel.of(kind, params)
    except DomainError as exc:
        return [SweepEntry(mu=mu, record=None, error=str(exc)) for mu in mus]
    reports: list[BoundReport | DomainError] = []
    for mu in mus:
        try:
            reports.append(max_form_report(k, mu, phi))
        except DomainError as exc:
            reports.append(exc)
    live = [mu for mu, r in zip(mus, reports) if isinstance(r, BoundReport)]
    bests = iter(_sweep_argmax(_member_blocks(k, phi, cfg), live) if live else [])
    return [
        SweepEntry(mu=mu, record=_record(mu, r.value, next(bests), r.branch, cfg))
        if isinstance(r, BoundReport)
        else SweepEntry(mu=mu, record=None, error=str(r))
        for mu, r in zip(mus, reports)
    ]


def summarize(entries: list[SweepEntry]) -> tuple[int, int, int]:
    """(passes, failures, skips) for a sweep."""
    statuses = [e.status for e in entries]
    return statuses.count("PASS"), statuses.count("FAIL"), statuses.count("SKIP(domain)")
