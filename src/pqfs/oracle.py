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

The sample set is one cached, read-only set of arrays (its jets, their
Caratheodory data c1, c2 and five real rows of (c1, c2), for the last
config used; without random jets it does not depend on the seed).  Every
check, single or sweep, goes through one prefilter
(``_prefiltered_argmax``) block by block over views of at most ``BLOCK``
jets, so no check allocates an array as long as the sample set.  In exact
arithmetic the squared functional of every jet is a dot product of four
of those rows with coefficients built from mu and the kernel, so one
matmul gives it for a block; only the jets within a proven slack of the
block's maximum go through the member jet and the functional, and a sweep
takes all its mu on each block in one pass.  The records are
bit-identical to those of the plain evaluation over every jet
(``_argmax``) where numpy rounds a gathered jet as it does in the whole
block, which ``test_gathered_functional_equals_the_full_block`` checks.

Sampling is deterministic for a fixed seed.  Record merging in sweeps is
sequential and ordered by mu, so results are reproducible run to run.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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
        tolerance = self.tolerance
        if isinstance(tolerance, bool) or not isinstance(tolerance, numbers.Real):
            raise DomainError(f"tolerance must be a real number, got {tolerance!r}")
        object.__setattr__(self, "tolerance", float(tolerance))
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
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray, tuple[float, float]]:
    """((w1, w2, c1, c2), rows, top) of the whole sample set, read-only.

    The set is the grid (``_grid``), then ``random_samples`` random jets,
    then the extremal jets (1, 0), (0, 1) and their negatives when
    requested.  The random jets are one draw of rows of four seeded uniform
    variates through ``schwarz_jets_from_rows`` (w1 uniform on the disc,
    then w2 uniform on the disc of radius 1 - |w1|^2), so a larger budget
    extends a smaller one.  ``rows`` are the prefilter's ``_rows`` of
    (c1, c2), and ``top`` is (max |c2|^2, max |c1|^2) over the set.  Only the
    last set is kept (11,688 jets, 0.75 MB by default plus 0.47 MB of rows;
    6.5 MB plus 4.1 MB for the grid alone at density 48).
    """
    n = grid_density
    sizes = [(n - 2) * (n - 1) ** 2 + 2 * (n - 1), random_samples, 4 if include_extremals else 0]
    # the kept jets come first, so that the temporaries below, freed on
    # return, leave no hole in the heap under them
    buffer = np.empty((4, sum(sizes)), complex)
    jets = w1, w2, c1, c2 = tuple(buffer)
    parts = [_grid(n)]
    if random_samples:
        parts.append(schwarz_jets_from_rows(np.random.default_rng(seed).random((random_samples, 4))))
    if include_extremals:
        parts.append(([1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]))
    np.concatenate([p[0] for p in parts], out=w1)
    np.concatenate([p[1] for p in parts], out=w2)
    del parts
    # c1 = 2 w1 and c2 = 2 w1^2 + 2 w2, with the ufuncs of those expressions
    np.multiply(2.0, w1, out=c1)
    np.multiply(c1, w1, out=c2)
    np.add(c2, 2.0 * w2, out=c2)
    rows = _rows(c1, c2)
    for a in (buffer, *jets, rows):
        a.setflags(write=False)
    return jets, rows, _top(rows)


def _caratheodory_samples(cfg: OracleConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(w1, w2, c1, c2) of the sample set of ``cfg``.  The seed only
    matters with random jets, so without them every seed shares one set."""
    return _sample_set(cfg)[0]


def _sample_set(cfg: OracleConfig) -> tuple[tuple[np.ndarray, ...], np.ndarray, tuple[float, float]]:
    """The cached ``_sample_jets`` entry of ``cfg``: its jets, rows and top."""
    seed = cfg.seed if cfg.random_samples else None
    return _sample_jets(cfg.grid_density, cfg.random_samples, cfg.include_extremals, seed)


def _rows(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """The real rows of jets (c1, c2) that the prefilter's quadratic reads,
    one (5, n) array: |c2|^2, Re(conj(c2) c1^2), Im(conj(c2) c1^2),
    |c1^2|^2 and |c1|^2.  Built ``BLOCK`` jets at a time, so that no
    temporary grows with the set."""
    rows = np.empty((5, c1.size))
    for lo in range(0, c1.size, BLOCK):
        x, y, r = c1[lo : lo + BLOCK], c2[lo : lo + BLOCK], rows[:, lo : lo + BLOCK]
        s = x * x
        np.add(y.real * y.real, y.imag * y.imag, out=r[0])
        np.add(y.real * s.real, y.imag * s.imag, out=r[1])
        np.subtract(y.real * s.imag, y.imag * s.real, out=r[2])
        np.add(s.real * s.real, s.imag * s.imag, out=r[3])
        np.add(x.real * x.real, x.imag * x.imag, out=r[4])
    return rows


def _top(rows: np.ndarray) -> tuple[float, float]:
    """(max |c2|^2, max |c1|^2) of the rows; NaN if a jet is NaN."""
    t0, t4 = rows[::4].max(axis=1).tolist()
    return t0, t4


Blocks = Iterator[tuple[int, np.ndarray, np.ndarray]]
RowBlocks = Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]


def _caratheodory_blocks(cfg: OracleConfig) -> Blocks:
    """(start, c1, c2) for views of at most ``BLOCK`` jets of the cached
    sample set; ``start`` is the index of the block's first jet in it."""
    _, _, c1, c2 = _caratheodory_samples(cfg)
    for start in range(0, c1.size, BLOCK):
        yield start, c1[start : start + BLOCK], c2[start : start + BLOCK]


def _row_blocks(cfg: OracleConfig) -> RowBlocks:
    """(start, c1, c2, rows) for the blocks of ``_caratheodory_blocks``,
    with the view of the cached rows of the same jets."""
    rows = _sample_set(cfg)[1]
    return ((start, c1, c2, rows[:, start : start + c1.size]) for start, c1, c2 in _caratheodory_blocks(cfg))


Functional = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _fs_functional(mu: complex | np.ndarray) -> Functional:
    """|y - mu x^2| of a block: |a3 - mu a2^2| over member jets, or
    |c2 - v c1^2| over the body.  One temporary per block; its in-place
    steps are the ufuncs of ``abs(y - mu * x * x)`` in the same order, so
    the values match that expression bit for bit.  mu may also be an array
    as long as the block, one mu per jet (a sweep's gathered jets)."""

    def values(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        t = np.multiply(mu, x)
        np.multiply(t, x, out=t)
        np.subtract(y, t, out=t)
        return np.abs(t)

    return values


def _refined_functional(penalty: float) -> Callable[[complex], Functional]:
    """mu -> |y - mu x^2| + penalty |x|^2 of a block, through
    ``Kernel.refined_functional``."""
    return lambda mu: lambda x, y: Kernel.refined_functional(x, y, mu, penalty)


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


class _Route(NamedTuple):
    """How a check maps the jets (c1, c2) of a block to the arrays (x, y)
    its functional reads: in exact arithmetic x = gamma c1 and y = alpha
    (c2 - k c1^2).  ``inv2e`` is the factor by which the rounding of an
    underflowing product inside ``jets`` is scaled (the 1 / (2E) that the
    member jet divides by; 0 where nothing is divided)."""

    jets: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    alpha: float
    k: float
    gamma: float
    inv2e: float


def _body_jets(c1: np.ndarray, c2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return c1, c2


#: The Caratheodory lemma checks read (c1, c2) as they are.
_BODY = _Route(_body_jets, 1.0, 0.0, 1.0, 0.0)


def _member_route(k: Kernel, phi: MaMindaTarget) -> _Route:
    """The member jets (a2, a3) of the kernel k."""

    def jets(c1: np.ndarray, c2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return k.member(c1, c2, phi)

    return _Route(jets, *k.member_scalars(phi), 0.5 / k.E)


#: Relative slack of the prefilter and its absolute floor for products
#: that underflow (see ``_prefiltered_argmax``).
_ETA = 2.0**-40
_FLOOR = 2.0**-1000

#: A chunk whose survivors are more than 1 / ``_SPARSE`` of its (mu, jet)
#: pairs is evaluated whole: gathering costs more per pair than that saves.
_SPARSE = 8

#: The prefilter takes mu in chunks whose quadratic Q holds at most this
#: many times ``BLOCK`` doubles (512 KB), whatever the number of mu.
_Q_BLOCKS = 8


def _quadratic(
    mu: complex, route: _Route, top: tuple[float, float], penalty: float | None
) -> tuple[tuple[float, float, float, float], float, bool]:
    """(coefficients of Q over the rows, slack, whether the prefilter may
    take mu) for one mu; see ``_prefiltered_argmax`` for the terms.  Python
    floats throughout: an overflow gives inf, which fails the test."""
    _, alpha, k, gamma, e = route
    t0, t4 = top
    x1, x2 = math.sqrt(t4), math.sqrt(t0)
    a, g2 = abs(alpha), gamma * gamma
    beta = -(alpha * k + mu * g2)
    br, bi = beta.real, beta.imag
    coef = (alpha * alpha, 2.0 * alpha * br, -2.0 * alpha * bi, br * br + bi * bi)
    b, m1 = abs(br) + abs(bi), abs(mu.real) + abs(mu.imag)
    scale = a * x2 + (a * abs(k) + m1 * g2) * t4
    p = 2.0 * abs(gamma) * x1
    f1 = 4.0 + 2.0 * a * (x1 + 1.0) + 4.0 * p * (1.0 + m1) * (1.0 + e)
    if penalty is not None:
        f1 += 2.0 + 2.0 * abs(penalty) * (3.0 * p + 1.0) * (1.0 + e)
    f2 = (
        2.0 + a * a + 2.0 * a * b * (1.0 + 3.0 * x2) + b * b * (1.0 + 6.0 * t4)
        + 0.5 * t0 + (1.0 + 6.0 * a) * x2 * t4 + (1.0 + 6.0 * b) * t4 * t4
    )
    slack = 2.0 * _ETA * scale * scale + _FLOOR * ((scale + f1) * f1 + f2)
    if penalty is not None:
        w = penalty * g2
        slack = math.sqrt(slack) + _ETA * (scale + w * t4) + _FLOOR * (f1 + t4 + w)
    fits = scale * scale < 2.0**1020 and coef[0] < 2.0**1020 and coef[3] < 2.0**1020
    return coef, slack, fits


def _prefiltered_argmax(
    blocks: RowBlocks,
    top: tuple[float, float],
    mus: Sequence[complex],
    route: _Route = _BODY,
    penalty: float | None = None,
) -> list[tuple[float, int]]:
    """(max, first index) of |y - mu x^2| (with ``penalty``, of the refined
    |y - mu x^2| + penalty |x|^2, for one mu) for each mu, over the (x, y)
    that ``route`` makes of each block's jets: bit for bit what
    ``_argmax`` gives over those arrays, with (x, y) built and the
    functional evaluated only for the jets of a block that can still attain
    its maximum.

    In exact arithmetic y - mu x^2 = alpha c2 + beta c1^2 with beta =
    -(alpha k + mu gamma^2), so the squared functional is a dot product of
    four real rows that depend on neither mu nor the kernel, |c2|^2,
    Re(conj(c2) c1^2), Im(conj(c2) c1^2) and |c1^2|^2 (``_rows``, cached
    with the sample set), with [alpha^2, 2 alpha Re beta, -2 alpha Im beta,
    |beta|^2].  One matmul gives Q over a block for a chunk of mu.  A jet
    j survives when Q_j >= max Q - 2 s_mu; with a penalty it is
    sqrt(Q_j) + penalty gamma^2 |c1_j|^2 that is compared, within 2 (sqrt(s_mu)
    + eta (S + penalty gamma^2 max |c1|^2)) of its maximum.  Here
    s_mu = 2 eta S^2 + floor ((S + F1) F1 + F2), eta = 2^-40, floor =
    2^-1000 and S = |alpha| max |c2| + (|alpha k| + |mu| gamma^2) max |c1|^2,
    with |Re mu| + |Im mu| for |mu|.
    On the survivors only, the unchanged route (``Kernel.member``) and
    functional ufuncs give the values, and their maximum and first index;
    blocks merge as in ``_argmax``.  A chunk's Q holds at most
    ``_Q_BLOCKS`` * ``BLOCK`` doubles and its survivors are evaluated
    before the next chunk's, so no array grows with the number of mu
    beyond the mu themselves.

    Why no maximizer is dropped: against the exact |alpha c2 + beta c1^2|^2
    (with the rounded alpha and k that the route uses), two rounded
    quantities are compared.  Q_j carries the rounding of the rows, of the
    coefficients and of the matmul; the square of the route's value v_j
    carries the rounding of ``Kernel.member`` and of the functional.  For
    normal numbers each is within c u S^2 of the exact square, with c <
    256 and u = 2^-53, because every term of both is bounded by the
    matching term of S = |alpha| |c2| + (|alpha k| + |mu| gamma^2) |c1|^2
    (and S^2).  Products that underflow add at most 2^-1074 each, carried
    forward by the factors that follow them: that is F1 for v_j (through
    |alpha|, max |c1|, 2 gamma max |c1| >= |a2|, |mu|, the member jet's
    1 / (2E) and the penalty) and F2 for Q_j (through the coefficients and
    the rows).  So each lies within s_mu / 2 of the exact square, the
    normal part with more than 30x margin and the underflow part with more
    than 2^70x.  A j that attains max v then has Q_j >= v_j^2 - s_mu >=
    v_k^2 - s_mu >= Q_k - 2 s_mu for every k; with a penalty the same holds
    for the values, since |sqrt(Q_j) - |exact|| <= sqrt(|Q_j - exact^2|).

    The bound needs every square finite, and the filter pays only where it
    drops most jets, so some mu go through ``_argmax`` unchanged: all mu
    of a set whose largest |x|^2 = gamma^2 max |c1|^2 is NaN or lies
    outside [2^-450, 2^510) (NaN jets, targets from |b1| near 1e75 up or
    below about 1e-68, where the floor would outweigh the relative slack
    and subnormal products cost tens of times more than normal ones), and
    the mu of each chunk where S^2 or a coefficient is not below 2^1020
    (inf jets, or |mu| from about 1e154 up) or more than 1 / ``_SPARSE``
    of whose pairs survive (ties, or a quadratic that cancels).  The route
    runs over a whole block at most once, and only for such a chunk.

    The values are those of the whole block only if numpy rounds an
    element the same in every array length, which
    ``test_gathered_functional_equals_the_full_block`` checks (numpy 2.4.6
    on an AVX-512 x86_64 host) for the member jet and both functionals.
    It does for two elements and more, but its in-place complex multiply
    takes an unfused loop on a single element.  So a block of one jet
    (the last block of a set whose size is 1 mod ``BLOCK``, which random
    jets can give) goes through ``_argmax`` too, and a lone survivor is
    evaluated as a pair.
    """
    functional = _fs_functional if penalty is None else _refined_functional(penalty)
    t0, t4 = top
    usable = 2.0**-450 <= route.gamma * route.gamma * t4 < 2.0**510 and t0 < 2.0**1020 and t4 < 2.0**510
    quadratics = [_quadratic(mu, route, top, penalty) for mu in mus] if usable else []
    coefs, slacks, fits = zip(*quadratics) if quadratics else ((), (), ())
    coef, slack, mu = np.array(coefs), np.array(slacks), np.array(mus)
    weight = penalty * route.gamma * route.gamma if penalty is not None else 0.0
    best = [(-math.inf, -1)] * len(mus)
    work = np.empty(0)
    for start, c1, c2, rows in blocks:
        n = c1.size
        chunk = min(len(mus), max(1, _Q_BLOCKS * BLOCK // n))
        whole = None  # the route over the whole block, built once if a chunk needs it
        block: list[tuple[float, int]] = []
        for lo in range(0, len(mus), chunk):
            hi = min(lo + chunk, len(mus))
            keep = None
            if n > 1 and usable and all(fits[lo:hi]):
                if work.size < chunk * n:
                    work = np.empty(chunk * n)
                q = np.matmul(coef[lo:hi], rows[:4], out=work[: (hi - lo) * n].reshape(hi - lo, n))
                if hi - lo > 1:
                    # np.flatnonzero: the 2-D np.nonzero is about ten times slower
                    keep = np.flatnonzero(q >= (q.max(axis=1) - 2.0 * slack[lo:hi])[:, None])
                else:
                    v = q[0]
                    if penalty is not None:  # compare the values themselves
                        np.sqrt(np.maximum(v, 0.0, out=v), out=v)
                        v += weight * rows[4]
                    keep = (v >= v.max() - 2.0 * slack[lo]).nonzero()[0]
                if keep.size > q.size // _SPARSE:
                    keep = None
            if keep is None:
                if whole is None:
                    whole = [(0, *route.jets(c1, c2))]
                block += _argmax(whole, [functional(m) for m in mus[lo:hi]])
                continue
            if hi - lo == 1:
                keep = np.repeat(keep, 2) if keep.size == 1 else keep  # no lone jet
                values = functional(mus[lo])(*route.jets(c1[keep], c2[keep]))
                i = int(np.argmax(values))
                block.append((float(values[i]), int(keep[i])))
            else:
                row, col = np.divmod(keep, n)  # every row keeps its max, so no lone jet
                values = functional(mu[lo + row])(*route.jets(c1[col], c2[col]))
                starts = np.searchsorted(row, np.arange(hi - lo))
                top_v = np.maximum.reduceat(values, starts)
                first = np.minimum.reduceat(np.where(values == top_v[row], col, n), starts)
                block += zip(top_v.tolist(), first.tolist())
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
    cfg: OracleConfig,
    mu: complex,
    theoretical: float,
    branch: str,
    route: _Route = _BODY,
    penalty: float | None = None,
) -> VerificationRecord:
    """The record of one functional maximized over the sample set."""
    (best,) = _prefiltered_argmax(_row_blocks(cfg), _sample_set(cfg)[2], [mu], route, penalty)
    return _record(mu, theoretical, best, branch, cfg)


def brute_force_caratheodory_max(mu: complex, cfg: OracleConfig) -> VerificationRecord:
    """Maximize |c2 - mu c1^2| over the sampled body against the sharp
    value 2 max(1, |2 mu - 1|); mu may be complex, but must be finite."""
    return _check(cfg, mu, ma_minda_bound(mu), BRANCH_MAX_FORM)


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
        return _check(cfg, v, caratheodory_piecewise_bound(v), "piecewise")
    if not 0.0 < v < 1.0:
        raise DomainError(f"refined forms need 0 < v < 1, got v={v:g}")
    weight, branch = (v, "refined_low") if v <= 0.5 else (1.0 - v, "refined_high")
    return _check(cfg, v, 2.0, branch, penalty=weight)


def verify_fs(
    kind: ClassKind, mu: complex, phi: MaMindaTarget, params: PQParams, cfg: OracleConfig
) -> VerificationRecord:
    """Maximize |a3 - mu a2^2| over member jets built from the sampled body
    and compare with the max-form bound."""
    return max_form_check(Kernel.of(kind, params), mu, phi, cfg)


def max_form_check(k: Kernel, mu: complex, phi: MaMindaTarget, cfg: OracleConfig) -> VerificationRecord:
    """``verify_fs`` over the member jets of the kernel k, such as the
    Bernardi image kernel.  Its maximum is that of |a3 - mu a2^2| over the
    whole sample set, but the member jets are built only for the jets that
    the prefilter keeps (``_prefiltered_argmax``): 10 to 29 of the 11,688
    of the default set over the benchmark's inputs, the rotational ties of
    the grid and the extremal jets, unless a scale is out of the
    prefilter's range."""
    report = max_form_report(k, mu, phi)
    return _check(cfg, mu, report.value, report.branch, _member_route(k, phi))


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
    return _check(cfg, mu, phi.b1 / k.A, f"refined_{side}", _member_route(k, phi), penalty)


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

    One pass over the sample set serves every mu: the prefilter
    (``_prefiltered_argmax``) takes each block's cached rows once per chunk
    of mu, and builds member jets only for the (mu, jet) pairs within its
    proven slack of their mu's maximum, 342 to 612 (median 500) of the
    245,448 pairs of 21 mu over the default set of 11,688 jets (the
    benchmark's sweeps).  ``verify_fs`` goes through the same prefilter, so
    each record is the one it returns for that mu, and both are
    bit-identical to the plain evaluation of every jet wherever
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
    route = _member_route(k, phi)
    bests = iter(_prefiltered_argmax(_row_blocks(cfg), _sample_set(cfg)[2], live, route) if live else [])
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
