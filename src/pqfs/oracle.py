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
Caratheodory data c1, c2 and a partition of them into classes, for the
last config used; without random jets it does not depend on the seed).
Every check, single or sweep, goes through one prefilter
(``_prefiltered_argmax``).  In exact arithmetic the squared functional of
a jet is a dot product of four real rows of (c1, c2) with coefficients
built from mu and the kernel.  Every functional is unchanged by the
rotation (w1, w2) -> (e^it w1, e^2it w2), and the grid is closed under
some of them, so its jets fall into classes whose rows agree to about
6e-15: 556 classes of the 11,688 default jets (``_classes``).  One matmul
gives the quadratic over the classes' representatives for all the mu of a
sweep; only the members of the classes within a proven slack of the
maximum go through the member jet and the functional, a few dozen jets
per mu.  No check allocates an array as long as the sample set.  The
records are bit-identical to those of the plain evaluation over every jet
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


class _Classes(NamedTuple):
    """A partition of a sample set's jets into classes, for the prefilter.

    Class c holds the jets ``members[bounds[c] : bounds[c + 1]]``, in
    ascending order; its first member is its representative, whose
    ``_rows`` are column c of ``rows``.  ``spread`` is, per row, the largest
    |row_j - row_rep| of a jet j from its representative over the set.
    """

    rows: np.ndarray
    spread: np.ndarray
    members: np.ndarray
    bounds: np.ndarray


def _classes(n: int, c1: np.ndarray, c2: np.ndarray) -> tuple[_Classes, tuple[float, float]]:
    """The ``_Classes`` of the sample set (c1, c2) whose first jets are the
    grid at density n, and its ``_top``.

    Every functional the oracle checks is unchanged by the rotation (w1, w2)
    -> (e^it w1, e^2it w2), and the grid is closed under the rotations by
    2 pi / N, N = n - 1: they take the angle indices (j, k) of arg w1 and
    arg w2 to (j + 1, k + 2) mod N.  So the grid jets are keyed (r, (k - 2j)
    mod N), r the radius index, and each key is a class: N jets (j, (m + 2j)
    mod N) on each ring 0 < r < n - 1, one jet per k at w1 = 0 (only j = 0
    is in the grid), and at w2 = 0 (only k = 0) the jets j and j + N/2 when
    N is even, else one jet per j.  The jets after the grid, random and
    extremal, are a class each.  The members are laid out by that index
    arithmetic (the grid's order is radius, then j, then k), with no sort:
    556 classes at density 24 with the extremal jets, 22 * 23 on the
    rings, 23 + 23 at the ends and 4.

    The rows of the jets after the grid go straight to the
    representatives'; the grid's rows are a temporary.  A ring's jet (j, k)
    has the representative (0, (k - 2j) mod N), so the spread is taken a
    few rings at a time, with no gather of the rows and temporaries under
    glibc's mmap threshold (see ``BLOCK``): larger ones would be mapped and
    faulted in again on every build.
    """
    N = n - 1
    rings = (n - 2) * N  # classes on the rings 0 < r < n - 1
    last = N + rings * N  # the first jet at w2 = 0
    half = N // 2 if N % 2 == 0 else N  # classes at w2 = 0
    grid, cut = last + N, N + rings + half  # the grid's jets and classes
    # the kept arrays come first (see _sample_jets)
    members = np.empty(c1.size, np.intp)
    bounds = np.empty(cut + c1.size - grid + 1, np.intp)
    reps = np.empty((5, bounds.size - 1))
    members[:N] = bounds[:N] = np.arange(N)
    j = np.arange(N)
    pattern = j * N + (j[:, None] + 2 * j) % N  # [m, j]: jet (j, (m + 2j) mod N) of its ring
    np.add((N + N * N * np.arange(n - 2))[:, None], pattern.ravel(), out=members[N:last].reshape(n - 2, N * N))
    bounds[N : N + rings] = N + N * np.arange(rings)
    members[last:grid] = (last + np.arange(half)[:, None] + half * np.arange(N // half)).ravel()
    bounds[N + rings : cut] = last + N // half * np.arange(half)
    members[grid:] = np.arange(grid, c1.size)
    bounds[cut:] = np.arange(grid, c1.size + 1)
    _rows(c1[grid:], c2[grid:], out=reps[:, cut:])
    rows = _rows(c1[:grid], c2[:grid])
    np.take(rows, members[bounds[:cut]], axis=1, out=reps[:, :cut])
    ring_rows = rows[:, N:last].reshape(5, n - 2, N, N)  # [row, r, j, k]
    ring_reps = reps[:, N : N + rings].reshape(5, n - 2, N)  # [row, r, m]
    rep_of = (j - 2 * j[:, None]) % N  # [j, k] -> m
    spread = np.zeros(5)
    step = max(1, 2 * BLOCK // (5 * N * N))  # rings whose rows fit the bytes of a complex block
    for r in range(0, n - 2, step):
        d = np.take(ring_reps[:, r : r + step], rep_of, axis=2)
        np.abs(np.subtract(ring_rows[:, r : r + step], d, out=d), out=d)
        np.maximum(spread, d.reshape(5, -1).max(axis=1), out=spread)
    if N % 2 == 0:  # at w2 = 0 the jets j and j + N/2 share a class
        d = np.abs(rows[:, last + half : grid] - rows[:, last : last + half])
        np.maximum(spread, d.max(axis=1), out=spread)
    return _Classes(reps, spread, members, bounds), _top(rows, reps[:, cut:])


@lru_cache(maxsize=1)
def _sample_jets(
    grid_density: int, random_samples: int, include_extremals: bool, seed: int | None
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], _Classes, tuple[float, float]]:
    """((w1, w2, c1, c2), classes, top) of the whole sample set, read-only.

    The set is the grid (``_grid``), then ``random_samples`` random jets,
    then the extremal jets (1, 0), (0, 1) and their negatives when
    requested.  The random jets are one draw of rows of four seeded uniform
    variates through ``schwarz_jets_from_rows`` (w1 uniform on the disc,
    then w2 uniform on the disc of radius 1 - |w1|^2), so a larger budget
    extends a smaller one.  ``classes`` is the prefilter's partition of the
    set (``_classes``), and ``top`` is (max |c2|^2, max |c1|^2) over the set.
    Only the last set is kept (11,688 jets, 0.75 MB by default plus 0.12 MB
    for its 556 classes; 6.5 MB plus 0.9 MB for the grid alone at density
    48).
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
    classes, top = _classes(n, c1, c2)
    for a in (buffer, *jets, *classes):
        a.setflags(write=False)
    return jets, classes, top


def _caratheodory_samples(cfg: OracleConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(w1, w2, c1, c2) of the sample set of ``cfg``.  The seed only
    matters with random jets, so without them every seed shares one set."""
    return _sample_set(cfg)[0]


def _sample_set(cfg: OracleConfig) -> tuple[tuple[np.ndarray, ...], _Classes, tuple[float, float]]:
    """The cached ``_sample_jets`` entry of ``cfg``: its jets, classes and top."""
    seed = cfg.seed if cfg.random_samples else None
    return _sample_jets(cfg.grid_density, cfg.random_samples, cfg.include_extremals, seed)


def _rows(c1: np.ndarray, c2: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The real rows of jets (c1, c2) that the prefilter's quadratic reads,
    one (5, n) array (``out`` if given): |c2|^2, Re(conj(c2) c1^2),
    Im(conj(c2) c1^2), |c1^2|^2 and |c1|^2.  Built ``BLOCK`` jets at a time,
    so that no other temporary grows with the set."""
    rows = np.empty((5, c1.size)) if out is None else out
    for lo in range(0, c1.size, BLOCK):
        x, y, r = c1[lo : lo + BLOCK], c2[lo : lo + BLOCK], rows[:, lo : lo + BLOCK]
        s = x * x
        np.add(y.real * y.real, y.imag * y.imag, out=r[0])
        np.add(y.real * s.real, y.imag * s.imag, out=r[1])
        np.subtract(y.real * s.imag, y.imag * s.real, out=r[2])
        np.add(s.real * s.real, s.imag * s.imag, out=r[3])
        np.add(x.real * x.real, x.imag * x.imag, out=r[4])
    return rows


def _top(*rows: np.ndarray) -> tuple[float, float]:
    """(max |c2|^2, max |c1|^2) over the jets of one or more rows arrays;
    NaN if a jet is NaN."""
    t0, t4 = np.max([r[::4].max(axis=1, initial=0.0) for r in rows], axis=0).tolist()
    return t0, t4


Blocks = Iterator[tuple[int, np.ndarray, np.ndarray]]
RowBlocks = Iterator[tuple]


def _caratheodory_blocks(cfg: OracleConfig) -> Blocks:
    """(start, c1, c2) for views of at most ``BLOCK`` jets of the cached
    sample set; ``start`` is the index of the block's first jet in it."""
    _, _, c1, c2 = _caratheodory_samples(cfg)
    for start in range(0, c1.size, BLOCK):
        yield start, c1[start : start + BLOCK], c2[start : start + BLOCK]


def _row_blocks(cfg: OracleConfig) -> RowBlocks:
    """The cached sample set as the one block (0, c1, c2, rows, spread,
    members, bounds) that ``_prefiltered_argmax`` takes: its jets with
    their ``_Classes``."""
    (_, _, c1, c2), classes, _ = _sample_set(cfg)
    return iter([(0, c1, c2, *classes)])


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


def _no_lone(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y), each repeated twice if they hold one jet: numpy's in-place
    complex multiply takes an unfused loop on a single element, so a lone
    jet would get other bits than inside a longer array."""
    return (np.repeat(x, 2), np.repeat(y, 2)) if x.size == 1 else (x, y)


def _argmax(blocks: Blocks, functionals: Sequence[Functional]) -> list[tuple[float, int]]:
    """(max, first index) of each functional over all blocks, in one pass.

    Each functional maps the two arrays of a block to real values; within
    a block ``np.argmax`` picks the first maximum.  A block of one jet is
    evaluated as a pair of it (``_no_lone``).
    """
    best = [(-math.inf, -1)] * len(functionals)
    for start, x, y in blocks:
        x, y = _no_lone(x, y)
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

#: A mu whose kept classes hold more than 1 / ``_SPARSE`` of the jets of
#: their class block is evaluated whole: gathering costs more per jet than
#: that saves.
_SPARSE = 8

#: The prefilter takes mu in chunks whose quadratic Q, and whose kept
#: (mu, jet) pairs, come to at most this many times ``BLOCK`` (512 KB of Q),
#: whatever the number of mu.
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


def _margins(
    coefs: Sequence[tuple[float, float, float, float]],
    slacks: Sequence[float],
    spread: np.ndarray,
    weight: float | None,
) -> np.ndarray:
    """2 s_mu + 2 d_mu for each mu of ``coefs`` and ``slacks``, with d_mu =
    D_mu + s_mu / 4 and D_mu = sum_i |coef_i| spread_i; with a penalty
    ``weight`` (and its slack sigma_mu for s_mu), d_mu = sqrt(D_mu) + weight
    spread_4 + sigma_mu / 4.  See ``_prefiltered_argmax``."""
    s0, s1, s2, s3, s4 = spread.tolist()
    margins = []
    for (a0, a1, a2, a3), slack in zip(coefs, slacks):
        d = abs(a0) * s0 + abs(a1) * s1 + abs(a2) * s2 + abs(a3) * s3
        if weight is not None:
            d = math.sqrt(d) + weight * s4
        margins.append(2.5 * slack + 2.0 * d)
    return np.array(margins)


def _kept_classes(
    coef: np.ndarray, margin: np.ndarray, rows: np.ndarray, weight: float | None, out: np.ndarray
) -> np.ndarray:
    """Flat indices i C + c of the (mu, class) pairs that the prefilter
    keeps, for the mu of ``coef`` and ``margin`` (``_margins``) and the C
    classes whose representatives have ``rows``: Q_c within the margin of
    the largest, or with a penalty ``weight`` (one mu) the values sqrt(Q_c)
    + weight |c1|^2.  ``out`` receives Q."""
    q = np.matmul(coef, rows[:4], out=out)
    if weight is not None:
        np.sqrt(np.maximum(q, 0.0, out=q), out=q)
        q += weight * rows[4]
    return np.flatnonzero(q >= (q.max(axis=1) - margin)[:, None])


#: The spread of a block whose every jet is a class of its own.
_NO_SPREAD = np.zeros(5)


def _gather(members: np.ndarray, first: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The jets of the classes whose members start at ``first`` in
    ``members`` and number ``sizes``, class by class."""
    ends = sizes.cumsum()
    return members[np.arange(ends[-1]) + np.repeat(first - ends + sizes, sizes)]


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
    functional evaluated only for the jets that can still attain the
    maximum.

    A block is (start, c1, c2, rows, spread, members, bounds): its jets and
    a ``_Classes`` partition of them, such as the cached sample set
    (``_row_blocks``), or (start, c1, c2, rows) with the ``_rows`` of its
    jets, each a class of its own.

    In exact arithmetic y - mu x^2 = alpha c2 + beta c1^2 with beta =
    -(alpha k + mu gamma^2), so the squared functional is a dot product of
    four real rows that depend on neither mu nor the kernel, |c2|^2,
    Re(conj(c2) c1^2), Im(conj(c2) c1^2) and |c1^2|^2 (``_rows``), with
    coef = [alpha^2, 2 alpha Re beta, -2 alpha Im beta, |beta|^2].  Jet by
    jet, j would survive when Q_j >= max Q - 2 s_mu; with a penalty w =
    penalty gamma^2 it is sqrt(Q_j) + w |c1_j|^2 that is compared, within
    2 sigma_mu = 2 (sqrt(s_mu) + eta (S + w max |c1|^2) + floor (F1 + max
    |c1|^2 + w)) of its maximum.  Here s_mu = 2 eta S^2 + floor ((S + F1) F1
    + F2), eta = 2^-40, floor = 2^-1000 and S = |alpha| max |c2| + (|alpha
    k| + |mu| gamma^2) max |c1|^2, with |Re mu| + |Im mu| for |mu|.
    The prefilter applies that rule to classes instead: one matmul gives Q
    over the representatives of at most ``BLOCK`` classes for a chunk of
    mu, and a class is kept when its Q is at least the largest less 2 s_mu
    and 2 d_mu, d_mu = D_mu + s_mu / 4 with D_mu = sum_i |coef_i| spread_i
    (``_margins``, ``_kept_classes``); with a penalty, its value within
    2 sigma_mu and 2 (sqrt(D_mu) + w spread_4 + sigma_mu / 4) of the
    largest.  The grid's rotation classes make this cheap: at density 24,
    556 representatives stand for 11,688 jets.  On the members of the kept
    classes only, the unchanged route (``Kernel.member``) and functional
    ufuncs give the values, and their maximum and the least index that
    attains it; across class blocks the larger maximum wins, on a tie the
    lesser index, and blocks merge as in ``_argmax``.  A chunk's Q holds at
    most ``_Q_BLOCKS`` * ``BLOCK`` doubles, it keeps at most as many (mu,
    jet) pairs, and they are evaluated before the next chunk's, so no array
    grows with the number of mu beyond the mu themselves.

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

    Why the classes keep every jet that the rule keeps, whatever the
    partition: let j pass the rule, c be its class and r any class of the
    class block; Q_c and Q_r are the Q of their representatives, Q_j and
    Q'_r the Q of those jets per jet.  Each is a dot product of coef with
    four rows, rounded by at most rho < 2^-49 S^2 + 2^-1072 because each
    term is bounded by the matching term of S^2.  The rows of j and of c's
    representative differ by at most ``spread``, so |Q_j - Q_c| <= D'_mu +
    2 rho with D'_mu = sum_i |coef_i| |row_ij - row_i,rep| <= D_mu (1 +
    2^-48) + 2^-1071 (the rounding of D_mu), and |Q'_r - Q_r| <= 2 rho.
    So Q_c >= Q_j - D'_mu - 2 rho >= Q'_r - 2 s_mu - D'_mu - 2 rho >= Q_r
    - 2 s_mu - D'_mu - 4 rho >= Q_r - 2 s_mu - 2 d_mu, as 4 rho + 2^-1071
    < s_mu / 2.  With a penalty the square roots differ by at most
    sqrt(|Q_j - Q_c|) <= sqrt(D'_mu) + sqrt(2 rho) and sqrt(2 rho), the
    terms w |c1|^2 by w spread_4, and the roundings of the square roots,
    products and sums of the four values by less than 16 u (S + w max
    |c1|^2) + 2^-1071, and sqrt(D'_mu) <= 2 sqrt(D_mu) + 2^-535; 2 sqrt(2
    rho), 2^-535 and those roundings come to less than sigma_mu / 2, which
    is at least sqrt(s_mu) / 2 and eta (S + w max |c1|^2) / 2.  A
    representative is a jet, so a class of one has spread 0, and the rule
    per jet is the finest partition.

    The bound needs every square finite, and the filter pays only where it
    drops most jets, so some mu go through ``_argmax`` unchanged, once per
    block for all of them: all mu of a set whose largest |x|^2 = gamma^2
    max |c1|^2 is NaN or lies outside [2^-450, 2^510) (NaN jets, targets
    from |b1| near 1e75 up or below about 1e-68, where the floor would
    outweigh the relative slack and subnormal products cost tens of times
    more than normal ones), each mu where S^2 or a coefficient is not
    below 2^1020 (inf jets, or |mu| from about 1e154 up), and each mu
    whose kept classes in a class block hold more than 1 / ``_SPARSE`` of
    that block's jets (ties, or a quadratic that cancels).

    The values are those of the whole block only if numpy rounds an
    element the same in every array length, which
    ``test_gathered_functional_equals_the_full_block`` checks (numpy 2.4.6
    on an AVX-512 x86_64 host) for the member jet and both functionals.
    It does for two elements and more, but its in-place complex multiply
    takes an unfused loop on a single element.  So a block of one jet goes
    through ``_argmax``, and ``_argmax``, the plain path and the kept jets
    evaluate a lone jet as a pair of it (``_no_lone``).
    """
    functional = _fs_functional if penalty is None else _refined_functional(penalty)
    t0, t4 = top
    usable = 2.0**-450 <= route.gamma * route.gamma * t4 < 2.0**510 and t0 < 2.0**1020 and t4 < 2.0**510
    quadratics = [_quadratic(mu, route, top, penalty) for mu in mus] if usable else []
    coefs, slacks, fits = zip(*quadratics) if quadratics else ((), (), ())
    coef, mu = np.array(coefs).reshape(-1, 4), np.array(mus)
    weight = penalty * route.gamma * route.gamma if penalty is not None else None
    best = [(-math.inf, -1)] * len(mus)
    work = np.empty(0)
    for start, c1, c2, rows, *index in blocks:
        n, classes = c1.size, rows.shape[1]
        spread, members, bounds = index or (_NO_SPREAD, np.arange(n), np.arange(n + 1))
        part = [(-math.inf, -1)] * len(mus)
        plain = [not ok for ok in fits] if n > 1 and usable else [True] * len(mus)
        live = [k for k, p in enumerate(plain) if not p]
        margin = _margins(coefs, slacks, spread, weight) if live else None
        for a in range(0, classes if live else 0, BLOCK):
            b = min(a + BLOCK, classes)
            size = int(bounds[b] - bounds[a])  # jets of these classes
            chunk = max(1, _Q_BLOCKS * BLOCK // max(b - a, size // _SPARSE))
            for lo in range(0, len(live), chunk):
                at = live[lo : lo + chunk]
                if work.size < len(at) * (b - a):
                    work = np.empty(min(chunk, len(live)) * (b - a))
                q = work[: len(at) * (b - a)].reshape(len(at), b - a)
                keep = _kept_classes(coef[at], margin[at], rows[:, a:b], weight, q)
                if len(at) == 1:  # one mu: no grouping of the pairs by mu
                    (k,) = at
                    first = bounds[keep + a]
                    sizes = bounds[keep + a + 1] - first
                    plain[k] = plain[k] or sizes.sum() * _SPARSE > size
                    if plain[k]:
                        continue
                    jets = _gather(members, first, sizes)
                    jets = np.repeat(jets, 2) if jets.size == 1 else np.sort(jets)
                    values = functional(mus[k])(*route.jets(c1[jets], c2[jets]))
                    i = int(values.argmax())
                    found = [(k, float(values[i]), int(jets[i]))]
                else:
                    at = np.array(at)
                    row, cls = np.divmod(keep, b - a)
                    first = bounds[cls + a]
                    sizes = bounds[cls + a + 1] - first
                    count = np.bincount(row, sizes, minlength=at.size).astype(np.intp)
                    dense = count * _SPARSE > size
                    for k in at[dense].tolist():
                        plain[k] = True
                    kept = ~dense[row]
                    row, first, sizes, count = row[kept], first[kept], sizes[kept], count[~dense]
                    if not row.size:
                        continue
                    jets, row = _gather(members, first, sizes), np.repeat(row, sizes)
                    if jets.size == 1:
                        jets, row, count = np.repeat(jets, 2), np.repeat(row, 2), 2 * count
                    values = functional(mu[at[row]])(*route.jets(c1[jets], c2[jets]))
                    starts = count.cumsum() - count
                    tops = np.maximum.reduceat(values, starts)
                    firsts = np.minimum.reduceat(np.where(values == np.repeat(tops, count), jets, n), starts)
                    found = zip(at[~dense].tolist(), tops.tolist(), firsts.tolist())
                for k, v, i in found:
                    if not plain[k] and (v > part[k][0] or (v == part[k][0] and i < part[k][1])):
                        part[k] = (v, i)
        fallback = [k for k, p in enumerate(plain) if p]
        if fallback:
            views = (
                (s, *route.jets(*_no_lone(c1[s : s + BLOCK], c2[s : s + BLOCK]))) for s in range(0, n, BLOCK)
            )
            for k, r in zip(fallback, _argmax(views, [functional(mus[k]) for k in fallback])):
                part[k] = r
        _merge(best, start, part)
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
    whole sample set, but the member jets are built only for the members
    of the classes that the prefilter keeps (``_prefiltered_argmax``): 25
    of the 556 classes of the default set, 25 of its 11,688 jets, for every
    check over the benchmark's inputs (the 23 jets at w1 = 0 or at w2 = 0,
    which tie under rotation, and two extremal jets), unless a scale is
    out of the prefilter's range."""
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
    (``_prefiltered_argmax``) takes the rows of the set's classes once per
    chunk of mu, and builds member jets only for the members of the (mu,
    class) pairs within its proven slack of their mu's maximum: 525 of the
    11,676 pairs of 21 mu and the default set's 556 classes, 525 (mu, jet)
    pairs of 245,448, in every one of the benchmark's sweeps.  ``verify_fs``
    goes through the same prefilter, so
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
