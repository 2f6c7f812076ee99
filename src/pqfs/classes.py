"""Second-order coefficient jets of deformed starlike and convex functions.

A normalized function f(z) = z + a2 z^2 + a3 z^3 + ... belongs to the
deformed starlike class when z D f / f is subordinate to a target phi,
and to the deformed convex class when D(z D f) / D f is, where D is the
two-parameter quantum derivative.  Subordination pins (a2, a3) as
explicit functions of the target coefficients (b1, b2) and of the first
two coefficients of the Schwarz function that witnesses it, equivalently
of the Caratheodory data (c1, c2).  This module builds those jets,
checks them against the defining subordination by direct series algebra,
and holds ``Kernel``, the one place the jet, bound and threshold formulas
of a class kind are written, next to ``printed_thresholds``, the paper's
printed threshold normalization.

All types are immutable and every constructor is re-entrant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from .pq_core import DomainError, PQParams, TruncatedSeries, pq_derivative, pq_number

ClassKind = Literal["starlike", "convex"]

#: Names of the refined threshold windows, "<kind>_<side>".
REFINED_WINDOWS = ("starlike_low", "starlike_high", "convex_low", "convex_high")

#: Slack admitted when testing membership in the closed feasibility bodies,
#: so that boundary points survive roundtrips through floating point.
FEASIBILITY_TOL = 1e-12


@dataclass(frozen=True)
class MaMindaTarget:
    """Target function phi(z) = 1 + b1 z + b2 z^2 + ... by its coefficients.

    The coefficients are real and finite; b1 must be nonzero.  Only b1
    and b2 enter the bound formulas, but further coefficients are kept so
    composed expansions of phi(w(z)) stay available at higher order.
    """

    b: tuple[float, ...]

    def __init__(self, b: tuple[float, ...] | list[float]):
        bs = tuple(float(x) for x in b)
        if not bs:
            raise DomainError("target needs at least the coefficient b1")
        if not all(math.isfinite(x) for x in bs):
            raise DomainError(f"target coefficients must be finite, got {bs!r}")
        if bs[0] == 0.0:
            raise DomainError("target needs b1 != 0")
        object.__setattr__(self, "b", bs)

    @classmethod
    def koebe(cls) -> "MaMindaTarget":
        """The half-plane target (1+z)/(1-z) truncated to (b1, b2) = (2, 2)."""
        return cls((2.0, 2.0))

    @property
    def b1(self) -> float:
        return self.b[0]

    @property
    def b2(self) -> float:
        return self.b[1] if len(self.b) > 1 else 0.0

    def series(self, order: int | None = None) -> TruncatedSeries:
        if order is None:
            order = TruncatedSeries.DEFAULT_ORDER
        return TruncatedSeries([1.0] + list(self.b), order=order)


@dataclass(frozen=True)
class SchwarzJet:
    """First two coefficients (w1, w2) of a Schwarz function w.

    Feasible exactly when |w1| <= 1 and |w2| <= 1 - |w1|^2, the sharp
    second-order coefficient body of self-maps of the disc fixing 0.
    """

    w1: complex
    w2: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "w1", complex(self.w1))
        object.__setattr__(self, "w2", complex(self.w2))
        # written "not x <= cap" so that a NaN coefficient is refused too
        r1 = abs(self.w1)
        if not r1 <= 1.0 + FEASIBILITY_TOL:
            raise DomainError(f"Schwarz jet needs |w1| <= 1, got |w1|={r1:.6g}")
        cap = 1.0 - r1 * r1
        if not abs(self.w2) <= cap + FEASIBILITY_TOL:
            raise DomainError(
                f"Schwarz jet needs |w2| <= 1 - |w1|^2, got |w2|={abs(self.w2):.6g} > {cap:.6g}"
            )

    def series(self, order: int | None = None) -> TruncatedSeries:
        if order is None:
            order = TruncatedSeries.DEFAULT_ORDER
        return TruncatedSeries([0.0, self.w1, self.w2], order=order)


@dataclass(frozen=True)
class CaratheodoryJet:
    """Coefficients (c1, c2) of a function 1 + c1 z + c2 z^2 + ... with
    positive real part, constrained to the sharp body |c1| <= 2 and
    |c2 - c1^2/2| <= 2 - |c1|^2/2."""

    c1: complex
    c2: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "c1", complex(self.c1))
        object.__setattr__(self, "c2", complex(self.c2))
        if not abs(self.c1) <= 2.0 + 2 * FEASIBILITY_TOL:
            raise DomainError(f"Caratheodory jet needs |c1| <= 2, got |c1|={abs(self.c1):.6g}")
        slack = 2.0 - abs(self.c1) ** 2 / 2.0
        if not abs(self.c2 - self.c1**2 / 2.0) <= slack + 2 * FEASIBILITY_TOL:
            raise DomainError(
                "Caratheodory jet needs |c2 - c1^2/2| <= 2 - |c1|^2/2, got "
                f"{abs(self.c2 - self.c1 ** 2 / 2.0):.6g} > {slack:.6g}"
            )

    @classmethod
    def from_schwarz(cls, j: SchwarzJet) -> "CaratheodoryJet":
        """Second-order data of (1 + w)/(1 - w): c1 = 2 w1, c2 = 2 w1^2 + 2 w2."""
        return cls(2.0 * j.w1, 2.0 * j.w1**2 + 2.0 * j.w2)

    def schwarz(self) -> SchwarzJet:
        """Invert the correspondence: w1 = c1/2, w2 = (c2 - c1^2/2)/2."""
        return SchwarzJet(self.c1 / 2.0, (self.c2 - self.c1**2 / 2.0) / 2.0)


def caratheodory_from_schwarz(j: SchwarzJet) -> CaratheodoryJet:
    return CaratheodoryJet.from_schwarz(j)


@dataclass(frozen=True)
class MemberJet:
    """The pair (a2, a3) of a member of the class ``kind``."""

    a2: complex
    a3: complex
    kind: ClassKind


def deformation_numbers(params: PQParams) -> tuple[float, float]:
    """Return ([2], [3]) and reject the regime where the formulas degenerate.

    The member constructors and every bound divide by [2]-1 and [3]-1, so
    the module refuses parameters with [2] <= 1 (that is p + q <= 1) or
    [3] <= 1 rather than guessing a continuation.
    """
    two = pq_number(2, params)
    three = pq_number(3, params)
    if two <= 1.0 or three <= 1.0:
        raise DomainError(
            f"need [2] > 1 (p + q > 1) and [3] > 1; got [2]={two:.6g}, [3]={three:.6g} "
            f"for (p, q)=({params.p:g}, {params.q:g})"
        )
    return two, three


class Kernel(NamedTuple):
    """The scales every closed form of one class kind is built from.

    (A, B, E) and K = A B / E^2 depend only on the kind and on the deformed
    integers [2], [3]:

        starlike:  A = [3]-1,        B = [2]-1,  E = [2]-1
        convex:    A = [3]([3]-1),   B = [2]-1,  E = [2]([2]-1)

    The member jet, v(mu), the max-form value, the thresholds, the
    three-branch selection and the refined windows are written here once,
    for Python scalars and numpy arrays alike.  ``of`` builds a kernel from
    (p, q); ``from_numbers`` from integers the caller has already checked
    to exceed 1; ``scaled`` to the jets (L2 a2, L3 a3) of an operator image,
    such as the Bernardi image class.
    """

    kind: ClassKind
    A: float
    B: float
    E: float

    @property
    def K(self) -> float:
        return self.A * self.B / (self.E * self.E)

    @classmethod
    def of(cls, kind: ClassKind, params: PQParams) -> "Kernel":
        two, three = deformation_numbers(params)
        return cls.from_numbers(kind, two, three)

    @classmethod
    def from_numbers(cls, kind: ClassKind, two: float, three: float) -> "Kernel":
        if kind == "starlike":
            A, E = three - 1.0, two - 1.0
        elif kind == "convex":
            A, E = three * (three - 1.0), two * (two - 1.0)
        else:
            raise DomainError(f"unknown class kind {kind!r}")
        # tuple.__new__ skips the generated __new__: a kernel is built on every call
        return tuple.__new__(cls, (kind, A, two - 1.0, E))

    def scaled(self, L2: float, L3: float) -> "Kernel":
        """The kernel of the mapped jets (L2 a2, L3 a3): E/L2 and A/L3, B
        unchanged, so K becomes K L2^2 / L3."""
        if not (0.0 < L2 < math.inf and 0.0 < L3 < math.inf):
            raise DomainError(f"kernel multipliers must be finite and > 0, got L2={L2!r}, L3={L3!r}")
        return tuple.__new__(Kernel, (self.kind, self.A / L3, self.B, self.E / L2))

    def member(self, c1, c2, phi: MaMindaTarget):
        """(a2, a3) of the member with Caratheodory data (c1, c2):

            a2 = b1 c1 / (2E),   a3 = b1 / (2A) (c2 - k c1^2),
            k = (1 - b2/b1 - b1/B) / 2.
        """
        alpha, k, _ = self.member_scalars(phi)
        return phi.b1 * c1 / (2.0 * self.E), alpha * (c2 - k * c1 * c1)

    def member_scalars(self, phi: MaMindaTarget) -> tuple[float, float, float]:
        """(alpha, k, gamma) = (b1 / (2A), (1 - b2/b1 - b1/B) / 2, b1 / (2E)),
        rounded as ``member`` uses them: a2 = gamma c1 and a3 = alpha (c2 -
        k c1^2) in exact arithmetic, so a3 - mu a2^2 = alpha c2 + beta c1^2
        with beta = -(alpha k + mu gamma^2)."""
        b1 = phi.b1
        return b1 / (2.0 * self.A), 0.5 * (1.0 - phi.b2 / b1 - b1 / self.B), b1 / (2.0 * self.E)

    def arg(self, mu: complex, phi: MaMindaTarget) -> complex:
        """arg = b2/b1 + (b1/B)(1 - K mu), the quantity whose modulus is
        compared with 1 inside the max-form bound; equals 1 - 2 v(mu).

        A NaN or infinite mu is a domain error here, the one place every form
        goes through: max(1, |arg|) would otherwise turn a NaN arg into 1."""
        if not cmath.isfinite(mu):
            raise DomainError(f"mu must be finite, got mu={mu!r}")
        return phi.b2 / phi.b1 + (phi.b1 / self.B) * (1.0 - self.K * mu)

    def v(self, mu: complex, phi: MaMindaTarget) -> complex:
        """v(mu), with a3 - mu a2^2 = (b1 / 2A)(c2 - v c1^2)."""
        return (1.0 - self.arg(mu, phi)) / 2.0

    def max_form(self, mu: complex, phi: MaMindaTarget) -> float:
        """The sharp bound (|b1| / A) max(1, |arg|); mu may be complex."""
        return abs(phi.b1) / self.A * max(1.0, abs(self.arg(mu, phi)))

    def thresholds(self, phi: MaMindaTarget) -> tuple[float, float, float]:
        """(t1, t2, t3): the mu values where v(mu) crosses 0, 1 and 1/2.

        t1 and t2 bound the flat mid branch of the piecewise bound; t3 is
        where the refined inequality switches from its low form to its high
        form.  Ordering t1 <= t3 <= t2 holds whenever b1 > 0.
        """
        # v(mu) crosses t at (b1^2 + B (b2 + (2t - 1) b1)) / (K b1^2), t = 0, 1, 1/2
        return _crossings(phi, self.K, 1.0, self.B)

    def select(
        self, mu: float, arg: float, phi: MaMindaTarget, t: tuple[float, float, float]
    ) -> tuple[int, float]:
        """(branch, value) of the three-branch bound at real mu, for the
        thresholds t:

            0: (b1/A) arg  (mu < t1),    1: b1/A  (t1 <= mu <= t2),
            2: -(b1/A) arg  (mu > t2).
        """
        cap = phi.b1 / self.A
        if mu < t[0]:
            return 0, cap * arg
        if mu <= t[1]:
            return 1, cap
        return 2, -cap * arg

    def refined_penalty(
        self, mu: float, phi: MaMindaTarget, window: str | None = None
    ) -> tuple[str, float]:
        """("low" or "high", penalty) of the refined inequality at real mu.

        For t1 < mu <= t3 ("low") the functional gains (mu - t1)|a2|^2, for
        t3 <= mu < t2 ("high") it gains (t2 - mu)|a2|^2.  A named window
        (such as "starlike_low") must contain mu; without one, the window
        containing mu is used.  Outside the window the inequality is not
        asserted and a domain error identifies the admissible range.  A
        window must be one of ``REFINED_WINDOWS`` and name the kernel's kind.
        """
        if window is not None:
            if window not in REFINED_WINDOWS:
                raise DomainError(f"unknown refined window {window!r}, expected one of {REFINED_WINDOWS}")
            if window not in (f"{self.kind}_low", f"{self.kind}_high"):
                raise DomainError(f"window {window!r} does not match a {self.kind} member jet")
        t1, t2, t3 = self.thresholds(phi)
        low, high = t1 < mu <= t3, t3 <= mu < t2
        side = window.rsplit("_", 1)[1] if window else ("low" if low else "high")
        if side == "low" and low:
            return side, mu - t1
        if side == "high" and high:
            return side, t2 - mu
        if window is None:
            raise DomainError(
                f"refined forms need mu in ({t1:.6g}, {t2:.6g}) split at {t3:.6g}, got mu={mu:.6g}"
            )
        if side == "low":
            raise DomainError(f"{window} needs mu in ({t1:.6g}, {t3:.6g}], got mu={mu:.6g}")
        raise DomainError(f"{window} needs mu in [{t3:.6g}, {t2:.6g}), got mu={mu:.6g}")

    @staticmethod
    def refined_functional(a2, a3, mu: float, penalty: float):
        """|a3 - mu a2^2| + penalty |a2|^2, capped by b1 / A inside its window."""
        return abs(a3 - mu * a2 * a2) + penalty * abs(a2) ** 2


def _crossings(phi: MaMindaTarget, den: float, head: float, scale: float) -> tuple[float, float, float]:
    """(head b1^2 + scale (b2 + (2t - 1) b1)) / (den b1^2) at t = 0, 1, 1/2,
    where 2t - 1 is exactly -1, 1 and 0."""
    b1, b2 = phi.b1, phi.b2
    # the piecewise and refined results order real mu, which needs b1 > 0, b2 >= 0
    if not (b1 > 0.0 and b2 >= 0.0):
        raise DomainError(
            f"piecewise thresholds need b1 > 0 and b2 >= 0, got b1={b1:g}, b2={b2:g}"
        )
    den = den * b1 * b1
    head = head * b1 * b1
    n1, n2, n3 = head + scale * (b2 - b1), head + scale * (b2 + b1), head + scale * b2
    # b1 * b1 underflows to 0 for tiny targets and overflows for huge ones, and
    # NaN thresholds send every mu to the last branch.  On sympy symbols
    # den == 0.0 is False, and t - t is 0 exactly for finite t (inf and NaN
    # give NaN): unlike math.isfinite it also accepts a symbolic kernel.
    if den == 0.0:
        raise DomainError(f"thresholds are not finite for b1={b1:g}, b2={b2:g}: b1^2 underflows to 0")
    t1, t2, t3 = n1 / den, n2 / den, n3 / den
    if not (t1 - t1 == 0 and t2 - t2 == 0 and t3 - t3 == 0):
        raise DomainError(f"thresholds are not finite for b1={b1:g}, b2={b2:g}: got {(t1, t2, t3)!r}")
    return t1, t2, t3


def printed_thresholds(
    kind: ClassKind, two: float, three: float, phi: MaMindaTarget
) -> tuple[float, float, float]:
    """The thresholds as the paper prints them, for the deformed integers
    ([2], [3]), or for the effective integers ([2] L2, [3] L3) of its
    Bernardi variant (``bernardi.effective_numbers``).

    The convex normalization that circulates in print has
    den = [3]([3]-1) b1^2 and carries ([2]^2 - 1)^2 on the (b2 -+ b1)
    terms, instead of [2]^2 ([2]-1)^2.  It is kept for comparison output;
    it does not agree with the max-form bound and is never used by the
    piecewise branch logic.  The printed starlike set is the plain one,
    ``Kernel.from_numbers(kind, two, three).thresholds(phi)``.
    """
    if kind != "convex":
        return Kernel.from_numbers(kind, two, three).thresholds(phi)
    return _crossings(phi, three * (three - 1.0), two * two * (two - 1.0), (two * two - 1.0) ** 2)


def _member(kind: ClassKind, c: CaratheodoryJet, phi: MaMindaTarget, params: PQParams) -> MemberJet:
    a2, a3 = Kernel.of(kind, params).member(c.c1, c.c2, phi)
    return MemberJet(a2, a3, kind)


def starlike_member(c: CaratheodoryJet, phi: MaMindaTarget, params: PQParams) -> MemberJet:
    """Starlike jet: a2 = b1 c1 / (2([2]-1)) and

        a3 = b1 / (2([3]-1)) * [c2 - (1 - b2/b1 - b1/([2]-1)) c1^2 / 2].
    """
    return _member("starlike", c, phi, params)


def convex_member(c: CaratheodoryJet, phi: MaMindaTarget, params: PQParams) -> MemberJet:
    """Convex jet: same bracket as the starlike one, with denominators
    2[2]([2]-1) for a2 and 2[3]([3]-1) for a3."""
    return _member("convex", c, phi, params)


def _drop_z(s: TruncatedSeries) -> TruncatedSeries:
    # divide by z; valid only for series vanishing at 0
    if s.coeffs[0] != 0:
        raise DomainError("cannot divide by z: nonzero constant term")
    return TruncatedSeries._of(s.coeffs[1:])


def subordination_residual(
    m: MemberJet, j: SchwarzJet, phi: MaMindaTarget, params: PQParams
) -> float:
    """Largest coefficient mismatch, through z^2, between the class-defining
    quotient of the jet and phi(w(z)).

    The quotient is z D f / f for starlike jets and D(z D f) / D f for
    convex ones, computed with truncated-series arithmetic from
    f = z + a2 z^2 + a3 z^3.  A jet built by the constructors from ``j``
    yields a residual at roundoff level (<= 1e-10); any corruption of the
    jet shows up here at first order.
    """
    f = TruncatedSeries([0.0, 1.0, m.a2, m.a3])
    df = pq_derivative(f, params)
    if m.kind == "starlike":
        # z D f / f with the common z factor cancelled before dividing
        quotient = df / _drop_z(f)
    else:
        # padding D f back to order 3 is exact because f is a cubic here
        z_df = TruncatedSeries.monomial(1, order=3) * df.truncate(3)
        quotient = pq_derivative(z_df, params) / df.truncate(2)
    expected = phi.series(order=2).compose(j.series(order=2))
    return max(abs(quotient.coeffs[k] - expected.coeffs[k]) for k in range(3))


def schwarz_jets_from_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w1, w2) arrays from an (n, 4) array of uniform variates in [0, 1).

    Row (u0, u1, u2, u3) gives w1 = sqrt(u0) e^(2 pi i u1), uniform on the
    closed unit disc, and w2 = sqrt(u2) (1 - |w1|^2) e^(2 pi i u3), uniform
    on the disc of radius 1 - |w1|^2.  The oracle's opt-in random jets and
    ``sample_schwarz_jet`` both go through this one formula.  Rows of
    another shape, or with a variate that is not finite or not in [0, 1),
    are a domain error (one min and one max over the rows, which a NaN
    fails too).
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise DomainError(f"rows must have shape (n, 4), got {rows.shape}")
    if rows.size and not (rows.min() >= 0.0 and rows.max() < 1.0):
        raise DomainError(
            f"rows must be uniform variates in [0, 1), got values in [{rows.min()!r}, {rows.max()!r}]"
        )
    r1 = np.sqrt(rows[:, 0])
    w1 = r1 * np.exp(2j * np.pi * rows[:, 1])
    r2 = np.sqrt(rows[:, 2]) * (1.0 - r1 * r1)
    w2 = r2 * np.exp(2j * np.pi * rows[:, 3])
    return w1, w2


def sample_schwarz_jet(rng) -> SchwarzJet:
    """Draw one jet uniformly over the feasibility body.

    w1 is uniform on the closed unit disc and w2 uniform on the disc of
    radius 1 - |w1|^2, which covers the body including its boundary.
    ``rng`` is a numpy Generator; four variates are consumed per jet.
    """
    w1, w2 = schwarz_jets_from_rows(rng.random((1, 4)))
    return SchwarzJet(complex(w1[0]), complex(w2[0]))
