"""Sharp bounds for the Fekete-Szego functional |a3 - mu a2^2|.

For a member jet of a deformed starlike or convex class with target
phi = 1 + b1 z + b2 z^2 + ..., the functional reduces to
(|b1| / 2A) |c2 - v c1^2| over Caratheodory coefficients (c1, c2), where

    v(mu) = (1 - b2/b1 - (b1/B) (1 - K mu)) / 2,

and the three scalars (A, B, E) with K = A B / E^2 depend only on the
class kind and on the deformed integers [2], [3]:

    starlike:  A = [3]-1,        B = [2]-1,  E = [2]-1
    convex:    A = [3]([3]-1),   B = [2]-1,  E = [2]([2]-1)

Both the max-form bound (valid for complex mu) and the three-branch
piecewise bound (real mu, b1 > 0, b2 >= 0) are computed through the same
quantity arg = b2/b1 + (b1/B)(1 - K mu) = 1 - 2v, so the two forms agree
bit for bit wherever both apply.  The functions taking explicit (two,
three) arguments exist so integral-operator variants can reuse the same
kernel with rescaled deformed integers.

Everything is pure and immutable; concurrent sweeps need no locking.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

from .classes import ClassKind, MaMindaTarget, MemberJet, deformation_numbers
from .pq_core import DomainError, PQParams

BRANCH_MAX_FORM = "max_form"
_PIECEWISE_BRANCHES = {
    "starlike": ("below_sigma1", "mid", "above_sigma2"),
    "convex": ("below_rho1", "mid_rho", "above_rho2"),
}

REFINED_WINDOWS = ("starlike_low", "starlike_high", "convex_low", "convex_high")


@dataclass(frozen=True)
class BoundReport:
    """A computed bound value with the branch and thresholds that produced it."""

    value: float
    branch: str
    mu: complex
    p: float
    q: float
    thresholds: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.value < math.inf:
            raise DomainError(f"bound value must be finite and nonnegative, got {self.value!r}")


def ma_minda_bound(mu: complex) -> float:
    """Sharp maximum 2 max(1, |2 mu - 1|) of |c2 - mu c1^2| over
    Caratheodory coefficients, for any complex mu."""
    return 2.0 * max(1.0, abs(2.0 * mu - 1.0))


def caratheodory_piecewise_bound(v: float) -> float:
    """Sharp maximum of |c2 - v c1^2| for real v:

        -4v + 2  (v <= 0),    2  (0 <= v <= 1),    4v - 2  (v >= 1),

    continuous at both joints."""
    if v <= 0.0:
        return -4.0 * v + 2.0
    if v <= 1.0:
        return 2.0
    return 4.0 * v - 2.0


def fs_scales(kind: ClassKind, two: float, three: float) -> tuple[float, float, float]:
    """(A, B, E) for a class kind, from the deformed integers [2] and [3]."""
    if two <= 1.0 or three <= 1.0:
        raise DomainError(
            f"bound formulas need [2] > 1 and [3] > 1, got [2]={two:.6g}, [3]={three:.6g}"
        )
    if kind == "starlike":
        return three - 1.0, two - 1.0, two - 1.0
    if kind == "convex":
        return three * (three - 1.0), two - 1.0, two * (two - 1.0)
    raise DomainError(f"unknown class kind {kind!r}")


def _max_arg(kind: ClassKind, mu: complex, phi: MaMindaTarget, two: float, three: float) -> complex:
    """arg = b2/b1 + (b1/B)(1 - K mu), the quantity whose modulus is compared
    with 1 inside the max-form bound; equals 1 - 2 v(mu).

    A NaN or infinite mu is a domain error here, the one place every form
    goes through: max(1, |arg|) would otherwise turn a NaN arg into 1."""
    if not cmath.isfinite(mu):
        raise DomainError(f"mu must be finite, got mu={mu!r}")
    A, B, E = fs_scales(kind, two, three)
    K = A * B / (E * E)
    return phi.b2 / phi.b1 + (phi.b1 / B) * (1.0 - K * mu)


def v_from_numbers(kind: ClassKind, mu: complex, phi: MaMindaTarget, two: float, three: float) -> complex:
    """The scalar v(mu) fed to the Caratheodory maxima."""
    return (1.0 - _max_arg(kind, mu, phi, two, three)) / 2.0


def v_starlike(mu: complex, phi: MaMindaTarget, params: PQParams) -> complex:
    two, three = deformation_numbers(params)
    return v_from_numbers("starlike", mu, phi, two, three)


def v_convex(mu: complex, phi: MaMindaTarget, params: PQParams) -> complex:
    two, three = deformation_numbers(params)
    return v_from_numbers("convex", mu, phi, two, three)


def fs_bound_from_numbers(
    kind: ClassKind,
    mu: complex,
    phi: MaMindaTarget,
    two: float,
    three: float,
    p: float,
    q: float,
) -> BoundReport:
    """Max-form bound (|b1| / A) max(1, |arg|); mu may be complex."""
    A, _, _ = fs_scales(kind, two, three)
    arg = _max_arg(kind, mu, phi, two, three)
    value = abs(phi.b1) / A * max(1.0, abs(arg))
    return BoundReport(value=value, branch=BRANCH_MAX_FORM, mu=mu, p=p, q=q)


def fs_bound_starlike(mu: complex, phi: MaMindaTarget, params: PQParams) -> BoundReport:
    """Sharp bound on |a3 - mu a2^2| over the deformed starlike class."""
    two, three = deformation_numbers(params)
    return fs_bound_from_numbers("starlike", mu, phi, two, three, params.p, params.q)


def fs_bound_convex(mu: complex, phi: MaMindaTarget, params: PQParams) -> BoundReport:
    """Sharp bound on |a3 - mu a2^2| over the deformed convex class."""
    two, three = deformation_numbers(params)
    return fs_bound_from_numbers("convex", mu, phi, two, three, params.p, params.q)


def _require_ordered_target(phi: MaMindaTarget) -> None:
    # The piecewise and refined results order real mu, which needs b1 > 0, b2 >= 0.
    if not (phi.b1 > 0.0 and phi.b2 >= 0.0):
        raise DomainError(
            f"piecewise thresholds need b1 > 0 and b2 >= 0, got b1={phi.b1:g}, b2={phi.b2:g}"
        )


def thresholds_from_numbers(
    kind: ClassKind,
    phi: MaMindaTarget,
    two: float,
    three: float,
    printed_form: bool = False,
) -> tuple[float, float, float]:
    """(t1, t2, t3): the mu values where v(mu) crosses 0, 1 and 1/2.

    t1 and t2 bound the flat mid branch of the piecewise bound; t3 is
    where the refined inequality switches from its low form to its high
    form.  Ordering t1 <= t3 <= t2 holds whenever b1 > 0.

    ``printed_form`` (convex kind only) swaps in the threshold
    normalization that circulates in print, whose (b2 -+ b1) terms carry
    ([2]^2 - 1)^2 instead of [2]^2 ([2]-1)^2.  It is kept for comparison
    output; it does not agree with the max-form bound and is never used
    by the piecewise branch logic here.
    """
    _require_ordered_target(phi)
    A, B, E = fs_scales(kind, two, three)
    b1, b2 = phi.b1, phi.b2
    if printed_form:
        if kind != "convex":
            return thresholds_from_numbers(kind, phi, two, three)
        den = three * (three - 1.0) * b1 * b1
        head = two * two * (two - 1.0) * b1 * b1
        fac = (two * two - 1.0) ** 2
        return (
            (head + fac * (b2 - b1)) / den,
            (head + fac * (b2 + b1)) / den,
            (head + fac * b2) / den,
        )
    K = A * B / (E * E)

    def crossing(t: float) -> float:
        return (b1 * b1 + B * (b2 + (2.0 * t - 1.0) * b1)) / (K * b1 * b1)

    return crossing(0.0), crossing(1.0), crossing(0.5)


def sigma_thresholds(phi: MaMindaTarget, params: PQParams) -> tuple[float, float, float]:
    """Starlike thresholds (sigma1, sigma2, sigma3)."""
    two, three = deformation_numbers(params)
    return thresholds_from_numbers("starlike", phi, two, three)


def rho_thresholds(
    phi: MaMindaTarget, params: PQParams, printed_form: bool = False
) -> tuple[float, float, float]:
    """Convex thresholds (rho1, rho2, rho3); see ``thresholds_from_numbers``
    for the ``printed_form`` comparison variant."""
    two, three = deformation_numbers(params)
    return thresholds_from_numbers("convex", phi, two, three, printed_form=printed_form)


def _require_real(mu: complex) -> float:
    if isinstance(mu, numbers.Real):
        return float(mu)
    if isinstance(mu, complex) and mu.imag == 0.0:
        return mu.real
    raise DomainError(f"piecewise bounds order real mu only, got mu={mu!r}")


def piecewise_from_numbers(
    kind: ClassKind,
    mu: float,
    phi: MaMindaTarget,
    two: float,
    three: float,
    p: float,
    q: float,
) -> BoundReport:
    """Three-branch bound for real mu:

        (b1/A) arg   (mu <= t1),    b1/A   (t1 <= mu <= t2),
        -(b1/A) arg  (mu >= t2),

    where arg = 1 - 2 v(mu).  Expanding arg recovers the familiar branch
    values b2/A + (b1^2/B)(1/A - mu B/E^2) and its negative; routing both
    forms through arg keeps them consistent with the max-form bound to
    the last bit.
    """
    mu = _require_real(mu)
    t1, t2, t3 = thresholds_from_numbers(kind, phi, two, three)
    A, _, _ = fs_scales(kind, two, three)
    arg = (_max_arg(kind, mu, phi, two, three)).real
    below, mid, above = _PIECEWISE_BRANCHES[kind]
    if mu < t1:
        branch, value = below, phi.b1 / A * arg
    elif mu <= t2:
        branch, value = mid, phi.b1 / A
    else:
        branch, value = above, -(phi.b1 / A) * arg
    return BoundReport(value=value, branch=branch, mu=mu, p=p, q=q, thresholds=(t1, t2, t3))


def fs_piecewise_starlike(mu: float, phi: MaMindaTarget, params: PQParams) -> BoundReport:
    two, three = deformation_numbers(params)
    return piecewise_from_numbers("starlike", mu, phi, two, three, params.p, params.q)


def fs_piecewise_convex(mu: float, phi: MaMindaTarget, params: PQParams) -> BoundReport:
    two, three = deformation_numbers(params)
    return piecewise_from_numbers("convex", mu, phi, two, three, params.p, params.q)


def refined_lhs_from_numbers(
    window: str,
    a2: complex,
    a3: complex,
    mu: float,
    phi: MaMindaTarget,
    two: float,
    three: float,
) -> tuple[float, float]:
    """Refined functional and its sharp cap inside a threshold window.

    For t1 < mu <= t3 ("low") the functional gains (mu - t1)|a2|^2, for
    t3 <= mu < t2 ("high") it gains (t2 - mu)|a2|^2; either way the cap
    is b1 / A.  Outside the window the inequality is not asserted and a
    domain error identifies the admissible range.
    """
    if window not in REFINED_WINDOWS:
        raise DomainError(f"unknown refined window {window!r}, expected one of {REFINED_WINDOWS}")
    kind, side = window.rsplit("_", 1)
    mu = _require_real(mu)
    t1, t2, t3 = thresholds_from_numbers(kind, phi, two, three)  # type: ignore[arg-type]
    if side == "low":
        if not (t1 < mu <= t3):
            raise DomainError(f"{window} needs mu in ({t1:.6g}, {t3:.6g}], got mu={mu:.6g}")
        penalty = mu - t1
    else:
        if not (t3 <= mu < t2):
            raise DomainError(f"{window} needs mu in [{t3:.6g}, {t2:.6g}), got mu={mu:.6g}")
        penalty = t2 - mu
    A, _, _ = fs_scales(kind, two, three)  # type: ignore[arg-type]
    lhs = abs(a3 - mu * a2 * a2) + penalty * abs(a2) ** 2
    return lhs, phi.b1 / A


def refined_inequality_lhs(
    window: str, m: MemberJet, mu: float, phi: MaMindaTarget, params: PQParams
) -> tuple[float, float]:
    """Window-gated refined inequality for a constructed member jet."""
    if window not in REFINED_WINDOWS:
        raise DomainError(f"unknown refined window {window!r}, expected one of {REFINED_WINDOWS}")
    if not window.startswith(m.kind):
        raise DomainError(f"window {window!r} does not match a {m.kind} member jet")
    two, three = deformation_numbers(params)
    return refined_lhs_from_numbers(window, m.a2, m.a3, mu, phi, two, three)
