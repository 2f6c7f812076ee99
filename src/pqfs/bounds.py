"""Sharp bounds for the Fekete-Szego functional |a3 - mu a2^2|.

For a member jet of a deformed starlike or convex class with target
phi = 1 + b1 z + b2 z^2 + ..., the functional reduces to
(|b1| / 2A) |c2 - v c1^2| over Caratheodory coefficients (c1, c2), where

    v(mu) = (1 - b2/b1 - (b1/B) (1 - K mu)) / 2,

and the scales (A, B, E) with K = A B / E^2 of ``classes.Kernel`` depend
only on the class kind and on the deformed integers [2], [3].

Both the max-form bound (valid for complex mu) and the three-branch
piecewise bound (real mu, b1 > 0, b2 >= 0) are computed through the same
quantity arg = b2/b1 + (b1/B)(1 - K mu) = 1 - 2v, so the two forms agree
bit for bit wherever both apply.  The formulas live in ``classes.Kernel``;
the starlike/convex functions here build the kernel once per call and
wrap its values in reports.  The report functions taking a kernel also
serve the Bernardi variants, through ``Kernel.scaled``.

Everything is pure and immutable; concurrent sweeps need no locking.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

from .classes import Kernel, MaMindaTarget, MemberJet
from .pq_core import DomainError, PQParams

BRANCH_MAX_FORM = "max_form"
_PIECEWISE_BRANCHES = {
    "starlike": ("below_sigma1", "mid", "above_sigma2"),
    "convex": ("below_rho1", "mid_rho", "above_rho2"),
}


@dataclass(frozen=True)
class BoundReport:
    """A computed bound value with the branch and thresholds that produced it."""

    value: float
    branch: str
    mu: complex
    thresholds: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.value < math.inf:
            raise DomainError(f"bound value must be finite and nonnegative, got {self.value!r}")


def ma_minda_bound(mu: complex) -> float:
    """Sharp maximum 2 max(1, |2 mu - 1|) of |c2 - mu c1^2| over
    Caratheodory coefficients, for any finite complex mu."""
    if not cmath.isfinite(mu):
        raise DomainError(f"mu must be finite, got mu={mu!r}")
    return 2.0 * max(1.0, abs(2.0 * mu - 1.0))


def caratheodory_piecewise_bound(v: float) -> float:
    """Sharp maximum of |c2 - v c1^2| for finite real v:

        -4v + 2  (v <= 0),    2  (0 <= v <= 1),    4v - 2  (v >= 1),

    continuous at both joints."""
    if not math.isfinite(v):
        raise DomainError(f"v must be finite, got v={v!r}")
    if v <= 0.0:
        return -4.0 * v + 2.0
    if v <= 1.0:
        return 2.0
    return 4.0 * v - 2.0


def max_form_report(k: Kernel, mu: complex, phi: MaMindaTarget) -> BoundReport:
    """Max-form bound (|b1| / A) max(1, |arg|) of a kernel; mu may be complex."""
    return BoundReport(value=k.max_form(mu, phi), branch=BRANCH_MAX_FORM, mu=mu)


def v_starlike(mu: complex, phi: MaMindaTarget, params: PQParams) -> complex:
    """The scalar v(mu) fed to the Caratheodory maxima, starlike kind."""
    return Kernel.of("starlike", params).v(mu, phi)


def v_convex(mu: complex, phi: MaMindaTarget, params: PQParams) -> complex:
    """The scalar v(mu) fed to the Caratheodory maxima, convex kind."""
    return Kernel.of("convex", params).v(mu, phi)


def fs_bound_starlike(mu: complex, phi: MaMindaTarget, params: PQParams) -> BoundReport:
    """Sharp bound on |a3 - mu a2^2| over the deformed starlike class."""
    return max_form_report(Kernel.of("starlike", params), mu, phi)


def fs_bound_convex(mu: complex, phi: MaMindaTarget, params: PQParams) -> BoundReport:
    """Sharp bound on |a3 - mu a2^2| over the deformed convex class."""
    return max_form_report(Kernel.of("convex", params), mu, phi)


def sigma_thresholds(phi: MaMindaTarget, params: PQParams) -> tuple[float, float, float]:
    """Starlike thresholds (sigma1, sigma2, sigma3); see ``Kernel.thresholds``."""
    return Kernel.of("starlike", params).thresholds(phi)


def rho_thresholds(phi: MaMindaTarget, params: PQParams) -> tuple[float, float, float]:
    """Convex thresholds (rho1, rho2, rho3); see ``Kernel.thresholds``, and
    ``classes.printed_thresholds`` for the printed comparison variant."""
    return Kernel.of("convex", params).thresholds(phi)


def _require_real(x: complex, name: str = "mu") -> float:
    if isinstance(x, numbers.Real):
        return float(x)
    if isinstance(x, complex) and x.imag == 0.0:
        return x.real
    raise DomainError(f"piecewise bounds order real {name} only, got {name}={x!r}")


def piecewise_report(k: Kernel, mu: float, phi: MaMindaTarget) -> BoundReport:
    """Three-branch bound of a kernel for real mu (``Kernel.select``),
    with arg = 1 - 2 v(mu).  Expanding arg recovers the familiar branch
    values b2/A + (b1^2/B)(1/A - mu B/E^2) and its negative; routing both
    forms through arg keeps them consistent with the max-form bound to
    the last bit.
    """
    mu = _require_real(mu)
    t = k.thresholds(phi)
    branch, value = k.select(mu, k.arg(mu, phi).real, phi, t)
    return BoundReport(value=value, branch=_PIECEWISE_BRANCHES[k.kind][branch], mu=mu, thresholds=t)


def fs_piecewise_starlike(mu: float, phi: MaMindaTarget, params: PQParams) -> BoundReport:
    return piecewise_report(Kernel.of("starlike", params), mu, phi)


def fs_piecewise_convex(mu: float, phi: MaMindaTarget, params: PQParams) -> BoundReport:
    return piecewise_report(Kernel.of("convex", params), mu, phi)


def refined_lhs(
    k: Kernel, window: str, a2: complex, a3: complex, mu: float, phi: MaMindaTarget
) -> tuple[float, float]:
    """Refined functional of a jet and its sharp cap b1 / A inside a named
    threshold window of the kernel; see ``Kernel.refined_penalty``."""
    mu = _require_real(mu)
    _, penalty = k.refined_penalty(mu, phi, window)
    return k.refined_functional(a2, a3, mu, penalty), phi.b1 / k.A


def refined_inequality_lhs(
    window: str, m: MemberJet, mu: float, phi: MaMindaTarget, params: PQParams
) -> tuple[float, float]:
    """Window-gated refined inequality for a constructed member jet."""
    return refined_lhs(Kernel.of(m.kind, params), window, m.a2, m.a3, mu, phi)
