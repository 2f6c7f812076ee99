"""The deformed Bernardi averaging operator and its bound variants.

The operator maps a normalized series f(z) = z + sum a_n z^n to

    z + sum ( [1+c] / [n+c] ) a_n z^n       (c = 0, 1, 2, ...),

multiplying each coefficient by L_n = [1+c]/[n+c], which reduces to the
classical Bernardi factor (1+c)/(n+c) in the limit p = q = 1.  The same
operator arises from the integral form: multiply by t^(c-1), take the
deformed antiderivative, and divide by z^c; both routes are implemented
so they can be checked against each other.

A member jet (a2, a3) maps to (L2 a2, L3 a3), the member jet of the class
kernel rescaled by ``Kernel.scaled``, so every bound variant here is sharp
over the image class for every c >= 0.  The paper's form, with the
"effective integers" [2]L2, [3]L3 in the plain formulas, does not bound
the image class; it is kept only as ``classes.printed_thresholds`` of
``effective_numbers`` and behind ``fs_piecewise_bernardi(printed_form=True)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import BoundReport, _require_real, max_form_report, piecewise_report, refined_lhs
from .classes import ClassKind, Kernel, MaMindaTarget, MemberJet, deformation_numbers, printed_thresholds
from .oracle import OracleConfig, VerificationRecord, max_form_check
from .pq_core import DomainError, PQParams, TruncatedSeries, pq_integral, pq_number


#: Largest operator order c.  [n+c] is a sum of n+c terms, and with p > 0.5
#: (every pair the bound formulas admit) [n+c] >= p^(n+c-1) > 0.5^1002 at
#: n = 3, still a normal float; far larger c underflows [n+c] to 0.
MAX_BERNARDI_ORDER = 1000


@dataclass(frozen=True)
class BernardiParams:
    """Operator order c (an integer in [0, ``MAX_BERNARDI_ORDER``]) over a
    base deformation pair."""

    c: int
    base: PQParams

    def __post_init__(self) -> None:
        # bool is an int subclass, but True is not an operator order
        if isinstance(self.c, bool) or not isinstance(self.c, int) or self.c < 0:
            raise DomainError(f"operator order c must be an integer >= 0, got {self.c!r}")
        if self.c > MAX_BERNARDI_ORDER:
            raise DomainError(f"operator order c must be <= {MAX_BERNARDI_ORDER}, got {self.c}")


def bernardi_factor(n: int, bp: BernardiParams) -> float:
    """Coefficient multiplier L_n = [1+c] / [n+c] for n >= 1; L_1 = 1.

    Refused when [n+c] underflows to 0 or the ratio is not finite, which a
    base pair with p + q <= 1, such as (0.3, 0.2), reaches at large c.
    """
    if n < 1:
        raise DomainError(f"bernardi_factor needs n >= 1, got n={n}")
    den = pq_number(n + bp.c, bp.base)
    factor = pq_number(1 + bp.c, bp.base) / den if den != 0.0 else math.inf
    if not math.isfinite(factor):
        raise DomainError(
            f"Bernardi factor L_{n} = [{1 + bp.c}]/[{n + bp.c}] is not finite for c={bp.c}, "
            f"(p, q)=({bp.base.p:g}, {bp.base.q:g}): [{n + bp.c}]={den:g}"
        )
    return factor


def bernardi_transform(f: TruncatedSeries, bp: BernardiParams) -> TruncatedSeries:
    """Apply the operator coefficientwise; the input must be normalized."""
    if not f.is_normalized:
        raise DomainError("bernardi_transform needs a normalized series (a0 = 0, a1 = 1)")
    cs = f.coeffs
    return TruncatedSeries._of((0j, *[bernardi_factor(n, bp) * cs[n] for n in range(1, len(cs))]))


def _shift_up(s: TruncatedSeries, k: int) -> TruncatedSeries:
    # multiply by z^k; shifted coefficients are exact, so the order grows
    return TruncatedSeries._of((*(0j,) * k, *s.coeffs))


def _shift_down(s: TruncatedSeries, k: int) -> TruncatedSeries:
    # callers keep at least one coefficient above z^k
    if any(s.coeffs[:k]):
        raise DomainError(f"cannot divide by z^{k}: lower-order coefficients are nonzero")
    return TruncatedSeries._of(s.coeffs[k:])


def bernardi_transform_integral(f: TruncatedSeries, bp: BernardiParams) -> TruncatedSeries:
    """Integral route: [1+c] z^(-c) times the antiderivative of t^(c-1) f(t).

    For c = 0 the prefactor t^(-1) is a downward shift, legal because f
    is normalized.  Agrees with ``bernardi_transform`` coefficient by
    coefficient up to roundoff.
    """
    if not f.is_normalized:
        raise DomainError("bernardi_transform_integral needs a normalized series")
    c = bp.c
    integrand = _shift_up(f, c - 1) if c >= 1 else _shift_down(f, 1)
    return pq_number(1 + c, bp.base) * _shift_down(pq_integral(integrand, bp.base), c)


def _multipliers(bp: BernardiParams) -> tuple[float, float]:
    return bernardi_factor(2, bp), bernardi_factor(3, bp)


def image_kernel(kind: ClassKind, bp: BernardiParams) -> Kernel:
    """The kernel of the image class, whose member jets are (L2 a2, L3 a3)."""
    return Kernel.of(kind, bp.base).scaled(*_multipliers(bp))


def effective_numbers(bp: BernardiParams) -> tuple[float, float]:
    """([2] L2, [3] L3), the paper's effective integers, whose
    ``classes.printed_thresholds`` are its printed Bernardi thresholds;
    refused when either is <= 1, as at c = 0."""
    return _effective(bp, *deformation_numbers(bp.base))


def _effective(bp: BernardiParams, two: float, three: float) -> tuple[float, float]:
    """``effective_numbers`` from the plain integers."""
    L2, L3 = _multipliers(bp)
    two_eff, three_eff = two * L2, three * L3
    if two_eff <= 1.0 or three_eff <= 1.0:
        raise DomainError(
            f"operator bound formulas need [2]L2 > 1 and [3]L3 > 1; got "
            f"[2]L2={two_eff:.6g}, [3]L3={three_eff:.6g} for c={bp.c}, "
            f"(p, q)=({bp.base.p:g}, {bp.base.q:g})"
        )
    return two_eff, three_eff


def fs_bound_bernardi(
    kind: ClassKind, mu: complex, phi: MaMindaTarget, bp: BernardiParams
) -> BoundReport:
    """Sharp max-form bound over the image class, L3 times the plain bound
    at mu L2^2 / L3; it is the plain bound when both multipliers are 1."""
    return max_form_report(image_kernel(kind, bp), mu, phi)


def thresholds_bernardi(
    kind: ClassKind, phi: MaMindaTarget, bp: BernardiParams
) -> tuple[float, float, float]:
    """Piecewise thresholds of the image class.  The paper's are
    ``printed_thresholds(kind, *effective_numbers(bp), phi)``."""
    return image_kernel(kind, bp).thresholds(phi)


_PRINTED_BRANCHES = ("below_printed", "mid_printed", "above_printed")


def fs_piecewise_bernardi(
    kind: ClassKind, mu: float, phi: MaMindaTarget, bp: BernardiParams, printed_form: bool = False
) -> BoundReport:
    """Piecewise bound of the image class; equals ``fs_bound_bernardi``.

    ``printed_form`` reproduces the paper's claim, whose thresholds are
    the ``printed_thresholds`` of the effective integers but whose branch
    values are those of the plain integers; it is inconsistent with the
    max-form bound and may even turn negative, in which case constructing
    the report fails.
    """
    if not printed_form:
        return piecewise_report(image_kernel(kind, bp), mu, phi)
    two, three = deformation_numbers(bp.base)
    plain = Kernel.from_numbers(kind, two, three)
    effective = _effective(bp, two, three)
    mu = _require_real(mu)
    t = printed_thresholds(kind, *effective, phi)
    # the printed branch values are written through v(mu) of the plain integers
    branch, value = plain.select(mu, 1.0 - 2.0 * plain.v(mu, phi), phi, t)
    return BoundReport(value=value, branch=_PRINTED_BRANCHES[branch], mu=mu, thresholds=t)


def refined_lhs_bernardi(
    window: str, m: MemberJet, mu: float, phi: MaMindaTarget, bp: BernardiParams
) -> tuple[float, float]:
    """Refined functional of the transformed jet (L2 a2, L3 a3) and its cap,
    inside a threshold window of the image class."""
    L2, L3 = _multipliers(bp)
    k = Kernel.of(m.kind, bp.base).scaled(L2, L3)
    return refined_lhs(k, window, L2 * m.a2, L3 * m.a3, mu, phi)


def verify_fs_bernardi(
    kind: ClassKind, mu: complex, phi: MaMindaTarget, bp: BernardiParams, cfg: OracleConfig
) -> VerificationRecord:
    """Brute-force check of ``fs_bound_bernardi``: the oracle's max-form
    check with the image-class kernel, whose member jets are the sampled
    jets transformed by the operator."""
    return max_form_check(image_kernel(kind, bp), mu, phi, cfg)
