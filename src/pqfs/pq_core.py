"""Two-parameter quantum calculus on truncated power series.

The deformation is controlled by a pair (p, q) with 0 < q < p <= 1.  The
basic quantity is the deformed integer

    [n] = p^(n-1) + p^(n-2) q + ... + q^(n-1),

which equals (p^n - q^n) / (p - q) whenever p != q and degenerates
continuously to n itself as p = q = 1.  Functions are represented purely
as coefficient jets (truncated Taylor series); nothing in this module
evaluates a function on the disc.

Everything here is an immutable value and every operation is pure, so the
module is safe to use from concurrent code without locking.  The one piece
of state, the memo of deformed integers a ``PQParams`` keeps, is
idempotent: each entry is written once per n, and a racing second write
stores the same float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator


class DomainError(ValueError):
    """Raised when arguments leave the domain an operation is defined on."""


@dataclass(frozen=True)
class PQParams:
    """The deformation pair (p, q), validated strictly as 0 < q < p <= 1.

    Each instance also keeps a private memo ``_numbers`` of the deformed
    integers ``pq_number`` has summed for it.  The memo is an instance
    attribute, not a dataclass field, so equality, hashing and repr see
    only (p, q); copies and pickles carry it along, which is harmless
    because every entry is a function of (p, q) alone.
    """

    p: float
    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "q", float(self.q))
        if not (0.0 < self.q < self.p <= 1.0):
            raise DomainError(
                f"need 0 < q < p <= 1, got (p, q)=({self.p:g}, {self.q:g}); "
                "use PQParams.limit for the closed boundary q = p"
            )
        object.__setattr__(self, "_numbers", {})

    @classmethod
    def limit(cls, p: float = 1.0, q: float = 1.0) -> "PQParams":
        """Relaxed constructor that admits the closed boundary q = p.

        The summation form of the deformed integers is continuous through
        q = p, so limit suites can evaluate the classical regime exactly
        at p = q = 1 instead of approximating it with q = 1 - eps.
        """
        p, q = float(p), float(q)
        if not (0.0 < q <= p <= 1.0):
            raise DomainError(f"need 0 < q <= p <= 1, got (p, q)=({p:g}, {q:g})")
        self = object.__new__(cls)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_numbers", {})
        return self


def pq_number(n: int, params: PQParams) -> float:
    """Deformed integer [n] = sum_{k=0}^{n-1} p^k q^(n-1-k).

    The summation form is used instead of (p^n - q^n)/(p - q) because it
    stays finite and continuous through p = q; the two agree to roundoff
    away from that diagonal.  [0] = 0 by the empty sum.  The sum runs once
    per n for each params object; later calls return the stored float.
    """
    memo = params._numbers
    value = memo.get(n)
    if value is not None:
        return value
    if n < 0:
        raise DomainError(f"pq_number needs n >= 0, got n={n}")
    p, q = params.p, params.q
    value = memo[n] = math.fsum(p**k * q ** (n - 1 - k) for k in range(n))
    return value


def _product(a: tuple[complex, ...], b: tuple[complex, ...], n: int) -> list[complex]:
    """Coefficients 0..n of the product a b.

    Each is a left fold from the integer 0, the additions ``sum`` makes,
    so a coefficient whose terms are all -0.0 comes out +0.0.
    """
    out = []
    for k in range(n + 1):
        acc = 0
        for i in range(k + 1):
            acc += a[i] * b[k - i]
        out.append(acc)
    return out


@dataclass(frozen=True, init=False)
class TruncatedSeries:
    """Coefficient jet a0 + a1 z + ... + aN z^N of an analytic function.

    Coefficients are stored as complex numbers.  Binary operations keep
    the truncation honest: the result carries the smaller of the two
    operand orders, and division/composition are tracked to that same
    order.  Instances are immutable.

    The constructor converts and checks what it is given.  Arithmetic
    builds its results through ``_of`` instead, from coefficients it has
    already made Python complex, with the same operations in the same
    order, so the results are bit for bit those of the constructor path.
    """

    coeffs: tuple[complex, ...]

    #: Default truncation order used by convenience constructors.
    DEFAULT_ORDER = 8

    #: numpy defers to the reflected operators, so np.float64(1.0) + f is
    #: a series, not an array of the sums with each coefficient.
    __array_ufunc__ = None

    def __init__(self, coeffs: Iterable[complex], order: int | None = None):
        cs = [complex(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise DomainError(f"series order must be >= 0, got {order}")
            cs = (cs + [0j] * (order + 1 - len(cs)))[: order + 1]
        if not cs:
            raise DomainError("a series needs at least its constant coefficient")
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def _of(coeffs: tuple[complex, ...]) -> "TruncatedSeries":
        """A series holding ``coeffs`` as is: a non-empty tuple of Python
        complex, which the caller guarantees."""
        s = object.__new__(TruncatedSeries)
        object.__setattr__(s, "coeffs", coeffs)
        return s

    @classmethod
    def monomial(cls, degree: int, order: int | None = None) -> "TruncatedSeries":
        """The single term z^degree, padded to ``order`` (default: degree)."""
        if degree < 0:
            raise DomainError(f"monomial degree must be >= 0, got {degree}")
        return cls([0j] * degree + [1.0 + 0j], order=order if order is not None else degree)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_normalized(self) -> bool:
        """True when a0 = 0 and a1 = 1 (the usual disc normalization)."""
        cs = self.coeffs
        return len(cs) > 1 and cs[0] == 0 and cs[1] == 1

    def __getitem__(self, n: int) -> complex:
        return self.coeffs[n]

    def __iter__(self) -> Iterator[complex]:
        return iter(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order < 0:
            raise DomainError(f"series order must be >= 0, got {order}")
        cs = self.coeffs
        pad = order + 1 - len(cs)
        if pad <= 0:
            return TruncatedSeries._of(cs[: order + 1])
        return TruncatedSeries._of((*cs, *(0j,) * pad))

    def __add__(self, other: "TruncatedSeries | complex") -> "TruncatedSeries":
        cs = self.coeffs
        if isinstance(other, TruncatedSeries):
            # zip stops at the shorter operand, the smaller order
            return TruncatedSeries._of(tuple([a + b for a, b in zip(cs, other.coeffs)]))
        return TruncatedSeries._of((complex(cs[0] + other), *cs[1:]))

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._of(tuple([-c for c in self.coeffs]))

    def __sub__(self, other: "TruncatedSeries | complex") -> "TruncatedSeries":
        return self + (-other if isinstance(other, TruncatedSeries) else -complex(other))

    def __rsub__(self, other: complex) -> "TruncatedSeries":
        return (-self) + other

    def __mul__(self, other: "TruncatedSeries | complex") -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            n = min(len(self.coeffs), len(other.coeffs)) - 1
            return TruncatedSeries._of(tuple(_product(self.coeffs, other.coeffs, n)))
        s = complex(other)
        return TruncatedSeries._of(tuple([c * s for c in self.coeffs]))

    __rmul__ = __mul__

    def __truediv__(self, other: "TruncatedSeries | complex") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return self * (1.0 / complex(other))
        a, b = self.coeffs, other.coeffs
        b0 = b[0]
        if b0 == 0:
            raise DomainError("series division needs a nonzero constant term in the divisor")
        out: list[complex] = []
        for k in range(min(len(a), len(b))):
            # a left fold from 0, as in _product
            acc = 0
            for i in range(k):
                acc += out[i] * b[k - i]
            out.append((a[k] - acc) / b0)
        return TruncatedSeries._of(tuple(out))

    def __rtruediv__(self, other: complex) -> "TruncatedSeries":
        return TruncatedSeries([other], order=self.order) / self

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Substitute ``inner`` for the variable; inner must vanish at 0."""
        w = inner.coeffs
        if w[0] != 0:
            raise DomainError("composition needs an inner series with zero constant term")
        a = self.coeffs
        n = min(len(a), len(w)) - 1
        # Horner evaluation with series arithmetic at the working order.
        acc = [a[n], *(0j,) * n]
        for k in range(n - 1, -1, -1):
            acc = _product(acc, w, n)
            acc[0] += a[k]
        return TruncatedSeries._of(tuple(acc))


def pq_derivative(f: TruncatedSeries, params: PQParams) -> TruncatedSeries:
    """Termwise deformed derivative: z^n maps to [n] z^(n-1).

    The order drops by one, so the input must carry order >= 1.
    """
    cs = f.coeffs
    if len(cs) < 2:
        raise DomainError("pq_derivative needs a series of order >= 1")
    return TruncatedSeries._of(tuple([pq_number(n, params) * cs[n] for n in range(1, len(cs))]))


def pq_integral(f: TruncatedSeries, params: PQParams) -> TruncatedSeries:
    """Termwise deformed antiderivative: z^n maps to z^(n+1) / [n+1].

    The order rises by one and the constant of integration is zero.
    """
    cs = f.coeffs
    return TruncatedSeries._of((0j, *[cs[n] / pq_number(n + 1, params) for n in range(len(cs))]))
