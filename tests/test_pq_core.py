import copy
import dataclasses
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqfs.bernardi import BernardiParams, bernardi_factor, bernardi_transform, bernardi_transform_integral
from pqfs.pq_core import DomainError, PQParams, TruncatedSeries, pq_derivative, pq_integral, pq_number


class TestPQParams:
    def test_strict_construction(self):
        params = PQParams(0.9, 0.6)
        assert (params.p, params.q) == (0.9, 0.6)

    @pytest.mark.parametrize("p, q", [(0.6, 0.9), (0.9, 0.9), (0.9, 0.0), (0.9, -0.1), (1.1, 0.5)])
    def test_rejects_out_of_domain(self, p, q):
        with pytest.raises(DomainError):
            PQParams(p, q)

    def test_limit_allows_equal(self):
        params = PQParams.limit(1.0, 1.0)
        assert params.p == params.q == 1.0

    def test_limit_still_validates(self):
        with pytest.raises(DomainError):
            PQParams.limit(0.5, 0.9)


class TestPQNumber:
    @pytest.mark.parametrize(
        "n, params, expected",
        [
            (2, PQParams(0.9, 0.6), 1.5),  # p + q
            (3, PQParams(0.9, 0.6), 1.71),  # p^2 + p q + q^2 = 0.81 + 0.54 + 0.36
            (5, PQParams.limit(1.0, 1.0), 5.0),  # classical limit [n] -> n
            (0, PQParams(0.9, 0.6), 0.0),
        ],
    )
    def test_examples(self, n, params, expected):
        assert pq_number(n, params) == pytest.approx(expected, abs=1e-12)

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            pq_number(-1, PQParams(0.9, 0.6))

    @given(
        p=st.floats(min_value=0.1, max_value=1.0),
        frac=st.floats(min_value=0.05, max_value=0.999),
        n=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_summation_matches_ratio_form(self, p, frac, n):
        # exact-rational ratio (p^n - q^n)/(p - q) as the independent oracle
        q = p * frac
        if not 0.0 < q < p or p - q < 1e-6:
            return
        params = PQParams(p, q)
        fp, fq = Fraction(p), Fraction(q)
        exact = (fp**n - fq**n) / (fp - fq)
        assert pq_number(n, params) == pytest.approx(float(exact), abs=1e-12)
        assert pq_number(n, params) > 0.0


def _fresh_sum(n, p, q):
    return math.fsum(p**k * q ** (n - 1 - k) for k in range(n))


class TestPQNumberMemo:
    def test_each_number_is_summed_once_per_params(self, monkeypatch):
        real, calls = math.fsum, []

        def counted(terms):
            calls.append(None)
            return real(terms)

        monkeypatch.setattr(math, "fsum", counted)
        a, b = PQParams(0.9, 0.6), PQParams(0.9, 0.6)
        for _ in range(3):
            for n in range(6):
                pq_number(n, a)
        assert len(calls) == 6
        pq_number(3, b)
        assert len(calls) == 7  # an equal pair is a separate object with its own memo

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("route", ["constructor", "limit", "replace", "copy", "pickle"])
    def test_every_route_matches_a_fresh_sum(self, route, warm):
        source = PQParams(0.9, 0.6)
        if warm:
            # a memo filled before copying must not leak into a pair with another q
            for n in range(12):
                pq_number(n, source)
        params = {
            "constructor": lambda: PQParams(source.p, source.q),
            "limit": lambda: PQParams.limit(source.p, source.p),
            "replace": lambda: dataclasses.replace(source, q=0.3),
            "copy": lambda: copy.copy(source),
            "pickle": lambda: pickle.loads(pickle.dumps(source)),
        }[route]()
        for n in range(12):
            expected = _fresh_sum(n, params.p, params.q).hex()
            assert pq_number(n, params).hex() == expected
            assert pq_number(n, params).hex() == expected

    def test_memo_is_invisible_to_equality_hash_and_repr(self):
        warm, cold = PQParams(0.9, 0.6), PQParams(0.9, 0.6)
        pq_number(5, warm)
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold) == "PQParams(p=0.9, q=0.6)"
        assert PQParams.limit(1.0, 1.0) == PQParams.limit(1.0, 1.0)
        assert warm != PQParams(0.9, 0.5)


class TestSeriesArithmetic:
    def test_product(self):
        a = TruncatedSeries([1, 1], order=2)
        b = TruncatedSeries([1, -1], order=2)
        assert (a * b).coeffs == (1, 0, -1)

    def test_geometric_reciprocal(self):
        one = TruncatedSeries([1], order=3)
        geo = one / TruncatedSeries([1, -1], order=3)
        assert geo.coeffs == (1, 1, 1, 1)

    def test_compose_even_inner(self):
        phi = TruncatedSeries([1, 2, 2], order=3)
        w = TruncatedSeries.monomial(2, order=3)
        assert phi.compose(w).coeffs == (1, 0, 2, 0)

    def test_min_order_rule(self):
        a = TruncatedSeries([1, 2, 3, 4])
        b = TruncatedSeries([1, 1])
        assert (a + b).order == 1
        assert (a * b).order == 1
        assert (a / b).order == 1
        assert a.compose(TruncatedSeries([0, 1])).order == 1

    def test_scalar_operations(self):
        f = TruncatedSeries([1, 2])
        assert (2 * f).coeffs == (2, 4)
        assert (f / 2).coeffs == (0.5, 1)
        assert (f + 1).coeffs == (2, 2)
        assert (1 - f).coeffs == (0, -2)

    def test_indexing_subtraction_and_reciprocal(self):
        f = TruncatedSeries([2, 4, 6])
        assert f[2] == 6
        assert (f - 1).coeffs == (1, 4, 6)
        assert (1 / f).coeffs == (0.5, -1, 0.5)
        assert (f * (1 / f)).coeffs == (1, 0, 0)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: TruncatedSeries([]), "at least its constant coefficient"),
            (lambda: TruncatedSeries([1], order=-1), "order must be >= 0"),
            (lambda: TruncatedSeries.monomial(-1), "degree must be >= 0"),
        ],
        ids=["empty", "negative-order", "negative-degree"],
    )
    def test_malformed_series_rejected(self, build, message):
        with pytest.raises(DomainError, match=message):
            build()

    def test_divide_by_zero_constant_rejected(self):
        with pytest.raises(DomainError):
            TruncatedSeries([1, 1]) / TruncatedSeries([0, 1])

    def test_compose_nonzero_inner_constant_rejected(self):
        with pytest.raises(DomainError):
            TruncatedSeries([1, 1]).compose(TruncatedSeries([1, 1]))

    def test_division_inverts_product(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            a = TruncatedSeries(rng.normal(size=7) + 1j * rng.normal(size=7))
            b = TruncatedSeries(np.concatenate([[1.0 + 0j], rng.normal(size=6)]))
            back = (a * b) / b
            assert np.allclose(list(back), list(a), atol=1e-10)


class TestDerivativeIntegral:
    def test_monomial_rule(self):
        params = PQParams(0.9, 0.6)
        cube = TruncatedSeries.monomial(3)
        out = pq_derivative(cube, params)
        assert out.coeffs[2] == pytest.approx(1.71, abs=1e-12)
        assert out.order == 2

    def test_classical_limit_is_ordinary_derivative(self):
        f = TruncatedSeries([0, 1, 2])  # z + 2 z^2
        out = pq_derivative(f, PQParams.limit(1.0, 1.0))
        assert out.coeffs == (1, 4)

    def test_linearity_on_sparse_polynomial(self):
        params = PQParams(0.8, 0.5)
        f = TruncatedSeries([0, 0, 3, 0, 5])  # 3 z^2 + 5 z^4
        out = pq_derivative(f, params)
        expected = [0, 3 * pq_number(2, params), 0, 5 * pq_number(4, params)]
        assert np.allclose(list(out), expected, atol=1e-14)

    def test_order_zero_rejected(self):
        with pytest.raises(DomainError):
            pq_derivative(TruncatedSeries([3.0]), PQParams(0.9, 0.6))

    @given(
        coeffs=st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=8),
        alpha=st.floats(min_value=-3, max_value=3),
        beta=st.floats(min_value=-3, max_value=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_linearity_property(self, coeffs, alpha, beta):
        params = PQParams(0.95, 0.4)
        f = TruncatedSeries(coeffs)
        g = TruncatedSeries(coeffs[::-1])
        lhs = pq_derivative(alpha * f + beta * g, params)
        rhs = alpha * pq_derivative(f, params) + beta * pq_derivative(g, params)
        assert np.allclose(list(lhs), list(rhs), atol=1e-10)

    @pytest.mark.parametrize("eps", [1e-3, 1e-6])
    def test_limit_regression_towards_ordinary_derivative(self, eps):
        params = PQParams(1.0, 1.0 - eps)
        coeffs = [0.0, 1.0, -0.5, 0.25, 2.0, -1.0, 0.5, 3.0, -2.0]
        f = TruncatedSeries(coeffs)
        deformed = pq_derivative(f, params)
        ordinary = [n * coeffs[n] for n in range(1, len(coeffs))]
        err = max(abs(a - b) for a, b in zip(deformed, ordinary))
        # [n] deviates from n by at most n(n-1)/2 * eps; coefficients are O(1)
        assert err <= 100 * eps

    def test_integral_monomial(self):
        params = PQParams(0.9, 0.6)
        out = pq_integral(TruncatedSeries.monomial(2), params)
        assert out.order == 3
        assert out.coeffs[3] == pytest.approx(1 / 1.71, abs=1e-12)

    def test_integral_of_constant_classical(self):
        out = pq_integral(TruncatedSeries([1.0]), PQParams.limit(1.0, 1.0))
        assert out.coeffs == (0, 1)

    def test_derivative_integral_round_trip(self):
        rng = np.random.default_rng(7)
        for params in (PQParams(0.9, 0.6), PQParams(0.8, 0.5), PQParams.limit(1.0, 1.0)):
            for _ in range(20):
                f = TruncatedSeries(rng.normal(size=9) + 1j * rng.normal(size=9))
                back = pq_derivative(pq_integral(f, params), params)
                # (a / [n]) * [n] can be off by one ulp per coefficient
                assert np.allclose(list(back), list(f), rtol=1e-14, atol=1e-15)


class TestNumpyScalars:
    """numpy scalars on either side of a series defer to the series' own
    operators, so the result is a series of Python complex coefficients."""

    F = TruncatedSeries([1, 2, 3])

    @pytest.mark.parametrize("scalar", [np.float64(2.0), np.complex128(2.0 + 0.5j)], ids=["float64", "complex128"])
    @pytest.mark.parametrize(
        "op",
        [
            lambda s, f: s + f,
            lambda s, f: f + s,
            lambda s, f: s - f,
            lambda s, f: f - s,
            lambda s, f: s * f,
            lambda s, f: f * s,
            lambda s, f: s / f,
            lambda s, f: f / s,
        ],
        ids=["s+f", "f+s", "s-f", "f-s", "s*f", "f*s", "s/f", "f/s"],
    )
    def test_result_is_the_series_of_the_python_scalar(self, scalar, op):
        out = op(scalar, self.F)
        assert isinstance(out, TruncatedSeries)
        assert all(type(c) is complex for c in out.coeffs)
        assert out == op(complex(scalar), self.F)

    def test_left_scalar_touches_only_what_the_series_algebra_says(self):
        f = self.F
        assert (np.float64(1.0) + f).coeffs == (2, 2, 3)
        assert (np.float64(1.0) - f).coeffs == (0, -2, -3)
        assert (np.float64(2.0) * f).coeffs == (2, 4, 6)
        assert (np.float64(1.0) / f).coeffs == (1, -2, 1)


# The series algebra as it was written before its results were built
# through ``TruncatedSeries._of``: every result went through the public
# constructor and products summed with ``sum``.  Coefficients are tuples.


def _ref_series(coeffs, order=None):
    cs = [complex(c) for c in coeffs]
    if order is not None:
        if order < 0:
            raise DomainError(f"series order must be >= 0, got {order}")
        cs = (cs + [0j] * (order + 1 - len(cs)))[: order + 1]
    if not cs:
        raise DomainError("a series needs at least its constant coefficient")
    return tuple(cs)


def _ref_add(a, b):
    return _ref_series([a[k] + b[k] for k in range(min(len(a), len(b)))])


def _ref_add_scalar(a, s):
    return _ref_series((a[0] + s,) + a[1:])


def _ref_neg(a):
    return _ref_series([-c for c in a])


def _ref_mul(a, b):
    n = min(len(a), len(b)) - 1
    return _ref_series([sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1)])


def _ref_mul_scalar(a, s):
    return _ref_series([c * s for c in a])


def _ref_div(a, b):
    if b[0] == 0:
        raise DomainError("series division needs a nonzero constant term in the divisor")
    out = []
    for k in range(min(len(a), len(b))):
        acc = a[k] - sum(out[i] * b[k - i] for i in range(k))
        out.append(acc / b[0])
    return _ref_series(out)


def _ref_compose(a, w):
    if w[0] != 0:
        raise DomainError("composition needs an inner series with zero constant term")
    n = min(len(a), len(w)) - 1
    w = _ref_series(w, order=n)
    acc = _ref_series([a[n]], order=n)
    for k in range(n - 1, -1, -1):
        acc = _ref_add_scalar(_ref_mul(acc, w), a[k])
    return acc


def _ref_derivative(a, params):
    if len(a) < 2:
        raise DomainError("pq_derivative needs a series of order >= 1")
    return _ref_series([pq_number(n, params) * a[n] for n in range(1, len(a))])


def _ref_integral(a, params):
    return _ref_series([0j] + [a[n] / pq_number(n + 1, params) for n in range(len(a))])


def _ref_normalized(a):
    if not (len(a) > 1 and a[0] == 0 and a[1] == 1):
        raise DomainError("bernardi transforms need a normalized series")


def _ref_bernardi(a, bp):
    _ref_normalized(a)
    return _ref_series([0j] + [bernardi_factor(n, bp) * a[n] for n in range(1, len(a))])


def _ref_shift_down(a, k):
    if any(a[i] != 0 for i in range(k)):
        raise DomainError(f"cannot divide by z^{k}: lower-order coefficients are nonzero")
    return _ref_series(a[k:])


def _ref_bernardi_integral(a, bp):
    _ref_normalized(a)
    c = bp.c
    integrand = _ref_series([0j] * (c - 1) + list(a)) if c >= 1 else _ref_shift_down(a, 1)
    return _ref_mul_scalar(_ref_shift_down(_ref_integral(integrand, bp.base), c), pq_number(1 + c, bp.base))


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 7, -1e-310, 1.0, -1.0, 0.5]
_REAL = st.one_of(st.sampled_from(_SPECIAL), st.floats(-1e6, 1e6, allow_subnormal=True))
_COMPLEX = st.builds(complex, _REAL, _REAL)
_COEFFS = st.lists(_COMPLEX, min_size=1, max_size=9)  # orders 0 to 8
_SCALAR = st.one_of(_REAL, _COMPLEX)
_PARAMS = st.sampled_from([PQParams(0.9, 0.6), PQParams(0.8, 0.5), PQParams.limit(1.0, 1.0), PQParams(0.95, 0.3)])


def _bits(build):
    """float.hex of every coefficient part, so signed zeros count, or the
    type of the refusal."""
    try:
        out = build()
    except (DomainError, ZeroDivisionError) as exc:
        return type(exc).__name__
    coeffs = out.coeffs if isinstance(out, TruncatedSeries) else out
    assert all(type(c) is complex for c in coeffs)
    return [(c.real.hex(), c.imag.hex()) for c in coeffs]


class TestSeriesAlgebraBitForBit:
    @given(a=_COEFFS, b=_COEFFS, s=_SCALAR)
    @settings(max_examples=300, deadline=None)
    def test_arithmetic(self, a, b, s):
        f, g = TruncatedSeries(a), TruncatedSeries(b)
        a, b = tuple(f.coeffs), tuple(g.coeffs)
        cases = [
            (lambda: f + g, lambda: _ref_add(a, b)),
            (lambda: f - g, lambda: _ref_add(a, _ref_neg(b))),
            (lambda: -f, lambda: _ref_neg(a)),
            (lambda: f * g, lambda: _ref_mul(a, b)),
            (lambda: f / g, lambda: _ref_div(a, b)),
            (lambda: f + s, lambda: _ref_add_scalar(a, s)),
            (lambda: s + f, lambda: _ref_add_scalar(a, s)),
            (lambda: f - s, lambda: _ref_add_scalar(a, -complex(s))),
            (lambda: s - f, lambda: _ref_add_scalar(_ref_neg(a), s)),
            (lambda: f * s, lambda: _ref_mul_scalar(a, s)),
            (lambda: s * f, lambda: _ref_mul_scalar(a, s)),
            (lambda: f / s, lambda: _ref_mul_scalar(a, 1.0 / complex(s))),
            (lambda: s / f, lambda: _ref_div(_ref_series([s], order=len(a) - 1), a)),
        ]
        for new, ref in cases:
            assert _bits(new) == _bits(ref)

    @given(a=_COEFFS, w=_COEFFS, zero=st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), 1j]))
    @settings(max_examples=200, deadline=None)
    def test_compose(self, a, w, zero):
        w = [zero] + w
        assert _bits(lambda: TruncatedSeries(a).compose(TruncatedSeries(w))) == _bits(
            lambda: _ref_compose(_ref_series(a), _ref_series(w))
        )

    @given(a=_COEFFS, order=st.integers(-1, 10))
    @settings(max_examples=200, deadline=None)
    def test_truncate_cuts_and_pads(self, a, order):
        f = TruncatedSeries(a)
        assert _bits(lambda: f.truncate(order)) == _bits(lambda: _ref_series(f.coeffs, order=order))

    @given(a=_COEFFS, params=_PARAMS)
    @settings(max_examples=200, deadline=None)
    def test_derivative_and_integral(self, a, params):
        f = TruncatedSeries(a)
        assert _bits(lambda: pq_derivative(f, params)) == _bits(lambda: _ref_derivative(f.coeffs, params))
        assert _bits(lambda: pq_integral(f, params)) == _bits(lambda: _ref_integral(f.coeffs, params))

    @given(a=_COEFFS, params=_PARAMS, c=st.integers(0, 6), normalize=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_bernardi_routes(self, a, params, c, normalize):
        if normalize:
            a = [0j, 1 + 0j] + a
        f, bp = TruncatedSeries(a), BernardiParams(c, params)
        assert _bits(lambda: bernardi_transform(f, bp)) == _bits(lambda: _ref_bernardi(f.coeffs, bp))
        assert _bits(lambda: bernardi_transform_integral(f, bp)) == _bits(
            lambda: _ref_bernardi_integral(f.coeffs, bp)
        )
