import math

import numpy as np
import pytest

from pqfs.bounds import (
    caratheodory_piecewise_bound,
    fs_bound_convex,
    fs_bound_starlike,
    fs_piecewise_convex,
    fs_piecewise_starlike,
    ma_minda_bound,
    refined_inequality_lhs,
    rho_thresholds,
    sigma_thresholds,
    v_convex,
    v_starlike,
)
from pqfs.classes import CaratheodoryJet, Kernel, MaMindaTarget, convex_member, starlike_member
from pqfs.pq_core import DomainError, PQParams

KOEBE = MaMindaTarget.koebe()
CLASSIC = PQParams.limit(1.0, 1.0)
PQ = PQParams(0.9, 0.6)

PARAM_SET = [CLASSIC, PQ, PQParams(0.8, 0.5), PQParams(0.95, 0.9), PQParams(1.0, 0.5)]


def _random_valid_tuple(rng):
    """(mu, phi, params) with b1 > 0, b2 >= 0 and nondegenerate integers."""
    while True:
        p = rng.uniform(0.55, 1.0)
        q = rng.uniform(0.05, p - 0.01)
        params = PQParams(p, q)
        two = p + q
        three = p * p + p * q + q * q
        if two > 1.02 and three > 1.02:
            break
    phi = MaMindaTarget((rng.uniform(0.3, 3.0), rng.uniform(0.0, 3.0)))
    return rng.uniform(-3.0, 4.0), phi, params


class TestCaratheodoryMaxima:
    @pytest.mark.parametrize("mu, expected", [(0.5, 2.0), (2.0, 6.0), (0.0, 2.0)])
    def test_ma_minda_bound(self, mu, expected):
        assert ma_minda_bound(mu) == expected

    def test_ma_minda_complex(self):
        assert ma_minda_bound(1 + 1j) == pytest.approx(2 * abs(1 + 2j))

    @pytest.mark.parametrize("v, expected", [(-1.0, 6.0), (0.5, 2.0), (1.5, 4.0)])
    def test_piecewise(self, v, expected):
        assert caratheodory_piecewise_bound(v) == expected

    # max(1, nan) is 1, so an unchecked NaN would give a plausible 2.0
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fn", [ma_minda_bound, caratheodory_piecewise_bound])
    def test_non_finite_argument_rejected(self, fn, x):
        with pytest.raises(DomainError, match="must be finite"):
            fn(x)

    def test_ma_minda_non_finite_complex_rejected(self):
        with pytest.raises(DomainError, match="must be finite"):
            ma_minda_bound(complex(1.0, math.nan))

    @pytest.mark.parametrize("joint", [0.0, 1.0])
    def test_piecewise_continuous_at_joints(self, joint):
        left = caratheodory_piecewise_bound(joint - 1e-12)
        right = caratheodory_piecewise_bound(joint + 1e-12)
        assert abs(left - right) <= 1e-9


class TestVScalar:
    def test_classical_koebe_values(self):
        assert v_starlike(0.0, KOEBE, CLASSIC) == pytest.approx(-1.0, abs=1e-14)
        assert v_starlike(0.75, KOEBE, CLASSIC) == pytest.approx(0.5, abs=1e-14)

    def test_cancellation_point(self):
        # with b2 = b1 the bracket vanishes exactly where K mu = 1
        phi = MaMindaTarget((3.0, 3.0))
        assert v_starlike(0.5, phi, CLASSIC) == pytest.approx(0.0, abs=1e-14)

    def test_convex_classical(self):
        assert v_convex(0.0, KOEBE, CLASSIC) == pytest.approx(-1.0, abs=1e-14)


class TestMaxFormBounds:
    def test_starlike_classical(self):
        assert fs_bound_starlike(0.0, KOEBE, CLASSIC).value == pytest.approx(3.0, abs=1e-14)
        assert fs_bound_starlike(1.0, KOEBE, CLASSIC).value == pytest.approx(1.0, abs=1e-14)

    def test_starlike_deformed(self):
        # (|b1|/([3]-1)) max(1, |b2/b1 + (b1/([2]-1))(1 - 0)|) = (2/0.71) * 5
        report = fs_bound_starlike(0.0, KOEBE, PQ)
        assert report.value == pytest.approx(10 / 0.71, abs=1e-12)
        assert report.branch == "max_form"

    def test_convex_classical(self):
        assert fs_bound_convex(0.0, KOEBE, CLASSIC).value == pytest.approx(1.0, abs=1e-14)
        assert fs_bound_convex(1.0, KOEBE, CLASSIC).value == pytest.approx(1 / 3, abs=1e-14)

    def test_convex_small_target_hits_max_floor(self):
        phi = MaMindaTarget((0.05, 0.0))
        assert fs_bound_convex(0.0, phi, CLASSIC).value == pytest.approx(0.05 / 6, abs=1e-14)

    def test_complex_mu_accepted(self):
        report = fs_bound_starlike(1 + 1j, KOEBE, CLASSIC)
        assert report.value == pytest.approx(17**0.5, abs=1e-12)

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(DomainError, match=r"p \+ q > 1"):
            fs_bound_starlike(0.0, KOEBE, PQParams(0.5, 0.2))

    # max(1, nan) is 1, so a NaN mu used to give a finite, plausible bound
    @pytest.mark.parametrize(
        "mu", [math.nan, math.inf, -math.inf, complex(math.nan, 0.0), complex(1.0, math.inf)]
    )
    @pytest.mark.parametrize("fn", [fs_bound_starlike, fs_bound_convex])
    def test_non_finite_mu_rejected(self, fn, mu):
        with pytest.raises(DomainError, match="mu must be finite"):
            fn(mu, KOEBE, PQ)

    @pytest.mark.parametrize(
        "b", [(math.nan, 1.0), (2.0, math.nan), (math.inf, 0.0), (1.0, 0.5, -math.inf)]
    )
    def test_non_finite_target_rejected(self, b):
        with pytest.raises(DomainError, match="finite"):
            MaMindaTarget(b)

    def test_overflowing_bound_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            fs_bound_starlike(1e308, KOEBE, PQ)


class TestThresholds:
    def test_sigma_classical_koebe(self):
        assert sigma_thresholds(KOEBE, CLASSIC) == pytest.approx((0.5, 1.0, 0.75), abs=1e-12)

    def test_rho_classical_koebe(self):
        assert rho_thresholds(KOEBE, CLASSIC) == pytest.approx((2 / 3, 4 / 3, 1.0), abs=1e-12)

    def test_rho_printed_variant(self):
        # comparison form with ([2]^2 - 1)^2 on the (b2 -+ b1) terms
        printed = rho_thresholds(KOEBE, CLASSIC, printed_form=True)
        assert printed == pytest.approx((2 / 3, 13 / 6, 17 / 12), abs=1e-12)

    @pytest.mark.parametrize("params", PARAM_SET)
    def test_symmetric_spacing_when_b2_equals_b1(self, params):
        phi = MaMindaTarget((1.7, 1.7))
        t1, t2, t3 = sigma_thresholds(phi, params)
        assert t3 - t1 == pytest.approx(t2 - t3, abs=1e-12)

    @pytest.mark.parametrize("params", PARAM_SET)
    @pytest.mark.parametrize("fn", [sigma_thresholds, rho_thresholds])
    def test_ordering(self, params, fn):
        t1, t2, t3 = fn(MaMindaTarget((1.0, 0.5)), params)
        assert t1 <= t3 <= t2

    @pytest.mark.parametrize("b", [(-1.0, 1.0), (1.0, -0.5)])
    def test_hypotheses_enforced(self, b):
        with pytest.raises(DomainError):
            sigma_thresholds(MaMindaTarget(b), CLASSIC)

    @pytest.mark.parametrize("kind, printed", [("starlike", False), ("convex", False), ("convex", True)])
    def test_non_finite_thresholds_rejected(self, kind, printed):
        # b1 * b1 overflows, which would make every threshold NaN
        with pytest.raises(DomainError, match=r"not finite for b1=1e\+308, b2=1e\+308"):
            Kernel.of(kind, PQ).thresholds(MaMindaTarget((1e308, 1e308)), printed)

    def test_piecewise_branch_needs_finite_thresholds(self):
        with pytest.raises(DomainError, match="not finite"):
            fs_piecewise_starlike(0.8, MaMindaTarget((2e154, 0.0)), PQ)


class TestPiecewiseBounds:
    @pytest.mark.parametrize(
        "mu, value, branch",
        [(0.0, 3.0, "below_sigma1"), (0.75, 1.0, "mid"), (2.0, 5.0, "above_sigma2")],
    )
    def test_starlike_classical(self, mu, value, branch):
        report = fs_piecewise_starlike(mu, KOEBE, CLASSIC)
        assert report.value == pytest.approx(value, abs=1e-12)
        assert report.branch == branch
        assert report.thresholds == pytest.approx((0.5, 1.0, 0.75), abs=1e-12)

    @pytest.mark.parametrize(
        "mu, value, branch",
        [(0.0, 1.0, "below_rho1"), (0.5, 0.5, "below_rho1"), (1.0, 1 / 3, "mid_rho"), (2.0, 1.0, "above_rho2")],
    )
    def test_convex_classical(self, mu, value, branch):
        report = fs_piecewise_convex(mu, KOEBE, CLASSIC)
        assert report.value == pytest.approx(value, abs=1e-12)
        assert report.branch == branch

    def test_convex_agrees_with_max_form_at_mu_two(self):
        assert fs_piecewise_convex(2.0, KOEBE, CLASSIC).value == pytest.approx(
            fs_bound_convex(2.0, KOEBE, CLASSIC).value, abs=1e-14
        )

    def test_complex_mu_rejected(self):
        with pytest.raises(DomainError):
            fs_piecewise_starlike(1 + 1j, KOEBE, CLASSIC)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_non_finite_mu_rejected(self, mu):
        with pytest.raises(DomainError):
            fs_piecewise_starlike(mu, KOEBE, PQ)

    def test_branch_agreement_random(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            mu, phi, params = _random_valid_tuple(rng)
            star = abs(
                fs_piecewise_starlike(mu, phi, params).value
                - fs_bound_starlike(mu, phi, params).value
            )
            conv = abs(
                fs_piecewise_convex(mu, phi, params).value - fs_bound_convex(mu, phi, params).value
            )
            assert star <= 1e-12 and conv <= 1e-12

    @pytest.mark.parametrize("params", PARAM_SET)
    def test_continuity_at_thresholds(self, params):
        for fn, thr in (
            (fs_piecewise_starlike, sigma_thresholds(KOEBE, params)),
            (fs_piecewise_convex, rho_thresholds(KOEBE, params)),
        ):
            for t in thr[:2]:
                lo = fn(t - 1e-12, KOEBE, params).value
                hi = fn(t + 1e-12, KOEBE, params).value
                assert abs(lo - hi) <= 1e-9

    @pytest.mark.parametrize("params", PARAM_SET)
    def test_monotone_outside_mid_branch(self, params):
        t1, t2, _ = sigma_thresholds(KOEBE, params)
        below = [fs_piecewise_starlike(mu, KOEBE, params).value for mu in np.linspace(t1 - 3, t1, 30)]
        above = [fs_piecewise_starlike(mu, KOEBE, params).value for mu in np.linspace(t2, t2 + 3, 30)]
        assert all(a >= b - 1e-12 for a, b in zip(below, below[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(above, above[1:]))

    def test_positivity(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            mu, phi, params = _random_valid_tuple(rng)
            assert fs_piecewise_starlike(mu, phi, params).value > 0
            assert fs_piecewise_convex(mu, phi, params).value > 0
            assert fs_bound_starlike(mu, phi, params).value > 0
            assert fs_bound_convex(mu, phi, params).value > 0


class TestRefinedInequality:
    def test_starlike_low_window_equality_at_extremal(self):
        m = starlike_member(CaratheodoryJet(2, 2), KOEBE, CLASSIC)
        lhs, rhs = refined_inequality_lhs("starlike_low", m, 0.6, KOEBE, CLASSIC)
        # |3 - 0.6*4| + (0.6 - 0.5)*4 = 0.6 + 0.4 = 1.0 = b1/([3]-1)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(1.0, abs=1e-12)

    def test_identity_jet_trivially_inside(self):
        m = starlike_member(CaratheodoryJet(0, 0), KOEBE, CLASSIC)
        lhs, rhs = refined_inequality_lhs("starlike_low", m, 0.6, KOEBE, CLASSIC)
        assert lhs == 0.0 and lhs <= rhs

    def test_convex_equality_at_upper_low_window_edge(self):
        m = convex_member(CaratheodoryJet(2, 2), KOEBE, CLASSIC)
        rho3 = rho_thresholds(KOEBE, CLASSIC)[2]
        lhs, rhs = refined_inequality_lhs("convex_low", m, rho3, KOEBE, CLASSIC)
        assert abs(lhs - rhs) <= 1e-9

    def test_high_window(self):
        m = starlike_member(CaratheodoryJet(2, 2), KOEBE, CLASSIC)
        lhs, rhs = refined_inequality_lhs("starlike_high", m, 0.9, KOEBE, CLASSIC)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_window_violation_identified(self):
        m = starlike_member(CaratheodoryJet(2, 2), KOEBE, CLASSIC)
        with pytest.raises(DomainError, match="needs mu in"):
            refined_inequality_lhs("starlike_low", m, 0.2, KOEBE, CLASSIC)

    def test_high_window_violation_identified(self):
        m = starlike_member(CaratheodoryJet(2, 2), KOEBE, CLASSIC)
        with pytest.raises(DomainError, match=r"^starlike_high needs mu in \[0.75, 1\), got mu=0.6$"):
            refined_inequality_lhs("starlike_high", m, 0.6, KOEBE, CLASSIC)

    def test_kind_mismatch_rejected(self):
        m = starlike_member(CaratheodoryJet(2, 2), KOEBE, CLASSIC)
        with pytest.raises(DomainError):
            refined_inequality_lhs("convex_low", m, 0.9, KOEBE, CLASSIC)

    def test_unknown_window_rejected(self):
        m = starlike_member(CaratheodoryJet(2, 2), KOEBE, CLASSIC)
        with pytest.raises(DomainError):
            refined_inequality_lhs("starlike_middle", m, 0.6, KOEBE, CLASSIC)
