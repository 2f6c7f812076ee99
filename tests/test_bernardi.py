import math

import numpy as np
import pytest

from pqfs.bernardi import (
    MAX_BERNARDI_ORDER,
    BernardiParams,
    bernardi_factor,
    bernardi_transform,
    bernardi_transform_integral,
    effective_numbers,
    fs_bound_bernardi,
    fs_piecewise_bernardi,
    image_kernel,
    refined_lhs_bernardi,
    thresholds_bernardi,
    verify_fs_bernardi,
)
from pqfs.bounds import fs_bound_starlike, max_form_report, refined_inequality_lhs
from pqfs.classes import CaratheodoryJet, MaMindaTarget, convex_member, printed_thresholds, starlike_member
from pqfs.oracle import OracleConfig, refined_check
from pqfs.pq_core import DomainError, PQParams, TruncatedSeries

KOEBE = MaMindaTarget.koebe()
CLASSIC = PQParams.limit(1.0, 1.0)
PQ = PQParams(0.9, 0.6)

CFG = OracleConfig(grid_density=12, random_samples=3000)


class TestParams:
    @pytest.mark.parametrize("c", [-1, 1.5, "2", MAX_BERNARDI_ORDER + 1])
    def test_invalid_order_rejected(self, c):
        with pytest.raises(DomainError):
            BernardiParams(c, PQ)

    @pytest.mark.parametrize("c", [True, False])
    def test_bool_order_rejected(self, c):
        with pytest.raises(DomainError, match="integer"):
            BernardiParams(c, PQ)

    def test_zero_order_accepted(self):
        assert BernardiParams(0, PQ).c == 0


class TestFactor:
    @pytest.mark.parametrize("bp", [BernardiParams(0, PQ), BernardiParams(3, CLASSIC)])
    def test_first_factor_is_one(self, bp):
        assert bernardi_factor(1, bp) == 1.0

    def test_classical_factor(self):
        assert bernardi_factor(2, BernardiParams(1, CLASSIC)) == pytest.approx(2 / 3, abs=1e-15)

    def test_deformed_factor(self):
        assert bernardi_factor(2, BernardiParams(1, PQ)) == pytest.approx(1.5 / 1.71, abs=1e-12)

    def test_n_zero_rejected(self):
        with pytest.raises(DomainError):
            bernardi_factor(0, BernardiParams(1, PQ))

    def test_largest_order_factors_stay_finite(self):
        # p just above 1/2 is the smallest base the bound formulas admit
        bp = BernardiParams(MAX_BERNARDI_ORDER, PQParams(0.5 + 1e-9, 0.5 - 1e-9))
        for n in (2, 3):
            assert 0.0 < bernardi_factor(n, bp) < math.inf

    def test_underflowed_integer_rejected(self):
        # the transform accepts any base; [n+c] of (0.3, 0.2) underflows to 0 here
        bp = BernardiParams(MAX_BERNARDI_ORDER, PQParams(0.3, 0.2))
        with pytest.raises(DomainError, match="not finite"):
            bernardi_factor(2, bp)
        with pytest.raises(DomainError, match="not finite"):
            bernardi_transform(TruncatedSeries([0, 1, 0.5, 0.25]), bp)

    @pytest.mark.parametrize("params", [CLASSIC, PQParams(1.0, 0.3), PQParams(1.0, 0.9)])
    @pytest.mark.parametrize("c", [0, 1, 3])
    def test_q_regime_factors_decrease_from_one(self, params, c):
        # with p = 1 the deformed integers increase in n, so L_n <= 1 strictly decrease
        bp = BernardiParams(c, params)
        factors = [bernardi_factor(n, bp) for n in range(1, 7)]
        assert factors[0] == 1.0
        assert all(0 < b < a <= 1.0 for a, b in zip(factors, factors[1:]))

    def test_classical_factor_is_exact_rational(self):
        for c in (0, 1, 2, 5):
            bp = BernardiParams(c, CLASSIC)
            for n in range(1, 7):
                assert bernardi_factor(n, bp) == (1 + c) / (n + c)


class TestTransform:
    def test_identity_fixed_point(self):
        z = TruncatedSeries([0, 1], order=4)
        assert bernardi_transform(z, BernardiParams(1, CLASSIC)).coeffs == (0, 1, 0, 0, 0)

    def test_classical_example(self):
        f = TruncatedSeries([0, 1, 1])
        out = bernardi_transform(f, BernardiParams(1, CLASSIC))
        assert out.coeffs[1] == 1.0
        assert out.coeffs[2] == pytest.approx(2 / 3, abs=1e-15)

    def test_non_normalized_rejected(self):
        with pytest.raises(DomainError):
            bernardi_transform(TruncatedSeries([1, 1]), BernardiParams(1, PQ))
        with pytest.raises(DomainError):
            bernardi_transform_integral(TruncatedSeries([0, 2]), BernardiParams(1, PQ))

    @pytest.mark.parametrize("params", [PQ, PQParams(0.8, 0.5), PQParams(1.0, 0.7)])
    @pytest.mark.parametrize("c", [0, 1, 2])
    def test_two_route_equality(self, params, c):
        rng = np.random.default_rng(31)
        bp = BernardiParams(c, params)
        for _ in range(20):
            tail = rng.normal(size=7) + 1j * rng.normal(size=7)
            f = TruncatedSeries([0.0, 1.0, *tail])
            a = bernardi_transform(f, bp)
            b = bernardi_transform_integral(f, bp)
            assert a.order == b.order == 8
            assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-12


class TestOperatorBounds:
    def test_degenerate_only_at_c_zero(self):
        # [2] L2 and [3] L3 collapse to exactly 1 at c = 0
        with pytest.raises(DomainError, match=r"\[2\]L2"):
            effective_numbers(BernardiParams(0, PQ))
        for c in (1, 2, 5):
            two_eff, three_eff = effective_numbers(BernardiParams(c, PQ))
            assert two_eff > 1.0 and three_eff > 1.0

    def test_factor_one_reduction(self):
        # with unit multipliers the kernel reproduces the plain bound exactly
        from pqfs.classes import Kernel, deformation_numbers

        two, three = deformation_numbers(PQ)
        plain = fs_bound_starlike(0.7, KOEBE, PQ)
        reduced = max_form_report(Kernel.from_numbers("starlike", two * 1.0, three * 1.0), 0.7, KOEBE)
        assert reduced.value == plain.value

    def test_application_bound_classical_c1(self):
        # L3 |a3| <= (1/2) 3: the image of the Koebe function attains it
        report = fs_bound_bernardi("starlike", 0.0, KOEBE, BernardiParams(1, CLASSIC))
        assert report.value == pytest.approx(1.5, abs=1e-12)

    def test_application_bound_classical_c2(self):
        # L3 |a3| <= (3/5) 3
        report = fs_bound_bernardi("starlike", 0.0, KOEBE, BernardiParams(2, CLASSIC))
        assert report.value == pytest.approx(1.8, abs=1e-12)

    def test_application_bound_convex_classical_c1(self):
        # L3 |a3| <= (1/2) 1
        report = fs_bound_bernardi("convex", 0.0, KOEBE, BernardiParams(1, CLASSIC))
        assert report.value == pytest.approx(0.5, abs=1e-12)

    def test_thresholds_classical_c1(self):
        # the plain thresholds (1/2, 1, 3/4) divided by L2^2 / L3 = 8/9
        t = thresholds_bernardi("starlike", KOEBE, BernardiParams(1, CLASSIC))
        assert t == pytest.approx((0.5625, 1.125, 0.84375), abs=1e-12)

    @pytest.mark.parametrize("c", [1, 2])
    @pytest.mark.parametrize("kind", ["starlike", "convex"])
    def test_branch_agreement(self, kind, c):
        bp = BernardiParams(c, CLASSIC)
        for mu in np.arange(-2.0, 3.01, 0.25):
            max_form = fs_bound_bernardi(kind, mu, KOEBE, bp).value
            piecewise = fs_piecewise_bernardi(kind, mu, KOEBE, bp).value
            assert abs(max_form - piecewise) <= 1e-12

    def test_printed_variant_keeps_thresholds_drops_multipliers(self):
        bp = BernardiParams(1, CLASSIC)
        report = fs_piecewise_bernardi("starlike", 0.8, KOEBE, bp, printed_form=True)
        # mid branch of the effective thresholds, but the plain-number value b1/([3]-1)
        assert report.branch == "mid_printed"
        assert report.value == pytest.approx(1.0, abs=1e-12)
        assert report.thresholds == pytest.approx((2 / 3, 8 / 9, 7 / 9), abs=1e-12)

    @pytest.mark.parametrize(
        "kind, paper",
        [
            ("starlike", (0.649230769230769, 0.9488757396449697, 0.7990532544378693)),
            ("convex", (0.8105780609922616, 1.8717738007613762, 1.3411759308768187)),
        ],
    )
    def test_image_kernel_has_no_printed_thresholds(self, kind, paper):
        # the image kernel used to give a set that is not the paper's: the image's
        # sharp set for starlike, the plain printed set (0.9266, 2.2136, 1.5701) for convex
        bp = BernardiParams(2, PQ)
        assert printed_thresholds(kind, *effective_numbers(bp), KOEBE) == pytest.approx(paper, abs=1e-12)

    @pytest.mark.parametrize("kind", ["starlike", "convex"])
    def test_printed_piecewise_uses_the_printed_thresholds(self, kind):
        # the convex report used to carry the effective integers' plain thresholds
        bp = BernardiParams(1, CLASSIC)
        report = fs_piecewise_bernardi(kind, 0.8, KOEBE, bp, printed_form=True)
        assert report.thresholds == printed_thresholds(kind, *effective_numbers(bp), KOEBE)

    @pytest.mark.parametrize("c", [1, 2])
    @pytest.mark.parametrize("kind", ["starlike", "convex"])
    def test_oracle_on_transformed_jets(self, kind, c):
        bp = BernardiParams(c, CLASSIC)
        for mu in (-1.0, 0.0, 0.5, 1.0, 2.0):
            record = verify_fs_bernardi(kind, mu, KOEBE, bp, CFG)
            assert record.empirical_max <= record.theoretical + 1e-9

    @pytest.mark.parametrize("params", [PQ, CLASSIC])
    @pytest.mark.parametrize("kind", ["starlike", "convex"])
    def test_refined_cap_holds_and_is_attained(self, kind, params):
        # the oracle's refined check over the image kernel, against the cap of refined_lhs_bernardi
        member = starlike_member if kind == "starlike" else convex_member
        m = member(CaratheodoryJet(1.0, 0.5), KOEBE, params)
        for c in range(6):
            bp = BernardiParams(c, params)
            k = image_kernel(kind, bp)
            t1, t2, t3 = k.thresholds(KOEBE)
            for side, mu in (("low", (t1 + t3) / 2.0), ("high", (t3 + t2) / 2.0)):
                record = refined_check(k, mu, KOEBE, CFG)
                _, cap = refined_lhs_bernardi(f"{kind}_{side}", m, mu, KOEBE, bp)
                assert record.theoretical == cap
                assert record.branch == f"refined_{side}"
                assert record.status == "PASS" and record.attained

    def test_transformed_member_jet(self):
        c = CaratheodoryJet(2, 2)
        m = starlike_member(c, KOEBE, CLASSIC)
        a2, a3 = image_kernel("starlike", BernardiParams(1, CLASSIC)).member(c.c1, c.c2, KOEBE)
        assert a2 == pytest.approx(m.a2 * 2 / 3, abs=1e-14)
        assert a3 == pytest.approx(m.a3 * 1 / 2, abs=1e-14)

    def test_refined_holds_on_transformed_jets(self):
        bp = BernardiParams(1, CLASSIC)
        rng = np.random.default_rng(37)
        t1, t2, t3 = thresholds_bernardi("convex", KOEBE, bp)
        mu = t1 + 0.6 * (t3 - t1)
        from pqfs.classes import sample_schwarz_jet

        for _ in range(100):
            j = sample_schwarz_jet(rng)
            m = convex_member(CaratheodoryJet.from_schwarz(j), KOEBE, CLASSIC)
            lhs, rhs = refined_lhs_bernardi("convex_low", m, mu, KOEBE, bp)
            assert lhs <= rhs + 1e-9

    def test_plain_numbers_are_checked_once_per_call(self, monkeypatch):
        # every public bound call checks [2] and [3] of its base pair once
        import pqfs.bernardi
        import pqfs.classes

        real, calls = pqfs.classes.deformation_numbers, []

        def counted(params):
            calls.append(params)
            return real(params)

        monkeypatch.setattr(pqfs.classes, "deformation_numbers", counted)
        monkeypatch.setattr(pqfs.bernardi, "deformation_numbers", counted)
        bp = BernardiParams(1, PQ)
        small = OracleConfig(grid_density=8, random_samples=0)
        for call in (
            lambda: fs_bound_bernardi("starlike", 0.5, KOEBE, bp),
            lambda: thresholds_bernardi("convex", KOEBE, bp),
            lambda: printed_thresholds("convex", *effective_numbers(bp), KOEBE),
            lambda: fs_piecewise_bernardi("starlike", 0.5, KOEBE, bp),
            lambda: fs_piecewise_bernardi("starlike", 0.5, KOEBE, bp, printed_form=True),
            lambda: verify_fs_bernardi("convex", 0.5, KOEBE, bp, small),
        ):
            calls.clear()
            call()
            assert calls == [PQ]

    def test_refined_lhs_computes_each_multiplier_once(self, monkeypatch):
        import pqfs.bernardi

        real, calls = pqfs.bernardi.bernardi_factor, []

        def counted(n, bp):
            calls.append(n)
            return real(n, bp)

        monkeypatch.setattr(pqfs.bernardi, "bernardi_factor", counted)
        bp = BernardiParams(1, CLASSIC)
        m = convex_member(CaratheodoryJet(1.0, 0.5), KOEBE, CLASSIC)
        t1, _, t3 = thresholds_bernardi("convex", KOEBE, bp)
        mu = (t1 + t3) / 2.0
        calls.clear()
        lhs, cap = refined_lhs_bernardi("convex_low", m, mu, KOEBE, bp)
        assert sorted(calls) == [2, 3]
        assert lhs <= cap

    @pytest.mark.parametrize("printed", [False, True])
    def test_non_finite_thresholds_rejected(self, printed):
        huge = MaMindaTarget((1e308, 1e308))
        with pytest.raises(DomainError, match="thresholds are not finite"):
            if printed:
                printed_thresholds("convex", *effective_numbers(BernardiParams(2, PQ)), huge)
            else:
                thresholds_bernardi("convex", huge, BernardiParams(2, PQ))
        with pytest.raises(DomainError, match="thresholds are not finite"):
            fs_piecewise_bernardi("starlike", 0.5, huge, BernardiParams(2, PQ), printed_form=printed)

    def test_refined_window_must_match_member_kind(self):
        bp = BernardiParams(1, CLASSIC)
        m = starlike_member(CaratheodoryJet(2, 2), KOEBE, CLASSIC)
        message = "window 'convex_low' does not match a starlike member jet"
        with pytest.raises(DomainError, match=message):
            refined_lhs_bernardi("convex_low", m, 0.5, KOEBE, bp)
        with pytest.raises(DomainError, match=message):
            refined_inequality_lhs("convex_low", m, 0.5, KOEBE, CLASSIC)

    def test_refined_window_gating(self):
        bp = BernardiParams(1, CLASSIC)
        m = starlike_member(CaratheodoryJet(2, 2), KOEBE, CLASSIC)
        with pytest.raises(DomainError, match="needs mu in"):
            refined_lhs_bernardi("starlike_low", m, 0.1, KOEBE, bp)
