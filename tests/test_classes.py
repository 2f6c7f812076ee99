import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqfs.classes import (
    CaratheodoryJet,
    Kernel,
    MaMindaTarget,
    MemberJet,
    SchwarzJet,
    caratheodory_from_schwarz,
    convex_member,
    deformation_numbers,
    printed_thresholds,
    sample_schwarz_jet,
    schwarz_jets_from_rows,
    starlike_member,
    subordination_residual,
)
from pqfs.pq_core import DomainError, PQParams

KOEBE = MaMindaTarget.koebe()
CLASSIC = PQParams.limit(1.0, 1.0)
PQ = PQParams(0.9, 0.6)

# frozen from the member formulas at (p, q) = (0.9, 0.6), c = (2, 2), koebe:
# a2 = 2*2 / (2*0.5) = 4, a3 = (2 / (2*0.71)) * (2 - 0.5*(1 - 1 - 2/0.5)*4) = 10/0.71
A3_STAR_PQ = 10 / 0.71


class TestTarget:
    def test_koebe_coefficients(self):
        assert (KOEBE.b1, KOEBE.b2) == (2.0, 2.0)

    def test_b2_defaults_to_zero(self):
        assert MaMindaTarget((1.5,)).b2 == 0.0

    def test_empty_target_rejected(self):
        with pytest.raises(DomainError, match="at least the coefficient b1"):
            MaMindaTarget(())

    def test_b1_zero_rejected(self):
        with pytest.raises(DomainError):
            MaMindaTarget((0.0, 1.0))

    def test_series(self):
        assert KOEBE.series(order=3).coeffs == (1, 2, 2, 0)

    def test_series_default_order(self):
        assert KOEBE.series().order == 8


class TestJets:
    @pytest.mark.parametrize(
        "w1, w2, c1, c2",
        [(1, 0, 2, 2), (0, 1, 0, 2), (0.5, 0, 1, 0.5)],
    )
    def test_caratheodory_from_schwarz(self, w1, w2, c1, c2):
        c = caratheodory_from_schwarz(SchwarzJet(w1, w2))
        assert c.c1 == pytest.approx(c1)
        assert c.c2 == pytest.approx(c2)

    @pytest.mark.parametrize("w1, w2", [(1.5, 0), (0.8, 0.5), (1, 0.1), (math.nan, 0), (0, math.nan)])
    def test_infeasible_schwarz_rejected(self, w1, w2):
        with pytest.raises(DomainError):
            SchwarzJet(w1, w2)

    @pytest.mark.parametrize("c1, c2", [(3, 0), (2, -2), (0, 2.5), (math.nan, 0), (0, math.nan)])
    def test_caratheodory_body_enforced(self, c1, c2):
        with pytest.raises(DomainError):
            CaratheodoryJet(c1, c2)

    def test_schwarz_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            j = sample_schwarz_jet(rng)
            c = CaratheodoryJet.from_schwarz(j)
            back = c.schwarz()
            assert abs(back.w1 - j.w1) < 1e-12 and abs(back.w2 - j.w2) < 1e-12

    def test_induced_jets_have_bounded_coefficients(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            c = CaratheodoryJet.from_schwarz(sample_schwarz_jet(rng))
            assert abs(c.c1) <= 2 + 1e-12
            assert abs(c.c2) <= 2 + 1e-12


class TestMembers:
    def test_starlike_classical_is_koebe_function(self):
        m = starlike_member(CaratheodoryJet(2, 2), KOEBE, CLASSIC)
        assert m.a2 == pytest.approx(2.0, abs=1e-14)
        assert m.a3 == pytest.approx(3.0, abs=1e-14)

    def test_starlike_deformed(self):
        m = starlike_member(CaratheodoryJet(2, 2), KOEBE, PQ)
        assert m.a2 == pytest.approx(4.0, abs=1e-12)
        assert m.a3 == pytest.approx(A3_STAR_PQ, abs=1e-12)

    def test_convex_classical_is_half_plane_map(self):
        m = convex_member(CaratheodoryJet(2, 2), KOEBE, CLASSIC)
        assert m.a2 == pytest.approx(1.0, abs=1e-14)
        assert m.a3 == pytest.approx(1.0, abs=1e-14)

    def test_convex_even_extremal(self):
        m = convex_member(CaratheodoryJet(0, 2), KOEBE, CLASSIC)
        assert m.a2 == 0
        assert m.a3 == pytest.approx(1 / 3, abs=1e-14)

    @pytest.mark.parametrize("ctor", [starlike_member, convex_member])
    def test_identity_function_jet(self, ctor):
        m = ctor(CaratheodoryJet(0, 0), KOEBE, PQ)
        assert m.a2 == 0 and m.a3 == 0

    @pytest.mark.parametrize("ctor", [starlike_member, convex_member])
    def test_degenerate_parameters_named_in_error(self, ctor):
        with pytest.raises(DomainError, match=r"p \+ q > 1"):
            ctor(CaratheodoryJet(1, 1), KOEBE, PQParams(0.5, 0.2))

    def test_three_below_one_also_rejected(self):
        # p + q > 1 does not imply [3] > 1; both gates are enforced
        params = PQParams(0.55, 0.5)
        assert params.p + params.q > 1
        with pytest.raises(DomainError):
            deformation_numbers(params)

    def test_a3_linear_in_c2_when_c1_vanishes(self):
        rng = np.random.default_rng(3)
        base = starlike_member(CaratheodoryJet(0, 2), KOEBE, PQ)
        for _ in range(20):
            t = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            if abs(t) > 1:
                t /= abs(t)
            m = starlike_member(CaratheodoryJet(0, 2 * t), KOEBE, PQ)
            assert m.a2 == 0
            assert abs(m.a3 - t * base.a3) < 1e-12

    def test_limit_reduces_to_q_class_formulas(self):
        # independent oracle: the p = 1 specialization uses plain q-integers
        q = 0.7
        params = PQParams(1.0, q)
        qn = lambda n: (1 - q**n) / (1 - q)
        c = CaratheodoryJet(1.2, 0.8)
        b1, b2 = 1.0, 0.5
        phi = MaMindaTarget((b1, b2))
        m = starlike_member(c, phi, params)
        a2_expected = b1 * c.c1 / (2 * (qn(2) - 1))
        a3_expected = b1 / (2 * (qn(3) - 1)) * (c.c2 - 0.5 * (1 - b2 / b1 - b1 / (qn(2) - 1)) * c.c1**2)
        assert m.a2 == pytest.approx(a2_expected, abs=1e-14)
        assert m.a3 == pytest.approx(a3_expected, abs=1e-14)
        mc = convex_member(c, phi, params)
        assert mc.a2 == pytest.approx(a2_expected / qn(2), abs=1e-14)
        assert mc.a3 == pytest.approx(a3_expected / qn(3), abs=1e-14)


class TestSubordinationResidual:
    @pytest.mark.parametrize("ctor", [starlike_member, convex_member])
    @pytest.mark.parametrize("params", [CLASSIC, PQ, PQParams(0.8, 0.5)])
    def test_constructed_jets_satisfy_subordination(self, ctor, params):
        rng = np.random.default_rng(8)
        for _ in range(200):
            j = sample_schwarz_jet(rng)
            m = ctor(CaratheodoryJet.from_schwarz(j), KOEBE, params)
            assert subordination_residual(m, j, KOEBE, params) <= 1e-10

    def test_corrupted_a3_detected(self):
        j = SchwarzJet(1, 0)
        m = starlike_member(CaratheodoryJet.from_schwarz(j), KOEBE, PQ)
        bad = MemberJet(m.a2, m.a3 + 0.1, m.kind)
        assert subordination_residual(bad, j, KOEBE, PQ) >= 0.05

    def test_extremal_jets_both_kinds(self):
        for j in (SchwarzJet(1, 0), SchwarzJet(0, 1)):
            c = CaratheodoryJet.from_schwarz(j)
            for ctor in (starlike_member, convex_member):
                m = ctor(c, KOEBE, PQ)
                assert subordination_residual(m, j, KOEBE, PQ) <= 1e-10


class TestScaledKernel:
    @pytest.mark.parametrize("kind", ["starlike", "convex"])
    def test_unit_multipliers_keep_the_kernel(self, kind):
        k = Kernel.of(kind, PQ)
        assert k.scaled(1.0, 1.0) == k

    def test_scales_and_k(self):
        k = Kernel.of("starlike", CLASSIC)  # A = 2, B = E = 1, K = 2
        s = k.scaled(2 / 3, 1 / 2)
        assert (s.A, s.B, s.E) == pytest.approx((4.0, 1.0, 1.5), abs=1e-15)
        assert s.K == pytest.approx(k.K * (2 / 3) ** 2 / (1 / 2), abs=1e-15)

    @pytest.mark.parametrize("L2, L3", [(0.0, 1.0), (1.0, -0.5), (float("inf"), 1.0), (1.0, float("nan"))])
    def test_bad_multipliers_rejected(self, L2, L3):
        with pytest.raises(DomainError, match="multipliers"):
            Kernel.of("convex", PQ).scaled(L2, L3)


def _generator_thresholds(k: Kernel, phi: MaMindaTarget, printed: tuple[float, float] | None = None):
    """``Kernel.thresholds`` as written with generator expressions over
    t = 0, 1, 1/2 and (2t - 1) b1, before its numerators were spelled out;
    with ``printed`` = ([2], [3]) of k, ``printed_thresholds``."""
    b1, b2 = phi.b1, phi.b2
    if not (b1 > 0.0 and b2 >= 0.0):
        raise DomainError(f"piecewise thresholds need b1 > 0 and b2 >= 0, got b1={b1:g}, b2={b2:g}")
    if printed is not None and k.kind == "convex":
        two, three = printed
        den = three * (three - 1.0) * b1 * b1
        head = two * two * (two - 1.0) * b1 * b1
        fac = (two * two - 1.0) ** 2
        nums = head + fac * (b2 - b1), head + fac * (b2 + b1), head + fac * b2
    else:
        den = k.K * b1 * b1
        nums = (b1 * b1 + k.B * (b2 + (2.0 * t - 1.0) * b1) for t in (0.0, 1.0, 0.5))
    if den == 0.0:
        raise DomainError(f"thresholds are not finite for b1={b1:g}, b2={b2:g}: b1^2 underflows to 0")
    out = tuple(n / den for n in nums)
    if not all(t - t == 0 for t in out):
        raise DomainError(f"thresholds are not finite for b1={b1:g}, b2={b2:g}: got {out!r}")
    return out


def _threshold_bits(build):
    try:
        return [t.hex() for t in build()]
    except DomainError as exc:
        return str(exc)


_TARGET_PART = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-200, 1e-170, 1e-162, 5e-324, 1e154, 1e200, 1e308]),
    st.floats(-5.0, 5.0),
    st.floats(-1e308, 1e308),
)


class TestThresholdsBitForBit:
    @given(
        kind=st.sampled_from(["starlike", "convex"]),
        p=st.floats(0.55, 1.0),
        frac=st.floats(0.01, 0.99),
        scale=st.one_of(st.none(), st.tuples(st.floats(1e-3, 4.0), st.floats(1e-3, 4.0))),
        b1=_TARGET_PART.filter(lambda x: x != 0.0),
        b2=_TARGET_PART,
        printed=st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_the_generator_formula(self, kind, p, frac, scale, b1, b2, printed):
        q = p * frac
        try:
            numbers = deformation_numbers(PQParams(p, q))
        except DomainError:
            return  # p + q <= 1 or [3] <= 1: no kernel
        k = Kernel.from_numbers(kind, *numbers)
        phi = MaMindaTarget((b1, b2))
        if printed:
            # the printed set is one of the deformed integers, not of a scaled kernel
            assert _threshold_bits(lambda: printed_thresholds(kind, *numbers, phi)) == _threshold_bits(
                lambda: _generator_thresholds(k, phi, numbers)
            )
            return
        if scale is not None:
            k = k.scaled(*scale)
        assert _threshold_bits(lambda: k.thresholds(phi)) == _threshold_bits(
            lambda: _generator_thresholds(k, phi)
        )

    @pytest.mark.parametrize("kind", ["starlike", "convex"])
    @pytest.mark.parametrize(
        "b, refusal",
        [
            ((1e-200, 0.0), "b1^2 underflows"),
            ((1e308, 1e308), "got ("),
            # b1^2 underflows to 0 but K b1 b1 does not, and b2 = -0.0 is the
            # one target where B (b2 + 0 b1) and B b2 differ in sign
            ((1.55e-162, -0.0), None),
        ],
    )
    def test_refusals_and_signed_zero(self, kind, b, refusal):
        k, phi = Kernel.of(kind, PQ), MaMindaTarget(b)
        bits = _threshold_bits(lambda: k.thresholds(phi))
        assert bits == _threshold_bits(lambda: _generator_thresholds(k, phi))
        if refusal is None:
            assert isinstance(bits, list) and bits[2] == "0x0.0p+0"
        else:
            assert refusal in bits


class TestPrintedThresholds:
    @pytest.mark.parametrize("params", [CLASSIC, PQ, PQParams(0.8, 0.5)])
    @pytest.mark.parametrize(
        "b", [(2.0, 2.0), (1.0, 0.5), (1.55e-162, -0.0), (1e-200, 0.0), (1e308, 1e308), (-1.0, 1.0)]
    )
    def test_starlike_is_the_plain_set(self, params, b):
        two, three = deformation_numbers(params)
        phi = MaMindaTarget(b)
        assert _threshold_bits(lambda: printed_thresholds("starlike", two, three, phi)) == _threshold_bits(
            lambda: Kernel.from_numbers("starlike", two, three).thresholds(phi)
        )


class TestJetsFromRows:
    def test_matches_the_complex_exp_formula(self):
        rows = np.random.default_rng(5).random((2000, 4))
        w1, w2 = schwarz_jets_from_rows(rows)
        r1 = np.sqrt(rows[:, 0])
        assert np.abs(w1 - r1 * np.exp(2j * np.pi * rows[:, 1])).max() <= 1e-15
        r2 = np.sqrt(rows[:, 2]) * (1.0 - r1 * r1)
        assert np.abs(w2 - r2 * np.exp(2j * np.pi * rows[:, 3])).max() <= 1e-15

    def test_no_rows(self):
        w1, w2 = schwarz_jets_from_rows(np.empty((0, 4)))
        assert w1.size == w2.size == 0 and w1.dtype == complex

    @pytest.mark.parametrize("bad", [math.nan, 1.0, -0.1, math.inf])
    def test_variates_outside_the_unit_interval_refused(self, bad):
        rows = np.full((3, 4), 0.5)
        rows[1, 2] = bad
        with pytest.raises(DomainError, match=r"\[0, 1\)"):
            schwarz_jets_from_rows(rows)

    @pytest.mark.parametrize("shape", [(4,), (3, 3), (2, 5), (2, 4, 1)])
    def test_wrong_shape_refused(self, shape):
        with pytest.raises(DomainError, match=r"shape \(n, 4\)"):
            schwarz_jets_from_rows(np.full(shape, 0.5))
