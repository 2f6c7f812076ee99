"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from pqfs.bernardi import (
    BernardiParams,
    bernardi_factor,
    bernardi_transform,
    bernardi_transform_integral,
    fs_piecewise_bernardi,
    verify_fs_bernardi,
)
from pqfs.bounds import (
    fs_bound_convex,
    fs_bound_starlike,
    fs_piecewise_convex,
    fs_piecewise_starlike,
    rho_thresholds,
    sigma_thresholds,
)
from pqfs.classes import (
    CaratheodoryJet,
    MaMindaTarget,
    convex_member,
    sample_schwarz_jet,
    starlike_member,
    subordination_residual,
)
from pqfs.cli import main
from pqfs.oracle import (
    OracleConfig,
    brute_force_caratheodory_max,
    brute_force_caratheodory_piecewise,
    sweep,
    verify_fs,
    verify_refined,
)
from pqfs.pq_core import PQParams, TruncatedSeries

KOEBE = MaMindaTarget.koebe()
CLASSIC = PQParams.limit(1.0, 1.0)
PQ_SET = [CLASSIC, PQParams(0.9, 0.6), PQParams(0.8, 0.5), PQParams(0.95, 0.9)]
PHI_SET = [KOEBE, MaMindaTarget((1.0, 0.5))]
KINDS = ("starlike", "convex")

CFG = OracleConfig()  # 11,684-jet rim grid plus 10k random samples plus forced extremals


def _report(n: int, label: str, violations: list) -> None:
    status = "PASS" if not violations else "FAIL"
    detail = "" if not violations else f" ({len(violations)} violations; first: {violations[0]})"
    print(f"ACCEPTANCE {n} {status}: {label}{detail}")
    assert not violations, f"criterion {n}: {violations[:5]}"


def test_criterion_1_caratheodory_max_oracle():
    t0 = time.perf_counter()
    violations = []
    for mu in (-2.0, -1.0, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 3.0):
        r = brute_force_caratheodory_max(mu, CFG)
        if r.empirical_max > r.theoretical + 1e-9:
            violations.append(("exceeds", mu, r.empirical_max, r.theoretical))
        if abs(r.gap) > 1e-3:
            violations.append(("not attained", mu, r.gap))
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        violations.append(("runtime", elapsed))
    _report(1, f"max-form Caratheodory oracle over 9 mu values in {elapsed:.1f}s", violations)


def test_criterion_2_caratheodory_piecewise_and_refined():
    violations = []
    for v in (-1.0, -0.25, 0.0, 0.3, 0.5, 0.7, 1.0, 1.5):
        r = brute_force_caratheodory_piecewise(v, CFG)
        if r.empirical_max > r.theoretical + 1e-9:
            violations.append(("exceeds", v, r.empirical_max, r.theoretical))
        if abs(r.gap) > 1e-3:
            violations.append(("not attained", v, r.gap))
        if 0.0 < v < 1.0:
            rr = brute_force_caratheodory_piecewise(v, CFG, refined=True)
            if rr.empirical_max > 2.0 + 1e-9:
                violations.append(("refined exceeds", v, rr.empirical_max))
            if abs(rr.gap) > 1e-3:
                violations.append(("refined not attained", v, rr.gap))
    _report(2, "piecewise Caratheodory oracle incl. refined forms over 8 v values", violations)


def test_criterion_3_soundness_and_sharpness():
    t0 = time.perf_counter()
    violations = []
    mus = np.arange(-2.0, 3.0 + 1e-9, 0.25)
    for params in PQ_SET:
        for phi in PHI_SET:
            for kind in KINDS:
                for mu in mus:
                    r = verify_fs(kind, float(mu), phi, params, CFG)
                    if r.empirical_max > r.theoretical + 1e-9:
                        violations.append(("exceeds", kind, params.p, params.q, float(mu)))
                    if abs(r.gap) > 1e-6:
                        violations.append(("gap", kind, params.p, params.q, float(mu), r.gap))
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        violations.append(("runtime", elapsed))
    n = len(PQ_SET) * len(PHI_SET) * len(KINDS) * len(mus)
    _report(3, f"soundness and sharpness over {n} (kind, params, phi, mu) cells in {elapsed:.1f}s", violations)


def test_criterion_3_attained_by_sampling_without_extremals():
    # "attained" must mean the sampled set reached the bound, not only the
    # four forced extremal jets: the rim grid reaches every sharp bound
    t0 = time.perf_counter()
    cfg = OracleConfig(include_extremals=False)
    violations = []
    records = []
    for params in PQ_SET:
        for phi in PHI_SET:
            for kind in KINDS:
                case = (kind, params.p, params.q, phi.b)
                records += [(case, e.record) for e in sweep(kind, (-2.0, 3.0, 0.25), phi, params, cfg)]
                for mu in (0.3 + 0.4j, -1.0 + 0.5j):
                    records.append((case, verify_fs(kind, mu, phi, params, cfg)))
                t1, t2, t3 = (sigma_thresholds if kind == "starlike" else rho_thresholds)(phi, params)
                for mu in (t1 + 0.6 * (t3 - t1), t3 + 0.4 * (t2 - t3)):
                    records.append((case, verify_refined(kind, float(mu), phi, params, cfg)))
                for c in (0, 3):
                    bp = BernardiParams(c, params)
                    for mu in (-1.0, 0.0, 0.5, 1.0, 2.0, 0.3 + 0.4j):
                        records.append(((*case, c), verify_fs_bernardi(kind, mu, phi, bp, cfg)))
    for case, r in records:
        if r.status != "PASS" or not r.attained:
            violations.append((*case, r.mu, r.branch, r.empirical_max, r.theoretical))
    elapsed = time.perf_counter() - t0
    _report(3, f"{len(records)} records attained without forced extremal jets in {elapsed:.1f}s", violations)


def test_criterion_4_classical_regressions():
    violations = []
    checks = [
        ("starlike mu=0", fs_bound_starlike(0.0, KOEBE, CLASSIC).value, 3.0),
        ("starlike mu=1", fs_bound_starlike(1.0, KOEBE, CLASSIC).value, 1.0),
        ("convex mu=0", fs_bound_convex(0.0, KOEBE, CLASSIC).value, 1.0),
    ]
    for name, got, expected in checks:
        if abs(got - expected) > 1e-12:
            violations.append((name, got, expected))
    for name, got, expected in zip(("sigma1", "sigma2", "sigma3"), sigma_thresholds(KOEBE, CLASSIC), (0.5, 1.0, 0.75)):
        if abs(got - expected) > 1e-12:
            violations.append((name, got, expected))
    _report(4, "classical limit values and sigma thresholds exact to 1e-12", violations)


def test_criterion_5_branch_agreement_and_continuity():
    violations = []
    rng = np.random.default_rng(424242)
    count = 0
    while count < 500:
        p = rng.uniform(0.55, 1.0)
        q = rng.uniform(0.05, p - 0.01)
        if p + q <= 1.02 or p * p + p * q + q * q <= 1.02:
            continue
        params = PQParams(p, q)
        phi = MaMindaTarget((rng.uniform(0.3, 3.0), rng.uniform(0.0, 3.0)))
        mu = rng.uniform(-3.0, 4.0)
        count += 1
        ds = abs(fs_piecewise_starlike(mu, phi, params).value - fs_bound_starlike(mu, phi, params).value)
        dc = abs(fs_piecewise_convex(mu, phi, params).value - fs_bound_convex(mu, phi, params).value)
        if ds > 1e-12 or dc > 1e-12:
            violations.append(("agreement", p, q, mu, ds, dc))
    for params in PQ_SET:
        s1, s2, _ = sigma_thresholds(KOEBE, params)
        r1, r2, _ = rho_thresholds(KOEBE, params)
        for fn, ts in ((fs_piecewise_starlike, (s1, s2)), (fs_piecewise_convex, (r1, r2))):
            for t in ts:
                jump = abs(fn(t - 1e-12, KOEBE, params).value - fn(t + 1e-12, KOEBE, params).value)
                if jump > 1e-9:
                    violations.append(("continuity", params.p, params.q, t, jump))
    _report(5, "piecewise/max-form agreement on 500 random tuples and threshold continuity", violations)


def test_criterion_6_refined_inequalities():
    violations = []
    thresholds = {"starlike": sigma_thresholds, "convex": rho_thresholds}
    for params in PQ_SET:
        for phi in PHI_SET:
            for kind in KINDS:
                t1, t2, t3 = thresholds[kind](phi, params)
                for mu in (t1 + 0.6 * (t3 - t1), t3 + 0.4 * (t2 - t3)):
                    r = verify_refined(kind, float(mu), phi, params, CFG)
                    if r.empirical_max > r.theoretical + 1e-9:
                        violations.append(("exceeds", kind, params.p, params.q, mu))
                    if abs(r.gap) > 1e-6:
                        violations.append(("gap", kind, params.p, params.q, mu, r.gap))
    _report(6, "refined inequalities hold and are attained in both windows", violations)


def test_criterion_7_subordination_consistency():
    violations = []
    rng = np.random.default_rng(7777)
    for params in PQ_SET:
        for kind, ctor in (("starlike", starlike_member), ("convex", convex_member)):
            worst = 0.0
            for _ in range(1000):
                j = sample_schwarz_jet(rng)
                m = ctor(CaratheodoryJet.from_schwarz(j), KOEBE, params)
                worst = max(worst, subordination_residual(m, j, KOEBE, params))
            if worst > 1e-10:
                violations.append((kind, params.p, params.q, worst))
    _report(7, "subordination residual <= 1e-10 on 1000 random jets per class per params", violations)


def test_criterion_8_bernardi():
    violations = []
    rng = np.random.default_rng(88)
    for i in range(100):
        params = PQ_SET[i % len(PQ_SET)]
        c = (0, 1, 2)[i % 3]
        bp = BernardiParams(c, params)
        f = TruncatedSeries([0.0, 1.0, *(rng.normal(size=7) + 1j * rng.normal(size=7))])
        a = bernardi_transform(f, bp)
        b = bernardi_transform_integral(f, bp)
        dev = max(abs(x - y) for x, y in zip(a, b))
        if dev > 1e-12:
            violations.append(("two-route", c, params.p, params.q, dev))
    for c in (0, 1, 2, 5):
        bp = BernardiParams(c, CLASSIC)
        for n in range(1, 7):
            if bernardi_factor(n, bp) != (1 + c) / (n + c):
                violations.append(("classical factor", c, n))
    mus = np.arange(-2.0, 3.0 + 1e-9, 0.25)
    for c in (1, 2):
        bp = BernardiParams(c, CLASSIC)
        for mu in mus:
            r = verify_fs_bernardi("starlike", float(mu), KOEBE, bp, CFG)
            if r.empirical_max > r.theoretical + 1e-9:
                violations.append(("operator bound", c, float(mu), r.empirical_max, r.theoretical))
    _report(8, "two-route operator equality, exact classical factors, operator bound oracle", violations)


def test_criterion_8_bernardi_bound_is_sharp():
    # the operator bound must hold and be attained for every order c >= 0;
    # for real mu the piecewise form must agree with the max form
    violations = []
    for params in PQ_SET:
        for phi in PHI_SET:
            for kind in KINDS:
                for c in range(6):
                    bp = BernardiParams(c, params)
                    for mu in (-1.0, 0.0, 0.5, 1.0, 2.0, 0.3 + 0.4j):
                        r = verify_fs_bernardi(kind, mu, phi, bp, CFG)
                        case = (kind, c, params.p, params.q, phi.b, mu, r.empirical_max, r.theoretical)
                        if r.status != "PASS" or not r.attained:
                            violations.append(("not sharp", *case))
                        if isinstance(mu, float):
                            piecewise = fs_piecewise_bernardi(kind, mu, phi, bp).value
                            if abs(piecewise - r.theoretical) > 1e-12:
                                violations.append(("piecewise", *case, piecewise))
    _report(8, "Bernardi bound sound and attained for c in 0..5 across PQ_SET x PHI_SET", violations)


def test_criterion_9_cli_determinism(tmp_path):
    violations = []
    args = [
        "sweep", "--class", "starlike", "--phi", "koebe", "--p", "0.9", "--q", "0.6",
        "--mu-range=-1:2:0.25", "--format", "csv", "--seed", "4242",
        "--grid", "16", "--samples", "4000",
    ]
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for path in paths:
        if main(args + ["--out", str(path)]) != 0:
            violations.append(("sweep exit", str(path)))
    if paths[0].read_bytes() != paths[1].read_bytes():
        violations.append(("csv bytes differ",))
    if main(["limits"]) != 0:
        violations.append(("limits exit",))
    _report(9, "byte-identical sweep CSV under a fixed seed and clean limits run", violations)
