import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqfs import oracle
from pqfs.bernardi import BernardiParams, bernardi_factor, image_kernel, verify_fs_bernardi
from pqfs.bounds import fs_bound_starlike
from pqfs.classes import Kernel, MaMindaTarget, SchwarzJet, schwarz_jets_from_rows
from pqfs.oracle import (
    DEFAULT_SEED,
    MAX_GRID_DENSITY,
    MAX_RANDOM_SAMPLES,
    MAX_SWEEP_POINTS,
    OracleConfig,
    brute_force_caratheodory_max,
    brute_force_caratheodory_piecewise,
    summarize,
    sweep,
    verify_fs,
    verify_refined,
)
from pqfs.pq_core import DomainError, PQParams

KOEBE = MaMindaTarget.koebe()
CLASSIC = PQParams.limit(1.0, 1.0)
PQ = PQParams(0.9, 0.6)

CFG = OracleConfig(grid_density=12, random_samples=3000)


class TestConfig:
    def test_defaults(self):
        cfg = OracleConfig()
        assert cfg.grid_density == 24 and cfg.include_extremals
        assert cfg.random_samples == 0  # random jets are opt-in

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(grid_density=7),
            dict(tolerance=0.0),
            dict(tolerance=-1.0),
            dict(random_samples=-5),
            # an infinite tolerance would pass every check without testing anything
            dict(tolerance=math.inf),
            dict(tolerance=math.nan),
            # budgets are checked before anything is sampled
            dict(grid_density=MAX_GRID_DENSITY + 1),
            dict(grid_density=10**9),
            dict(random_samples=MAX_RANDOM_SAMPLES + 1),
            # budgets and the seed are integers; 12.5 would fail later in np.linspace
            dict(grid_density=12.5),
            dict(random_samples=10.5),
            dict(random_samples=True),
            dict(seed=-1),
            dict(seed=1.5),
            dict(seed=True),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            OracleConfig(**kwargs)

    @pytest.mark.parametrize("tolerance", [True, "1e-9", 1j, None])
    def test_tolerance_must_be_a_real_number(self, tolerance):
        # True is an int and would be stored as a tolerance of 1; the others
        # failed with a bare TypeError in the range comparison
        with pytest.raises(DomainError, match="tolerance must be a real number"):
            OracleConfig(tolerance=tolerance)

    @pytest.mark.parametrize("tolerance", [1, np.float32(0.5), np.float64(1e-6)])
    def test_tolerance_is_stored_as_a_float(self, tolerance):
        cfg = OracleConfig(tolerance=tolerance)
        assert type(cfg.tolerance) is float and cfg.tolerance == float(tolerance)

    def test_budget_limits_are_inclusive(self):
        # construction only: a config samples nothing until a check runs
        cfg = OracleConfig(grid_density=MAX_GRID_DENSITY, random_samples=MAX_RANDOM_SAMPLES)
        assert (cfg.grid_density, cfg.random_samples) == (MAX_GRID_DENSITY, MAX_RANDOM_SAMPLES)


class TestCaratheodoryOracles:
    @pytest.mark.parametrize("mu, expected", [(0.0, 2.0), (1.0, 2.0), (2.0, 6.0)])
    def test_max_form(self, mu, expected):
        record = brute_force_caratheodory_max(mu, CFG)
        assert record.theoretical == expected
        assert record.empirical_max <= record.theoretical + 1e-9
        assert record.gap <= 1e-6
        assert record.attained

    def test_complex_mu_spot_check(self):
        record = brute_force_caratheodory_max(0.3 + 0.4j, CFG)
        assert record.theoretical == pytest.approx(2.0)
        assert record.attained

    def test_witness_reproduces_empirical_maximum(self):
        record = brute_force_caratheodory_max(2.0, CFG)
        w = record.witness
        c1, c2 = 2 * w.w1, 2 * w.w1**2 + 2 * w.w2
        assert abs(c2 - 2.0 * c1**2) == pytest.approx(record.empirical_max, abs=1e-12)

    @pytest.mark.parametrize("v, expected", [(0.0, 2.0), (-1.0, 6.0)])
    def test_piecewise(self, v, expected):
        record = brute_force_caratheodory_piecewise(v, CFG)
        assert record.theoretical == expected
        assert record.empirical_max <= expected + 1e-9
        assert record.gap <= 1e-6

    @pytest.mark.parametrize("v", [0.3, 0.4, 0.5, 0.7])
    def test_refined_forms_capped_at_two(self, v):
        record = brute_force_caratheodory_piecewise(v, CFG, refined=True)
        assert record.theoretical == 2.0
        assert record.empirical_max <= 2.0 + 1e-9
        assert record.gap <= 1e-6

    @pytest.mark.parametrize("v", [-0.1, 0.0, 1.0, 1.5])
    def test_refined_outside_open_interval_rejected(self, v):
        with pytest.raises(DomainError):
            brute_force_caratheodory_piecewise(v, CFG, refined=True)

    # an unchecked NaN gives a FAIL record with a NaN maximum
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fn", [brute_force_caratheodory_max, brute_force_caratheodory_piecewise])
    def test_non_finite_argument_rejected(self, fn, x):
        with pytest.raises(DomainError, match="must be finite"):
            fn(x, CFG)

    @pytest.mark.parametrize("refined", [False, True])
    def test_complex_v(self, refined):
        # a complex v used to reach "0.0 < v" or caratheodory_piecewise_bound and raise TypeError
        with pytest.raises(DomainError, match="real v only"):
            brute_force_caratheodory_piecewise(0.5 + 1j, CFG, refined)
        record = brute_force_caratheodory_piecewise(0.5 + 0j, CFG, refined)
        assert record == brute_force_caratheodory_piecewise(0.5, CFG, refined)


class TestVerificationRecord:
    def test_fail_status_when_bound_exceeded(self):
        from pqfs.classes import SchwarzJet
        from pqfs.oracle import VerificationRecord

        record = VerificationRecord(
            mu=0.0,
            theoretical=1.0,
            empirical_max=1.0 + 1e-6,
            witness=SchwarzJet(1, 0),
            branch="max_form",
            tolerance=1e-9,
        )
        assert not record.passed
        assert record.status == "FAIL"
        assert record.gap == 1.0 - (1.0 + 1e-6)
        assert not record.attained

    def test_violated_bound_is_not_attained(self):
        # the empirical value sits 1e-6 above the theoretical one
        cfg = OracleConfig(grid_density=8, random_samples=0)
        record = oracle._record(0.0, 1.0, (1.0 + 1e-6, 0), "max_form", cfg)
        assert record.status == "FAIL"
        assert not record.attained
        assert oracle._record(0.0, 1.0, (1.0 - 1e-12, 0), "max_form", cfg).attained

    def test_attained_is_relative_to_a_bound_above_one(self):
        cfg = OracleConfig(grid_density=8, random_samples=0)
        # tolerance 1e-9: at a bound of 1000 a gap of 1e-7 is 1e-10 relative
        assert oracle._record(0.0, 1000.0, (1000.0 - 1e-7, 0), "max_form", cfg).attained
        assert not oracle._record(0.0, 1000.0, (1000.0 - 2e-6, 0), "max_form", cfg).attained
        # passed keeps its absolute slack, so a violation never reads as attained
        above = oracle._record(0.0, 1000.0, (1000.0 + 1e-7, 0), "max_form", cfg)
        assert above.status == "FAIL" and not above.attained
        # below a bound of 1 the slack stays absolute
        assert not oracle._record(0.0, 0.5, (0.5 - 2e-9, 0), "max_form", cfg).attained

    def test_large_bound_attained_by_the_grid(self):
        cfg = OracleConfig(include_extremals=False)
        record = verify_fs("starlike", 0.9, MaMindaTarget((1000.0, 0.0)), PQ, cfg)
        assert record.status == "PASS" and record.attained
        assert cfg.tolerance < record.gap <= 1e-11 * record.theoretical


class TestVerifyFS:
    def test_starlike_classical(self):
        record = verify_fs("starlike", 0.0, KOEBE, CLASSIC, CFG)
        assert record.theoretical == pytest.approx(3.0, abs=1e-12)
        assert record.empirical_max == pytest.approx(3.0, abs=1e-6)
        assert record.status == "PASS"

    def test_starlike_deformed_attains_bound(self):
        record = verify_fs("starlike", 0.0, KOEBE, PQ, CFG)
        assert record.theoretical == pytest.approx(10 / 0.71, abs=1e-12)
        assert abs(record.gap) <= 1e-6

    def test_convex_classical(self):
        record = verify_fs("convex", 0.0, KOEBE, CLASSIC, CFG)
        assert record.theoretical == pytest.approx(1.0, abs=1e-12)
        assert record.empirical_max == pytest.approx(1.0, abs=1e-6)

    def test_soundness_across_mu(self):
        for mu in np.arange(-2.0, 3.01, 0.5):
            record = verify_fs("convex", mu, KOEBE, PQ, CFG)
            assert record.empirical_max <= record.theoretical + 1e-9
            assert record.gap <= 1e-6

    def test_matches_bounds_module(self):
        record = verify_fs("starlike", 0.4, KOEBE, PQ, CFG)
        assert record.theoretical == fs_bound_starlike(0.4, KOEBE, PQ).value


class TestVerifyRefined:
    def test_low_window_equality(self):
        record = verify_refined("starlike", 0.6, KOEBE, CLASSIC, CFG)
        assert record.theoretical == pytest.approx(1.0, abs=1e-12)
        assert record.empirical_max <= 1.0 + 1e-9
        assert record.gap <= 1e-6
        assert record.branch == "refined_low"

    def test_high_window_equality(self):
        record = verify_refined("starlike", 0.9, KOEBE, CLASSIC, CFG)
        assert record.branch == "refined_high"
        assert record.empirical_max <= record.theoretical + 1e-9
        assert record.gap <= 1e-6

    def test_outside_windows_rejected(self):
        with pytest.raises(DomainError, match="refined"):
            verify_refined("starlike", 0.2, KOEBE, CLASSIC, CFG)


class TestSweep:
    def test_classical_koebe_sweep(self):
        entries = sweep("starlike", (-2.0, 3.0, 0.05), KOEBE, CLASSIC, CFG)
        assert len(entries) == 101
        assert all(e.status == "PASS" for e in entries)
        mus = [e.mu for e in entries]
        assert mus == sorted(mus)

    def test_empty_range(self):
        assert sweep("starlike", (1.0, 1.0, 0.1), KOEBE, CLASSIC, CFG) == []

    def test_degenerate_parameters_recorded_per_mu(self):
        entries = sweep("starlike", (0.0, 1.0, 0.5), KOEBE, PQParams(0.5, 0.2), CFG)
        assert [e.status for e in entries] == ["SKIP(domain)"] * 3
        assert all("p + q > 1" in e.error for e in entries)

    def test_bad_step_rejected(self):
        with pytest.raises(DomainError):
            sweep("starlike", (0.0, 1.0, 0.0), KOEBE, CLASSIC, CFG)

    @pytest.mark.parametrize(
        "mu_range",
        [(0.0, math.inf, 1.0), (0.0, 1.0, math.inf), (math.nan, 1.0, 0.5), (-math.inf, 0.0, 1.0)],
    )
    def test_non_finite_range_rejected(self, mu_range):
        with pytest.raises(DomainError, match="finite"):
            sweep("starlike", mu_range, KOEBE, CLASSIC, CFG)

    @pytest.mark.parametrize("mu_range", [(0.0, 1.0, 1e-9), (-1e308, 1e308, 1.0)])
    def test_too_many_points_rejected(self, mu_range):
        with pytest.raises(DomainError, match=str(MAX_SWEEP_POINTS)):
            sweep("starlike", mu_range, KOEBE, CLASSIC, CFG)

    def test_point_limit_is_inclusive(self):
        # exactly MAX_SWEEP_POINTS points pass the check; the params make every
        # entry a cheap domain skip
        entries = sweep("starlike", (0.0, MAX_SWEEP_POINTS - 1.0, 1.0), KOEBE, PQParams(0.5, 0.2), CFG)
        assert len(entries) == MAX_SWEEP_POINTS

    @pytest.mark.parametrize("kind, params", [("starlike", PQParams(0.5, 0.2)), ("bogus", CLASSIC)])
    def test_setup_domain_error_keeps_its_text(self, kind, params):
        with pytest.raises(DomainError) as info:
            verify_fs(kind, 0.0, KOEBE, params, CFG)
        entries = sweep(kind, (0.0, 1.0, 0.25), KOEBE, params, CFG)
        assert [e.mu for e in entries] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert all(e.record is None and e.error == str(info.value) for e in entries)

    @pytest.mark.parametrize("kind", ["starlike", "convex"])
    @pytest.mark.parametrize("params", [PQ, CLASSIC], ids=["pq", "classic"])
    def test_records_bit_identical_to_verify_fs(self, kind, params):
        entries = sweep(kind, (-2.0, 3.0, 0.25), KOEBE, params, CFG)
        assert len(entries) == 21
        for e in entries:
            r, single = e.record, verify_fs(kind, e.mu, KOEBE, params, CFG)
            assert r.theoretical.hex() == single.theoretical.hex()
            assert r.empirical_max.hex() == single.empirical_max.hex()
            assert r.gap.hex() == single.gap.hex()
            assert r.witness == single.witness
            assert r.branch == single.branch
            assert r.attained == single.attained

    def test_summary_counts(self):
        entries = sweep("starlike", (0.0, 1.0, 0.5), KOEBE, CLASSIC, CFG)
        assert summarize(entries) == (3, 0, 0)

    def test_determinism_with_fixed_seed(self):
        a = sweep("convex", (0.0, 1.0, 0.25), KOEBE, PQ, CFG)
        b = sweep("convex", (0.0, 1.0, 0.25), KOEBE, PQ, CFG)
        assert a == b


class TestRefinementMonotonicity:
    # nested budgets only: the grid at density 2n-1 contains the grid at n
    # (test_grid_is_nested_in_the_grid_at_2n_minus_1), and the random rows
    # are prefix-stable in the sample count
    def test_grid_refinement(self):
        empirical = []
        for g in (8, 15, 29):
            cfg = OracleConfig(grid_density=g, random_samples=500, include_extremals=False)
            empirical.append(verify_fs("starlike", 0.3, KOEBE, PQ, cfg).empirical_max)
        assert empirical[0] <= empirical[1] <= empirical[2]

    def test_random_refinement(self):
        empirical = []
        for n in (1000, 4000, 16000):
            cfg = OracleConfig(grid_density=8, random_samples=n, include_extremals=False)
            empirical.append(verify_fs("convex", 0.3, KOEBE, PQ, cfg).empirical_max)
        assert empirical[0] <= empirical[1] <= empirical[2]


def _rim_jets(grid_density):
    """The grid part of the sample set built jet by jet in Python floats,
    to check the array build against: radius |w1| = linspace(0, 1, n),
    then arg w1, then arg w2, each angle 2 pi k / (n - 1), with one arg w1
    at w1 = 0 and one arg w2 at w2 = 0, every jet scaled by 1 - 2**-40."""
    n, inset = grid_density, 1.0 - 2.0**-40
    unit = [(math.cos(t), math.sin(t)) for t in (2.0 * math.pi * k / (n - 1) for k in range(n - 1))]
    w1, w2 = [], []
    for i, r in enumerate(np.linspace(0.0, 1.0, n).tolist()):
        m1, m2 = inset * r, inset * (1.0 - r * r)
        for cos1, sin1 in unit if i > 0 else unit[:1]:
            for cos2, sin2 in unit if i < n - 1 else unit[:1]:
                w1.append(complex(m1 * cos1, m1 * sin1))
                w2.append(complex(m2 * cos2, m2 * sin2))
    return np.array(w1), np.array(w2)


@pytest.mark.parametrize("grid_density", [8, 9, 12, 16, 24, 25])
def test_grid_is_byte_equal_to_loop_build(grid_density):
    n = grid_density
    w1, w2 = oracle._grid(n)
    r1, r2 = _rim_jets(n)
    assert r1.size == (n - 2) * (n - 1) ** 2 + 2 * (n - 1)
    assert w1.dtype == w2.dtype == r1.dtype
    assert w1.tobytes() == r1.tobytes()
    assert w2.tobytes() == r2.tobytes()
    cfg = OracleConfig(grid_density=n, random_samples=0, include_extremals=False)
    _, _, c1, c2 = oracle._caratheodory_samples(cfg)
    assert c1.dtype == c2.dtype == r1.dtype
    assert c1.tobytes() == (2.0 * r1).tobytes()
    assert c2.tobytes() == (2.0 * r1 * r1 + 2.0 * r2).tobytes()


@pytest.mark.parametrize("grid_density", [8, 12, 24])
def test_grid_is_nested_in_the_grid_at_2n_minus_1(grid_density):
    small = oracle._grid(grid_density)
    large = oracle._grid(2 * grid_density - 1)
    jets = set(zip(*(w.tolist() for w in large)))
    assert all(jet in jets for jet in zip(*(w.tolist() for w in small)))


@pytest.mark.parametrize("grid_density", [8, 9, 24, MAX_GRID_DENSITY])
def test_every_grid_jet_is_strictly_feasible(grid_density):
    # on the rim itself the functionals round a few ulps above the bounds
    w1, w2 = oracle._grid(grid_density)
    r1 = np.abs(w1)
    assert (r1 < 1.0).all()
    assert (np.abs(w2) < 1.0 - r1 * r1).all()


@pytest.mark.parametrize("grid_density", [8, 9, 12])
def test_record_witness_is_the_loop_built_jet_at_every_index(grid_density):
    # past the grid come the extremal jets
    cfg = OracleConfig(grid_density=grid_density, random_samples=0)
    r1, r2 = _rim_jets(grid_density)
    witnesses = [oracle._record(0.0, 0.0, (0.0, i), "max", cfg).witness for i in range(r1.size + 4)]
    assert np.array([w.w1 for w in witnesses[: r1.size]]).tobytes() == r1.tobytes()
    assert np.array([w.w2 for w in witnesses[: r1.size]]).tobytes() == r2.tobytes()
    assert [(w.w1, w.w2) for w in witnesses[r1.size :]] == [(1, 0), (0, 1), (-1, 0), (0, -1)]


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("random_samples", [0, 1, 7999, 8000, 16_003])
@pytest.mark.parametrize("include_extremals", [False, True])
def test_tail_is_byte_equal_to_one_draw(monkeypatch, block, random_samples, include_extremals):
    # the set is the grid, then one draw of random rows, then the extremal
    # jets; its blocks are views of it, whatever BLOCK is
    if block:
        monkeypatch.setattr(oracle, "BLOCK", block)
    cfg = OracleConfig(grid_density=8, random_samples=random_samples, include_extremals=include_extremals, seed=11)
    w1, w2, c1, c2 = oracle._caratheodory_samples(cfg)
    g1, g2 = _rim_jets(8)
    d1, d2 = schwarz_jets_from_rows(np.random.default_rng(11).random((random_samples, 4)))
    e1, e2 = ([1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]) if include_extremals else ([], [])
    r1, r2 = np.concatenate([g1, d1, e1]), np.concatenate([g2, d2, e2])
    assert w1.dtype == w2.dtype == c1.dtype == c2.dtype == r1.dtype == r2.dtype
    assert w1.tobytes() == r1.tobytes()
    assert w2.tobytes() == r2.tobytes()
    assert c1.tobytes() == (2.0 * r1).tobytes()
    assert c2.tobytes() == (2.0 * r1 * r1 + 2.0 * r2).tobytes()
    assert not any(a.flags.writeable for a in (w1, w2, c1, c2))
    starts, b1, b2 = zip(*oracle._caratheodory_blocks(cfg))
    assert list(starts) == list(range(0, r1.size, oracle.BLOCK))
    assert np.concatenate(b1).tobytes() == c1.tobytes() and np.concatenate(b2).tobytes() == c2.tobytes()


def test_seeds_share_one_grid():
    # without random jets the seed picks nothing: a new seed is a cache hit
    # on the whole set, grid and extremal jets
    first = oracle._caratheodory_samples(OracleConfig(seed=1))
    assert oracle._caratheodory_samples(OracleConfig(seed=2)) is first
    records = [verify_fs("starlike", 0.5, KOEBE, PQ, OracleConfig(seed=seed)) for seed in (1, 2)]
    assert records[0] == records[1]


def test_caches_keep_one_entry():
    # one config at a time is all any caller reuses; four density-48 sets
    # alone would hold 25 MiB
    for density, seed in ((16, 1), (24, 2), (12, 3)):
        cfg = OracleConfig(grid_density=density, random_samples=50, seed=seed)
        verify_fs("starlike", 0.5, KOEBE, PQ, cfg)
    assert oracle._sample_jets.cache_info().currsize == 1


def test_block_temporaries_stay_below_the_mmap_threshold():
    # glibc serves a chunk of 128 KiB or more (its 16-byte header included)
    # from mmap or from the heap depending on what was freed before
    assert oracle.BLOCK * np.dtype(complex).itemsize + 16 <= 128 * 1024


def test_threads_at_two_densities_match_serial_records():
    # with one entry per cache, the two threads evict each other's sample
    # sets; every record must still be the one a serial run gives
    cfgs = [OracleConfig(grid_density=d, random_samples=300, seed=d) for d in (10, 12)]
    expected = [verify_fs("convex", 0.5, KOEBE, PQ, cfg) for cfg in cfgs]
    results: list[list] = [[], []]
    rounds = threading.Barrier(2, timeout=60)

    def work(i):
        for _ in range(20):
            rounds.wait()  # both threads start each round together
            results[i].append(verify_fs("convex", 0.5, KOEBE, PQ, cfgs[i]))

    threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[e] * 20 for e in expected]


class TestRotationClasses:
    # the prefilter's partition of the sample set (oracle._Classes)
    @pytest.mark.parametrize("grid_density", [8, 9, 12, 24, 25, MAX_GRID_DENSITY])
    @pytest.mark.parametrize("random_samples", [0, 300])
    @pytest.mark.parametrize("include_extremals", [False, True])
    def test_classes_partition_the_set(self, grid_density, random_samples, include_extremals):
        cfg = OracleConfig(grid_density=grid_density, random_samples=random_samples, include_extremals=include_extremals)
        (w1, w2, c1, c2), classes, top = oracle._sample_set(cfg)
        rows, spread, members, bounds = classes
        sizes = np.diff(bounds)
        # every jet in exactly one class, each class's members ascending
        assert bounds[0] == 0 and bounds[-1] == c1.size and (sizes > 0).all()
        assert (np.sort(members) == np.arange(c1.size)).all()
        assert (np.delete(np.diff(members), bounds[1:-1] - 1) > 0).all()
        # the representative is the first member, and every member's rows lie
        # within the spread of its representative's
        full = oracle._rows(c1, c2)
        assert rows.tobytes() == full[:, members[bounds[:-1]]].tobytes()
        assert (np.abs(full[:, members] - np.repeat(rows, sizes, axis=1)) <= spread[:, None]).all()
        assert top == oracle._top(full)
        # the grid's classes are orbits of (w1, w2) -> (e^it w1, e^2it w2),
        # and every other jet is a class of its own
        key = np.repeat(np.arange(sizes.size), sizes)
        for invariant in (np.abs(w1), np.abs(w2), w2 * np.conj(w1) ** 2):
            rep = invariant[members[bounds[:-1]]]
            assert np.allclose(invariant[members], rep[key], rtol=0.0, atol=1e-14)
        grid = oracle._grid(grid_density)[0].size
        assert (sizes[sizes.size - (c1.size - grid) :] == 1).all()
        assert not any(a.flags.writeable for a in classes)

    def test_default_set_has_556_classes(self):
        # 22 rings of 23 classes, 23 jets at w1 = 0, 23 at w2 = 0, 4 extremal jets
        _, classes, _ = oracle._sample_set(OracleConfig())
        assert classes.rows.shape == (5, 22 * 23 + 23 + 23 + 4) and classes.members.size == 11_688
        assert 0.0 < classes.spread.max() < 1e-13

    @staticmethod
    def _runs(rng, size):
        """A partition of range(size) into runs of 1 to 30 consecutive jets,
        as (members, bounds)."""
        cuts = np.cumsum(rng.integers(1, 31, size))
        return np.arange(size), np.concatenate([[0], cuts[cuts < size], [size]])

    @staticmethod
    def _classes(c1, c2, members, bounds):
        full = oracle._rows(c1, c2)
        rows = full[:, members[bounds[:-1]]]
        spread = np.abs(full[:, members] - np.repeat(rows, np.diff(bounds), axis=1)).max(axis=1)
        return oracle._Classes(rows, spread, members, bounds)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        cfg=st.sampled_from([OracleConfig(), OracleConfig(grid_density=9, random_samples=300, seed=4)]),
        partition=st.sampled_from(["rotation", "runs"]),
        route=st.sampled_from(["body", "starlike", "convex", "bernardi"]),
        form=st.sampled_from(["real", "complex", "refined", "sweep"]),
    )
    def test_kept_classes_hold_every_jet_the_rule_keeps(self, seed, cfg, partition, route, form):
        # per jet the rule keeps Q_j >= max Q - 2 s_mu (with a penalty, the
        # values within 2 sigma_mu); whatever the partition, the members of
        # the kept classes hold those jets, and the records are the plain ones
        rng = np.random.default_rng(seed)
        (_, _, c1, c2), classes, top = oracle._sample_set(cfg)
        if partition == "runs":
            classes = self._classes(c1, c2, *self._runs(rng, c1.size))
        phi = MaMindaTarget((float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.0, 1.0))))
        kernel = {
            "body": None,
            "starlike": Kernel.of("starlike", PQ),
            "convex": Kernel.of("convex", PQ),
            "bernardi": image_kernel("convex", BernardiParams(2, PQ)),
        }[route]
        r = oracle._BODY if kernel is None else oracle._member_route(kernel, phi)
        mus, penalty = [float(rng.uniform(-3.0, 3.0))], None
        if form == "complex":
            mus = [complex(*rng.uniform(-3.0, 3.0, 2))]
        if form == "refined":
            penalty = float(rng.choice([1e-10, 0.3, 0.5, 5.0]))
        if form == "sweep":
            mus = np.sort(rng.uniform(-3.0, 3.0, 21)).tolist()
        weight = None if penalty is None else penalty * r.gamma * r.gamma
        full = oracle._rows(c1, c2)
        for mu in mus:
            coef, slack, fits = oracle._quadratic(mu, r, top, penalty)
            assert fits
            v = np.array(coef) @ full[:4]
            if weight is not None:
                v = np.sqrt(np.maximum(v, 0.0)) + weight * full[4]
            rule = np.flatnonzero(v >= v.max() - 2.0 * slack)
            out = np.empty((1, classes.rows.shape[1]))
            margin = oracle._margins([coef], [slack], classes.spread, weight)
            kept = oracle._kept_classes(np.array([coef]), margin, classes.rows, weight, out)
            held = oracle._gather(classes.members, classes.bounds[kept], np.diff(classes.bounds)[kept])
            assert np.isin(rule, held).all()
        functional = oracle._fs_functional if penalty is None else oracle._refined_functional(penalty)
        plain = oracle._argmax(((s, *r.jets(a, b)) for s, a, b in oracle._caratheodory_blocks(cfg)), [functional(mu) for mu in mus])
        got = oracle._prefiltered_argmax(iter([(0, c1, c2, *classes)]), top, mus, r, penalty)
        assert [(v.hex(), i) for v, i in got] == [(v.hex(), i) for v, i in plain]


class TestPlainArgmaxReference:
    # every check against np.argmax over the whole sample set at once
    CFG = OracleConfig(grid_density=10, random_samples=700, seed=5)

    @staticmethod
    def _expect(values, w1, w2):
        i = int(np.argmax(values))
        return float(values[i]).hex(), SchwarzJet(complex(w1[i]), complex(w2[i]))

    @staticmethod
    def _got(r):
        return r.empirical_max.hex(), r.witness

    @pytest.mark.parametrize("block", [None, 97])
    def test_records_equal_the_reference(self, monkeypatch, block):
        if block:
            monkeypatch.setattr(oracle, "BLOCK", block)
        cfg = self.CFG
        w1, w2, c1, c2 = oracle._caratheodory_samples(cfg)
        got, expected = [], []
        for kind in ("starlike", "convex"):
            k = Kernel.of(kind, PQ)
            a2, a3 = k.member(c1, c2, KOEBE)
            mus = [-1.0 + 0.5 * j for j in range(7)]
            for mu, e in zip(mus, sweep(kind, (-1.0, 2.0, 0.5), KOEBE, PQ, cfg)):
                got.append(self._got(e.record))
                expected.append(self._expect(np.abs(a3 - mu * a2 * a2), w1, w2))
            mu = 0.3 + 0.4j
            got.append(self._got(verify_fs(kind, mu, KOEBE, PQ, cfg)))
            expected.append(self._expect(np.abs(a3 - mu * a2 * a2), w1, w2))
            t1, _, t3 = k.thresholds(KOEBE)
            mu = t1 + 0.5 * (t3 - t1)
            _, penalty = k.refined_penalty(mu, KOEBE)
            got.append(self._got(verify_refined(kind, mu, KOEBE, PQ, cfg)))
            expected.append(self._expect(k.refined_functional(a2, a3, mu, penalty), w1, w2))
            bp = BernardiParams(2, PQ)
            L2, L3 = bernardi_factor(2, bp), bernardi_factor(3, bp)
            for mu in (0.5, -1.0 + 0.5j):
                got.append(self._got(verify_fs_bernardi(kind, mu, KOEBE, bp, cfg)))
                expected.append(self._expect(abs(L3 * a3 - mu * (L2 * a2) ** 2), w1, w2))
        mu = 0.3 + 0.4j
        got.append(self._got(brute_force_caratheodory_max(mu, cfg)))
        expected.append(self._expect(np.abs(c2 - mu * c1 * c1), w1, w2))
        got.append(self._got(brute_force_caratheodory_piecewise(-1.0, cfg)))
        expected.append(self._expect(np.abs(c2 - -1.0 * c1 * c1), w1, w2))
        got.append(self._got(brute_force_caratheodory_piecewise(0.7, cfg, refined=True)))
        expected.append(self._expect(np.abs(c2 - 0.7 * c1 * c1) + (1.0 - 0.7) * np.abs(c1) ** 2, w1, w2))
        assert got == expected


class TestBlockedReduction:
    # 512 jets: the extremal jets (1, 0) and (-1, 0) tie exactly, as do (0, 1)
    # and (0, -1), and small blocks put ties on both sides of block edges
    SMALL = OracleConfig(grid_density=8, random_samples=200)

    @staticmethod
    def _key(r):
        return (
            r.theoretical.hex(),
            r.empirical_max.hex(),
            r.gap.hex(),
            r.witness,
            r.branch,
            r.attained,
        )

    def _records(self):
        cfg = self.SMALL
        records = [e.record for e in sweep("starlike", (-1.0, 2.0, 0.5), KOEBE, PQ, cfg)]
        records += [verify_fs("convex", mu, KOEBE, PQ, cfg) for mu in (0.0, 0.3 + 0.4j)]
        records.append(verify_refined("starlike", 0.6, KOEBE, CLASSIC, cfg))
        records.append(verify_refined("starlike", 0.9, KOEBE, CLASSIC, cfg))
        records.append(verify_fs_bernardi("starlike", 0.5, KOEBE, BernardiParams(2, PQ), cfg))
        records.append(brute_force_caratheodory_max(0.3 + 0.4j, cfg))
        records.append(brute_force_caratheodory_piecewise(-1.0, cfg))
        records.append(brute_force_caratheodory_piecewise(0.3, cfg, refined=True))
        return [self._key(r) for r in records]

    def test_records_do_not_depend_on_block_size(self, monkeypatch):
        whole = self._records()  # one block: the default BLOCK exceeds the set
        for block in (1, 7, 64, 10**9):
            monkeypatch.setattr(oracle, "BLOCK", block)
            assert self._records() == whole, block

    def test_argmax_keeps_first_index_across_blocks(self):
        data = np.array([1.0, 3.0, 2.0, 3.0, 3.0, math.nan, 0.0, math.nan])

        def blocks(size):
            for start in range(0, data.size, size):
                part = data[start : start + size]
                yield start, part, part

        for size in (1, 2, 3, 5, 8):
            got = oracle._argmax(blocks(size), [lambda x, y: x, lambda x, y: np.nan_to_num(y)])
            assert got[0][1] == int(np.argmax(data)) == 5 and math.isnan(got[0][0])
            assert got[1] == (3.0, 1)

    @pytest.mark.parametrize("mu", [0.5, 0.3 + 0.4j])
    def test_argmax_evaluates_a_lone_jet_as_a_pair(self, mu):
        # numpy's in-place complex multiply rounds some jets differently on a
        # one-element array: make one of them the maximum, then blocks of one
        # jet must give the bits of one whole block
        rng = np.random.default_rng(5)
        w1, w2 = schwarz_jets_from_rows(rng.random((400, 4)))
        x, y = 2.0 * w1, 2.0 * w1 * w1 + 2.0 * w2
        functional = oracle._fs_functional(mu)
        full = functional(x, y)
        alone = [j for j in range(x.size) if functional(x[j : j + 1], y[j : j + 1])[0] != full[j]]
        j = max(alone, key=lambda i: full[i], default=int(np.argmax(full)))
        x[np.arange(x.size) != j] *= 0.5
        y[np.arange(y.size) != j] *= 0.25
        whole = oracle._argmax(iter([(0, x, y)]), [functional])
        ones = oracle._argmax(((s, x[s : s + 1], y[s : s + 1]) for s in range(x.size)), [functional])
        assert [(v.hex(), i) for v, i in ones] == [(v.hex(), i) for v, i in whole]
        assert whole[0][1] == j

    def test_no_call_allocates_a_set_sized_array(self):
        # with the sample set warm, a call holds a few blocks of BLOCK jets at
        # a time; one complex array over this set of 201,712 jets is 3.1 MiB
        cfg = OracleConfig(grid_density=MAX_GRID_DENSITY, random_samples=100_000)
        calls = [
            lambda: verify_fs("starlike", 0.5, KOEBE, PQ, cfg),
            lambda: sweep("convex", (-2.0, 3.0, 0.25), KOEBE, PQ, cfg),
            lambda: verify_refined("starlike", 0.6, KOEBE, CLASSIC, cfg),
            lambda: verify_fs_bernardi("convex", 0.5, KOEBE, BernardiParams(1, PQ), cfg),
        ]
        for call in calls:
            call()
        tracemalloc.start()
        try:
            for call in calls:
                tracemalloc.reset_peak()
                call()
                assert tracemalloc.get_traced_memory()[1] < 2 * 2**20
        finally:
            tracemalloc.stop()

    def test_fresh_seed_allocates_only_its_tail(self):
        # at the default budget a seed's tail is empty: a new seed reuses the
        # cached set (0.7 MiB) and keeps no new array
        first = oracle._caratheodory_samples(OracleConfig())
        tracemalloc.start()
        try:
            verify_fs("starlike", 0.5, KOEBE, PQ, OracleConfig(seed=DEFAULT_SEED + 1))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert oracle._caratheodory_samples(OracleConfig(seed=DEFAULT_SEED + 2)) is first
        assert kept < 64 * 2**10
        assert peak < 2 * 2**20


class TestSweepPrefilter:
    # oracle._prefiltered_argmax against the plain reduction it replaces in
    # every check: the sweep's many mu, and one mu (real, complex, refined)
    CHUNK = oracle._Q_BLOCKS  # mu per chunk on a block of BLOCK jets
    SPECIALS = ["repeats", "extremals", "zeros", "nan", "inf", "tiny", "big_mu", "huge_mu"]
    # 1e150 overflows the squares, 1e-170 underflows them, 1e-161 makes
    # them subnormal, 1e-81 makes |x^2|^2 subnormal while mu^2 |x^2|^2 is
    # normal (all four take the plain path), 3e-68 puts |x^2| near the
    # smallest the prefilter takes, (1e75, 1e150) keeps the squares just
    # below overflow, and in (4e76, 2e153) they are finite but Q need not be
    SCALES = [
        (1.0, 1.0),
        (1e150, 1e150),
        (1e-170, 1e-170),
        (1e-161, 1e-161),
        (1e-81, 1e-81),
        (3e-81, 1e-81),
        (3e-68, 1e-68),
        (1e-80, 1e-160),
        (1e75, 1e150),
        (4e76, 2e153),
        (1e77, 1.0),
        (1e-170, 1.0),
    ]

    @staticmethod
    def _hex(best):
        return [(v.hex(), i) for v, i in best]

    @staticmethod
    def _data(rng, size, specials, scales):
        """x = c1 and y = c2 of random jets of the body, scaled, with the
        special values put in at random places."""
        w1, w2 = schwarz_jets_from_rows(rng.random((size, 4)))
        sx, sy = scales
        x, y = 2.0 * sx * w1, sy * (2.0 * w1 * w1 + 2.0 * w2)

        def spots(count):
            return rng.integers(0, size, count)

        if "tiny" in specials:  # jets whose squares underflow beside normal ones
            at = spots(size // 8 + 1)
            tiny = 10.0 ** -rng.uniform(60.0, 100.0, at.size)
            x[at], y[at] = tiny * x[at], tiny * tiny * y[at]
        if "repeats" in specials:
            to, fro = spots(10), spots(10)
            x[to], y[to] = x[fro], y[fro]
        if "extremals" in specials:
            # (w1, w2) = (1, 0), (0, 1), (-1, 0), (0, -1): two exact ties per mu
            at = spots(4)
            x[at], y[at] = [2.0 * sx, 0.0, -2.0 * sx, 0.0], [2.0 * sy, 2.0 * sy, 2.0 * sy, -2.0 * sy]
        if "zeros" in specials:
            at = spots(3)
            x[at], y[at] = 0.0, 0.0
        if "nan" in specials:
            x[spots(1)] = complex(math.nan, 0.0)
            y[spots(1)] = complex(0.0, math.nan)
        if "inf" in specials:
            y[spots(1)] = math.inf
        return x, y

    @staticmethod
    def _blocks(x, y, block):
        """The plain blocks (start, x, y), and the prefilter's blocks
        (start, x, y, rows) with the top of the rows."""
        rows = oracle._rows(x, y)
        starts = range(0, x.size, block)
        plain = [(s, x[s : s + block], y[s : s + block]) for s in starts]
        return plain, [(s, a, b, rows[:, s : s + block]) for s, a, b in plain], oracle._top(rows)

    @staticmethod
    def _mus(rng, count, specials):
        pool = [0.0, 0.25, 0.5, -1.0, 3.0, 1e10, -1e-300] + ([1e160] if "huge_mu" in specials else [])
        mus = [float(rng.choice(pool)) if rng.random() < 0.5 else rng.uniform(-3.0, 3.0) for _ in range(count)]
        if "big_mu" in specials:  # |mu| from 1e20 to 1e150, where mu^2 scales the underflow of |x^2|^2
            mus = [m * 10.0 ** rng.uniform(20.0, 150.0) if rng.random() < 0.5 else m for m in mus]
        return mus

    @settings(max_examples=100, deadline=None)
    # a lone candidate of one mu (see the next test), and squares in the
    # subnormal range
    @example(seed=1, block=64, mu_count=1, scales=(1e75, 1e150), specials=set())
    @example(seed=0, block=64, mu_count=1, scales=(1e-161, 1e-161), specials=set())
    # |x^2|^2 subnormal, its rounding times mu^2 far above the relative slack,
    # and |x^2| just above the smallest that takes the prefilter
    @example(seed=0, block=64, mu_count=CHUNK + 1, scales=(1e-81, 1e-81), specials={"big_mu"})
    @example(seed=0, block=64, mu_count=CHUNK + 1, scales=(3e-68, 1e-68), specials={"big_mu"})
    @given(
        seed=st.integers(0, 2**32 - 1),
        block=st.sampled_from([1, 7, 64, oracle.BLOCK]),
        mu_count=st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1, 100]),
        scales=st.sampled_from(SCALES),
        specials=st.sets(st.sampled_from(SPECIALS)),
    )
    def test_equals_the_plain_argmax(self, seed, block, mu_count, scales, specials):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, {1: 40, 7: 60, 64: 300}.get(block, 2 * block)))
        x, y = self._data(rng, size, specials, scales)
        mus = self._mus(rng, mu_count, specials)
        with np.errstate(all="ignore"):  # the NaN, inf and huge cases warn in both
            plain, blocks, top = self._blocks(x, y, block)
            got = oracle._prefiltered_argmax(iter(blocks), top, mus)
            expected = oracle._argmax(iter(plain), [oracle._fs_functional(mu) for mu in mus])
        assert self._hex(got) == self._hex(expected)

    @settings(max_examples=100, deadline=None)
    @example(seed=1, block=64, form="real", scales=(1e75, 1e150), specials=set())
    @example(seed=0, block=64, form="complex", scales=(1e-81, 1e-81), specials={"big_mu"})
    @example(seed=0, block=64, form="complex", scales=(3e-68, 1e-68), specials={"big_mu"})
    @example(seed=0, block=oracle.BLOCK, form="refined", scales=(1.0, 1.0), specials={"extremals"})
    @given(
        seed=st.integers(0, 2**32 - 1),
        block=st.sampled_from([1, 7, 64, oracle.BLOCK]),
        form=st.sampled_from(["real", "complex", "refined"]),
        scales=st.sampled_from(SCALES),
        specials=st.sets(st.sampled_from(SPECIALS)),
    )
    def test_single_mu_equals_the_plain_argmax(self, seed, block, form, scales, specials):
        # what every single check (verify, refined, the lemma checks) runs
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, {1: 40, 7: 60, 64: 300}.get(block, 2 * block)))
        x, y = self._data(rng, size, specials, scales)
        mu, penalty = self._mus(rng, 1, specials)[0], None
        if form == "complex":
            mu = complex(mu, self._mus(rng, 1, specials)[0])
        if form == "refined":
            penalty = float(rng.choice([0.0, 1e-10, 0.3, 5.0, 1e100]))
            functional = lambda a, b: Kernel.refined_functional(a, b, mu, penalty)  # noqa: E731
        else:
            functional = oracle._fs_functional(mu)
        with np.errstate(all="ignore"):
            plain, blocks, top = self._blocks(x, y, block)
            got = oracle._prefiltered_argmax(iter(blocks), top, [mu], penalty=penalty)
            expected = oracle._argmax(iter(plain), [functional])
        assert self._hex(got) == self._hex(expected)

    @pytest.mark.parametrize("mu", [0.5, 0.3 + 0.4j])
    def test_a_lone_survivor_is_evaluated_as_a_pair(self, mu):
        # numpy rounds some jets differently alone (see the next test): make
        # one of them the only jet that survives, beside jets at half scale,
        # whose values are a quarter of theirs
        rng = np.random.default_rng(5)
        w1, w2 = schwarz_jets_from_rows(rng.random((64, 4)))
        x, y = 2.0 * w1, 2.0 * w1 * w1 + 2.0 * w2
        functional = oracle._fs_functional(mu)
        full = functional(x, y)
        alone = [j for j in range(x.size) if functional(x[j : j + 1], y[j : j + 1])[0] != full[j]]
        j = max(alone, key=lambda i: full[i], default=int(np.argmax(full)))
        x[np.arange(x.size) != j] *= 0.5
        y[np.arange(y.size) != j] *= 0.25
        plain, blocks, top = self._blocks(x, y, x.size)
        got = oracle._prefiltered_argmax(iter(blocks), top, [mu])
        assert self._hex(got) == self._hex(oracle._argmax(iter(plain), [functional]))
        assert got[0][1] == j

    def test_complex_mu_on_jets_without_symmetry(self):
        # near the maximum of |c2 - mu c1^2| over the body c2 is about c1^2 / 2,
        # where the Im(beta) term of Q vanishes; jets with c2 scaled away
        # from it and no conjugate partner make that term count
        rng = np.random.default_rng(7)
        for _ in range(30):
            x, y = self._data(rng, 2000, set(), (1.0, rng.uniform(0.5, 4.0)))
            mu = complex(*rng.uniform(-3.0, 3.0, 2))
            plain, blocks, top = self._blocks(x, y, oracle.BLOCK)
            got = oracle._prefiltered_argmax(iter(blocks), top, [mu])
            assert self._hex(got) == self._hex(oracle._argmax(iter(plain), [oracle._fs_functional(mu)])), mu

    def test_refined_takes_jets_where_the_functional_vanishes(self):
        # y = mu x^2 exactly: Q rounds to either side of 0, and its square
        # root is taken of max(Q, 0); these jets win on their penalty term
        rng = np.random.default_rng(6)
        w1, w2 = schwarz_jets_from_rows(rng.random((500, 4)))
        x, y = 2.0 * w1, 2.0 * w1 * w1 + 2.0 * w2
        mu = 0.5
        y[::5] = mu * x[::5] * x[::5]
        x[::5] *= 1.5
        y[::5] *= 2.25
        functional = lambda a, b: Kernel.refined_functional(a, b, mu, 0.7)  # noqa: E731
        plain, blocks, top = self._blocks(x, y, x.size)
        got = oracle._prefiltered_argmax(iter(blocks), top, [mu], penalty=0.7)
        assert self._hex(got) == self._hex(oracle._argmax(iter(plain), [functional]))

    @pytest.mark.parametrize("phi", [KOEBE, MaMindaTarget((0.7, -0.3)), MaMindaTarget((1e-170, 0.0))])
    def test_gathered_functional_equals_the_full_block(self, phi):
        # The prefilter builds member jets from gathered (c1, c2) and evaluates
        # the functionals on them: |y - mu x^2| with an array of real mu (a
        # sweep) or one real or complex mu (a single check), and the refined
        # functional.  Its records are bit-identical to those of the plain
        # path only if numpy gives every element the bits it gives in the
        # whole block with a scalar mu.  A platform where that fails must fail
        # here, loudly, rather than change records.  Lengths start at 2: on
        # one element numpy's in-place complex multiply takes an unfused loop,
        # so the prefilter never evaluates a lone jet.
        rng = np.random.default_rng(2024)
        kernels = [Kernel.of("starlike", PQ), Kernel.of("convex", PQ), image_kernel("convex", BernardiParams(2, PQ))]
        mus = [-2.0 + 0.25 * j for j in range(21)] + rng.uniform(-3.0, 3.0, 3).tolist()
        complex_mus = [0.3 + 0.4j, -1.0 + 0.5j, complex(*rng.uniform(-3.0, 3.0, 2))]
        refined = [(0.6, 0.1), (0.9, 0.3), (rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0))]
        for route in [oracle._BODY] + [oracle._member_route(k, phi) for k in kernels]:
            for _, c1, c2 in oracle._caratheodory_blocks(OracleConfig()):
                x, y = route.jets(c1, c2)
                full = np.stack([oracle._fs_functional(mu)(x, y) for mu in mus])
                full_complex = [oracle._fs_functional(mu)(x, y) for mu in complex_mus]
                full_refined = [Kernel.refined_functional(x, y, mu, p) for mu, p in refined]
                for _ in range(14):
                    length = int(rng.integers(2, 20 if rng.random() < 0.5 else 3000))
                    row = np.sort(rng.integers(0, len(mus), length))
                    col = rng.integers(0, c1.size, length)
                    gx, gy = route.jets(c1[col], c2[col])
                    assert gx.tobytes() == x[col].tobytes() and gy.tobytes() == y[col].tobytes(), length
                    got = oracle._fs_functional(np.array(mus)[row])(gx, gy)
                    assert got.tobytes() == full[row, col].tobytes(), length
                    for mu, values in zip(mus[:3] + complex_mus, [*full[:3], *full_complex]):
                        assert oracle._fs_functional(mu)(gx, gy).tobytes() == values[col].tobytes(), (mu, length)
                    for (mu, p), values in zip(refined, full_refined):
                        got = Kernel.refined_functional(gx, gy, mu, p)
                        assert got.tobytes() == values[col].tobytes(), (mu, p, length)

    @pytest.mark.parametrize(
        "kind, phi, params, mu_range, fallback",
        [
            ("starlike", MaMindaTarget((1e150, 0.0)), PQ, (-2.0, 3.0, 0.25), True),  # squares overflow
            ("convex", MaMindaTarget((1e150, 0.0)), PQ, (-2.0, 3.0, 0.25), True),
            ("starlike", MaMindaTarget((1e-170, 0.0)), PQ, (-2.0, 3.0, 0.25), True),  # squares underflow
            # |a2^2|^2 subnormal, and mu^2 times its rounding above every relative slack
            ("starlike", MaMindaTarget((3e-81, 0.0)), PQ, (1e100, 1.1e100, 1e98), True),
            ("convex", MaMindaTarget((3e-81, 0.0)), PQ, (1e100, 1.1e100, 1e98), True),
            # |a2^2| just above the smallest the prefilter takes
            ("starlike", MaMindaTarget((3e-68, 0.0)), PQ, (1e100, 1.1e100, 1e98), False),
            ("convex", MaMindaTarget((3e-68, 0.0)), PQ, (1e100, 1.1e100, 1e98), False),
            ("convex", MaMindaTarget((0.7, -0.3)), PQ, (-2.0, 3.0, 0.25), False),
            # at mu = 1 the quadratic cancels and every jet survives: that chunk is evaluated whole
            ("convex", KOEBE, PQParams(1.0, 1e-10), (-2.0, 3.0, 0.25), True),
        ],
    )
    def test_records_equal_verify_fs_at_extreme_targets(self, monkeypatch, kind, phi, params, mu_range, fallback):
        cfg = OracleConfig()
        blocks_in_fallback = []
        plain = oracle._argmax
        monkeypatch.setattr(oracle, "_argmax", lambda b, f: blocks_in_fallback.append(1) or plain(b, f))
        entries = sweep(kind, mu_range, phi, params, cfg)
        monkeypatch.undo()
        assert bool(blocks_in_fallback) == fallback
        # at (1e150, 0) some rows read FAIL: passed has an absolute tolerance
        for e in entries:
            single = verify_fs(kind, e.mu, phi, params, cfg)
            got = (e.record.empirical_max.hex(), e.record.witness, e.record.status)
            assert got == (single.empirical_max.hex(), single.witness, single.status), e.mu

    @pytest.mark.parametrize(
        "kind, phi, params, c, mu, prefiltered",
        [
            ("starlike", MaMindaTarget((1e150, 0.0)), PQ, None, 0.5, False),  # squares overflow
            ("convex", MaMindaTarget((1e-170, 0.0)), PQ, None, 0.5, False),  # |a2|^2 underflows
            ("starlike", MaMindaTarget((3e-81, 0.0)), PQ, None, 1e100, False),  # |a2|^2 below 2^-450
            ("starlike", MaMindaTarget((3e-68, 0.0)), PQ, None, 1e100, True),  # just above it
            ("convex", MaMindaTarget((3e-68, 0.0)), PQ, None, 1e100, True),
            ("starlike", KOEBE, PQ, None, 1e200, False),  # |beta|^2 overflows
            ("starlike", KOEBE, PQ, None, 1e160j, False),
            ("starlike", KOEBE, PQ, 5, 1e300, False),
            ("convex", KOEBE, PQParams(1.0, 1e-10), None, 1.0, False),  # the quadratic cancels
            ("convex", KOEBE, PQ, 2, 0.3 + 0.4j, True),
            ("starlike", MaMindaTarget((0.7, -0.3)), PQ, None, -1.5, True),
        ],
    )
    def test_extreme_single_checks(self, monkeypatch, kind, phi, params, c, mu, prefiltered):
        # each record is the plain path's, and the table pins which path it takes
        cfg = OracleConfig()
        k = Kernel.of(kind, params) if c is None else image_kernel(kind, BernardiParams(c, params))
        plain = oracle._argmax
        members = ((s, *k.member(c1, c2, phi)) for s, c1, c2 in oracle._caratheodory_blocks(cfg))
        (expected,) = plain(members, [oracle._fs_functional(mu)])
        calls = []
        monkeypatch.setattr(oracle, "_argmax", lambda b, f: calls.append(1) or plain(b, f))
        record = oracle.max_form_check(k, mu, phi, cfg)
        monkeypatch.undo()
        w1, w2, _, _ = oracle._caratheodory_samples(cfg)
        empirical, i = expected
        assert (record.empirical_max.hex(), record.witness) == (empirical.hex(), SchwarzJet(w1[i], w2[i]))
        assert (not calls) == prefiltered

    def test_only_the_chunks_with_a_huge_mu_take_the_plain_path(self, monkeypatch):
        # mu^2 overflows for the second CHUNK mu only; the first still go
        # through the prefilter, the others through one plain pass over the
        # set's blocks, and both give the plain bits
        cfg = OracleConfig()
        route = oracle._member_route(Kernel.of("starlike", PQ), KOEBE)
        mus = [0.25 * j for j in range(self.CHUNK)] + [1e160] * self.CHUNK
        plain = oracle._argmax
        members = [(s, *route.jets(c1, c2)) for s, c1, c2 in oracle._caratheodory_blocks(cfg)]
        expected = plain(iter(members), [oracle._fs_functional(mu) for mu in mus])
        calls = []

        def spy(blocks, functionals):
            blocks = list(blocks)
            calls.append((len(blocks), len(functionals)))
            return plain(iter(blocks), functionals)

        monkeypatch.setattr(oracle, "_argmax", spy)
        with np.errstate(over="ignore", invalid="ignore"):
            got = oracle._prefiltered_argmax(oracle._row_blocks(cfg), oracle._sample_set(cfg)[2], mus, route)
        assert self._hex(got) == self._hex(expected)
        assert len(members) > 1 and calls == [(len(members), self.CHUNK)]

    def test_thousand_mu_allocate_a_few_blocks(self):
        # Q over all 1,000 mu of a block of BLOCK jets would be 61 MiB
        cfg = OracleConfig()
        route = oracle._member_route(Kernel.of("starlike", PQ), KOEBE)
        blocks = list(oracle._row_blocks(cfg))
        top = oracle._sample_set(cfg)[2]
        mus = np.linspace(-2.0, 3.0, 1000).tolist()
        oracle._prefiltered_argmax(iter(blocks), top, mus, route)
        tracemalloc.start()
        try:
            oracle._prefiltered_argmax(iter(blocks), top, mus, route)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
