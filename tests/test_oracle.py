import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from pqfs import oracle
from pqfs.bernardi import BernardiParams, bernardi_factor, verify_fs_bernardi
from pqfs.bounds import fs_bound_starlike
from pqfs.classes import Kernel, MaMindaTarget, SchwarzJet
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


class TestVerificationRecord:
    def test_fail_status_when_bound_exceeded(self):
        from pqfs.classes import SchwarzJet
        from pqfs.oracle import VerificationRecord

        record = VerificationRecord(
            mu=0.0,
            theoretical=1.0,
            empirical_max=1.0 + 1e-6,
            gap=-1e-6,
            attained=True,
            witness=SchwarzJet(1, 0),
            branch="max_form",
            tolerance=1e-9,
        )
        assert not record.passed
        assert record.status == "FAIL"

    def test_violated_bound_is_not_attained(self):
        # the empirical value sits 1e-6 above the theoretical one
        cfg = OracleConfig(grid_density=8, random_samples=0)
        record = oracle._record(0.0, 1.0, (1.0 + 1e-6, 0), "max_form", cfg)
        assert record.status == "FAIL"
        assert not record.attained
        assert oracle._record(0.0, 1.0, (1.0 - 1e-12, 0), "max_form", cfg).attained


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
    # nested budgets only: linspace(-1, 1, 2n-1) contains linspace(-1, 1, n),
    # and the random rows are prefix-stable in the sample count
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


def _meshgrid_jets(grid_density):
    """The grid part of the sample set built as the four-way meshgrid it
    is defined as, to check the disc x disc construction against."""
    u = np.linspace(-1.0, 1.0, grid_density)
    u1, u2, u3, u4 = (g.ravel() for g in np.meshgrid(u, u, u, u, indexing="ij"))
    w1 = u1 + 1j * u2
    inner = u3 + 1j * u4
    keep = (np.abs(w1) <= 1.0) & (np.abs(inner) <= 1.0)
    w1 = w1[keep]
    return w1, inner[keep] * (1.0 - np.abs(w1) ** 2)


@pytest.mark.parametrize("grid_density", [8, 9, 12, 16, 24, 25])
def test_grid_is_byte_equal_to_meshgrid_build(grid_density):
    grid = oracle._grid.__wrapped__(grid_density)
    w1, w2 = grid.jets(np.arange(grid.c1.size))
    r1, r2 = _meshgrid_jets(grid_density)
    assert w1.dtype == r1.dtype and w2.dtype == r2.dtype
    assert w1.tobytes() == r1.tobytes()
    assert w2.tobytes() == r2.tobytes()
    assert grid.c1.dtype == grid.c2.dtype == r1.dtype
    assert grid.c1.tobytes() == (2.0 * r1).tobytes()
    assert grid.c2.tobytes() == (2.0 * r1 * r1 + 2.0 * r2).tobytes()


@pytest.mark.parametrize("grid_density", [8, 9, 12])
def test_record_witness_is_the_meshgrid_jet_at_every_index(grid_density):
    # the witness is rebuilt from its index, one scalar at a time; past the
    # grid come the extremal jets of the tail
    cfg = OracleConfig(grid_density=grid_density, random_samples=0)
    r1, r2 = _meshgrid_jets(grid_density)
    witnesses = [oracle._record(0.0, 0.0, (0.0, i), "max", cfg).witness for i in range(r1.size + 4)]
    assert np.array([w.w1 for w in witnesses[: r1.size]]).tobytes() == r1.tobytes()
    assert np.array([w.w2 for w in witnesses[: r1.size]]).tobytes() == r2.tobytes()
    assert [(w.w1, w.w2) for w in witnesses[r1.size :]] == [(1, 0), (0, 1), (-1, 0), (0, -1)]


def test_seeds_share_one_grid():
    oracle._grid.cache_clear()
    for seed in (1, 2):
        verify_fs("starlike", 0.5, KOEBE, PQ, OracleConfig(grid_density=10, random_samples=50, seed=seed))
    info = oracle._grid.cache_info()
    assert info.misses == info.currsize == 1


def test_caches_keep_one_entry():
    # one density and one seed at a time is all any caller reuses; four
    # density-48 grids alone would hold 360 MiB
    for density, seed in ((16, 1), (24, 2), (12, 3)):
        cfg = OracleConfig(grid_density=density, random_samples=50, seed=seed)
        verify_fs("starlike", 0.5, KOEBE, PQ, cfg)
    assert oracle._grid.cache_info().currsize == 1
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
    # about 1.2k jets: the grid is symmetric, so (w1, w2) and (-w1, w2) tie
    # exactly, and small blocks put ties on both sides of block edges
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

    def test_no_call_allocates_a_set_sized_array(self):
        # with the sample set warm, a call holds a few blocks of BLOCK jets at
        # a time; one complex array over the default set is 2.7 MiB
        cfg = OracleConfig()
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
        # the grid is shared across seeds: a new seed draws 10,004 tail jets
        # (0.3 MiB kept), while the grid's c1 and c2 are 5.1 MiB
        verify_fs("starlike", 0.5, KOEBE, PQ, OracleConfig())
        oracle._sample_jets.cache_clear()
        tracemalloc.start()
        try:
            verify_fs("starlike", 0.5, KOEBE, PQ, OracleConfig(seed=DEFAULT_SEED + 1))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 0.5 * 2**20
        assert peak < 2 * 2**20
