import csv
import subprocess
import sys

import pytest

from pqfs.bernardi import MAX_BERNARDI_ORDER
from pqfs.cli import MAX_REGION_GRID, _oracle_config, build_parser, emit_csv, main
from pqfs.oracle import MAX_GRID_DENSITY, MAX_RANDOM_SAMPLES, OracleConfig
from pqfs.pq_core import DomainError

FAST = ["--grid", "12", "--samples", "2000"]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundCommand:
    def test_starlike_deformed_value(self, capsys):
        code, out, _ = run(
            ["bound", "--class", "starlike", "--phi", "koebe", "--p", "0.9", "--q", "0.6", "--mu", "0"],
            capsys,
        )
        assert code == 0
        assert "value:  14.0845070423" in out
        assert "branch: max_form" in out

    def test_piecewise_form_prints_thresholds(self, capsys):
        code, out, _ = run(
            ["bound", "--class", "starlike", "--p", "1", "--q", "1", "--mu", "0", "--form", "piecewise"],
            capsys,
        )
        assert code == 0
        assert "branch: below_sigma1" in out
        assert "thresholds: t1=0.5 t2=1 t3=0.75" in out

    def test_complex_mu_max_form(self, capsys):
        code, out, _ = run(
            ["bound", "--class", "starlike", "--p", "1", "--q", "1", "--mu", "1+1j"], capsys
        )
        assert code == 0
        assert "value:  4.12310562562" in out  # sqrt(17)

    def test_complex_mu_piecewise_exit_2(self, capsys):
        code, _, err = run(
            ["bound", "--class", "starlike", "--p", "1", "--q", "1", "--mu", "1+1j",
             "--form", "piecewise"],
            capsys,
        )
        assert code == 2
        assert "real mu" in err

    def test_degenerate_parameters_exit_2(self, capsys):
        code, _, err = run(
            ["bound", "--class", "starlike", "--p", "0.5", "--q", "0.2", "--mu", "0"], capsys
        )
        assert code == 2
        assert "p + q > 1" in err

    @pytest.mark.parametrize(
        "command",
        [["bound"], ["thresholds"], ["verify", *FAST], ["sweep", "--mu-range", "0:1:0.5"], ["region", "--f", "0,1"]],
    )
    def test_pair_outside_the_domain_exit_2(self, capsys, command):
        # a shell user is told the CLI's domain, not a library constructor to call
        code, out, err = run([*command, "--p", "0.5", "--q", "0.9"], capsys)
        assert code == 2 and out == ""
        assert "need 0 < q <= p <= 1" in err and "PQParams" not in err

    @pytest.mark.parametrize("mu", ["nan", "inf", "1+nanj"])
    def test_non_finite_mu_exit_2(self, capsys, mu):
        # max(1, nan) used to let a NaN mu print 2.81690140845 and exit 0
        code, out, err = run(["bound", "--p", "0.9", "--q", "0.6", "--mu", mu], capsys)
        assert code == 2
        assert out == ""
        assert "mu must be finite" in err

    def test_piecewise_non_finite_thresholds_exit_2(self, capsys):
        code, out, err = run(
            ["bound", "--form", "piecewise", "--phi", "2e154,0", "--p", "0.9", "--q", "0.6", "--mu", "0.8"],
            capsys,
        )
        assert code == 2
        assert "thresholds are not finite" in err and out == ""

    def test_non_finite_phi_exit_2(self, capsys):
        code, _, err = run(["bound", "--phi", "2,nan", "--p", "0.9", "--q", "0.6", "--mu", "0"], capsys)
        assert code == 2
        assert "finite" in err

    def test_malformed_phi_exit_2(self, capsys):
        code, _, err = run(["bound", "--phi", "koe,be", "--p", "1", "--q", "1", "--mu", "0"], capsys)
        assert code == 2
        assert "phi" in err

    def test_unknown_flag_exit_2(self, capsys):
        assert main(["bound", "--p", "1", "--q", "1", "--does-not-exist"]) == 2

    def test_unknown_command_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2


class TestThresholdsCommand:
    def test_sigma(self, capsys):
        code, out, _ = run(["thresholds", "--class", "starlike", "--p", "1", "--q", "1"], capsys)
        assert code == 0
        assert "sigma1: 0.5" in out and "sigma2: 1" in out and "sigma3: 0.75" in out

    @pytest.mark.parametrize("extra", [[], ["--c", "2"]])
    def test_printed_thresholds_are_labelled(self, capsys, extra):
        # the printed set is the paper's claim; the sharp set carries no label
        argv = ["thresholds", "--class", "convex", "--p", "1", "--q", "1", *extra]
        code, sharp, _ = run(argv, capsys)
        assert code == 0 and "printed" not in sharp
        code, printed, _ = run([*argv, "--printed-thresholds"], capsys)
        label, *values = printed.splitlines()
        assert code == 0
        assert label == "printed: the paper's thresholds as printed (its claim), not derived from the sharp bound"
        assert [line.split(":")[0] for line in values] == ["rho1", "rho2", "rho3"]

    def test_rho_printed_variant(self, capsys):
        code, out, _ = run(
            ["thresholds", "--class", "convex", "--p", "1", "--q", "1", "--printed-thresholds"],
            capsys,
        )
        assert code == 0
        assert "rho2: 2.16666666667" in out

    @pytest.mark.parametrize(
        "argv, values",
        [
            ("--class convex --p 1 --q 1", "0.666666666667 2.16666666667 1.41666666667"),
            ("--class convex --p 0.9 --q 0.6", "0.926612305411 2.21357384071 1.57009307306"),
            ("--class starlike --p 0.9 --q 0.6", "0.704225352113 1.05633802817 0.880281690141"),
            ("--class convex --c 2 --p 0.9 --q 0.6", "0.810578060992 1.87177380076 1.34117593088"),
            ("--class starlike --c 2 --p 0.9 --q 0.6", "0.649230769231 0.948875739645 0.799053254438"),
        ],
    )
    def test_printed_output_is_pinned(self, capsys, argv, values):
        code, out, err = run(["thresholds", *argv.split(), "--printed-thresholds"], capsys)
        names = ("rho1", "rho2", "rho3") if "convex" in argv else ("sigma1", "sigma2", "sigma3")
        label = "printed: the paper's thresholds as printed (its claim), not derived from the sharp bound"
        assert (code, err) == (0, "")
        assert out.splitlines() == [label, *(f"{n}: {v}" for n, v in zip(names, values.split()))]

    @pytest.mark.parametrize("kind", ["starlike", "convex"])
    def test_printed_refused_where_effective_integers_are_1(self, capsys, kind):
        argv = ["thresholds", "--class", kind, "--c", "0", "--p", "0.9", "--q", "0.6", "--printed-thresholds"]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err == (
            "error: operator bound formulas need [2]L2 > 1 and [3]L3 > 1; "
            "got [2]L2=1, [3]L3=1 for c=0, (p, q)=(0.9, 0.6)\n"
        )

    @pytest.mark.parametrize("extra", [[], ["--class", "convex", "--printed-thresholds"]])
    def test_non_finite_thresholds_exit_2(self, capsys, extra):
        code, out, err = run(["thresholds", "--phi", "1e308,1e308", "--p", "0.9", "--q", "0.6", *extra], capsys)
        assert code == 2
        assert "thresholds are not finite" in err and out == ""


class TestVerifyCommand:
    def test_convex_classical_limit_passes(self, capsys):
        code, out, _ = run(
            ["verify", "--class", "convex", "--phi", "koebe", "--p", "1", "--q", "1", "--mu", "0", *FAST],
            capsys,
        )
        assert code == 0
        assert "theoretical: 1" in out and "empirical:   1" in out and "PASS" in out

    def test_refined_flag(self, capsys):
        code, out, _ = run(
            ["verify", "--class", "starlike", "--p", "1", "--q", "1", "--mu", "0.6", "--refined", *FAST],
            capsys,
        )
        assert code == 0
        assert "PASS" in out

    def test_csv_format(self, capsys):
        code, out, _ = run(
            ["verify", "--class", "starlike", "--p", "1", "--q", "1", "--mu", "0", "--format", "csv", *FAST],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "mu,theoretical,empirical,gap,branch,status"
        assert len(lines) == 2

    def test_infinite_tolerance_exit_2(self, capsys):
        code, out, err = run(
            ["verify", "--p", "0.9", "--q", "0.6", "--mu", "0", "--tol", "inf", *FAST], capsys
        )
        assert code == 2
        assert out == ""
        assert "tolerance" in err

    def test_violation_exits_1(self, capsys, monkeypatch):
        # the bounds are sound, so a violating record has to be injected
        from pqfs.classes import SchwarzJet
        from pqfs.oracle import VerificationRecord

        bad = VerificationRecord(
            mu=0.0, theoretical=1.0, empirical_max=2.0,
            witness=SchwarzJet(1, 0), branch="max_form", tolerance=1e-9,
        )
        monkeypatch.setattr("pqfs.cli.oracle.max_form_check", lambda *a, **k: bad)
        code, out, _ = run(["verify", "--class", "starlike", "--p", "1", "--q", "1", "--mu", "0"], capsys)
        assert code == 1
        assert "FAIL" in out
        assert "attained:    no" in out

    def test_large_bound_attained_without_extremals(self, capsys):
        # gap 1.4e-6 at a bound of 783098.6: far above the 1e-9 tolerance, 1.8e-12 relative
        code, out, _ = run(
            ["verify", "--no-extremals", "--phi", "1000,0", "--p", "0.9", "--q", "0.6", "--mu", "0.9"], capsys
        )
        assert code == 0
        assert "theoretical: 783098.591549" in out
        assert "attained:    yes" in out and "status:      PASS" in out

    def test_csv_complex_mu_refused_before_sampling(self, capsys, monkeypatch):
        import pqfs.oracle

        def sampled(*args):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(pqfs.oracle, "_caratheodory_blocks", sampled)
        code, out, err = run(
            ["verify", "--p", "1", "--q", "1", "--mu", "0.3+0.4j", "--format", "csv", *FAST], capsys
        )
        assert code == 2 and out == ""
        assert "real mu only" in err

    # Checks whose scales the oracle's prefilter does not take: the stdout
    # of the plain per-jet path, byte for byte.  At --c 5, mu = 1e300 the
    # record reads FAIL by one ulp of 1.85e301: passed has an absolute
    # tolerance (a known defect, not a violated bound).
    @pytest.mark.parametrize(
        "args, code, stdout",
        [
            (
                ["--mu=1e200"],
                0,
                "theoretical: 1.6e+201\nempirical:   1.6e+201\ngap:         2.71942652322e+185\n"
                "attained:    yes\nwitness:     w1=1+0j, w2=0+0j\nstatus:      PASS\n",
            ),
            (
                ["--mu=1e160j"],
                0,
                "theoretical: 1.6e+161\nempirical:   1.6e+161\ngap:         0\n"
                "attained:    yes\nwitness:     w1=1+0j, w2=0+0j\nstatus:      PASS\n",
            ),
            (
                ["--phi", "1e-170,0", "--mu", "0.5"],
                0,
                "theoretical: 1.40845070423e-170\nempirical:   1.40845070423e-170\ngap:         0\n"
                "attained:    yes\nwitness:     w1=0+0j, w2=1+0j\nstatus:      PASS\n",
            ),
            (
                ["--c", "5", "--mu=1e300"],
                1,
                "theoretical: 1.85441986361e+301\nempirical:   1.85441986361e+301\ngap:         -2.37922705356e+285\n"
                "attained:    no\nwitness:     w1=1+0j, w2=0+0j\nstatus:      FAIL\n",
            ),
        ],
    )
    def test_extreme_scales_print_the_plain_records(self, capsys, args, code, stdout):
        got = run(["verify", "--p", "0.9", "--q", "0.6", *args], capsys)
        assert got == (code, stdout, "")


class TestSweepCommand:
    def test_csv_schema_and_row_count(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(
            [
                "sweep", "--class", "starlike", "--p", "1", "--q", "1",
                "--mu-range", "0:1:0.5", "--format", "csv", "--out", str(out_path), *FAST,
            ],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 4  # header + 3 rows
        rows = list(csv.DictReader(lines))
        mus = [float(r["mu"]) for r in rows]
        assert mus == sorted(mus)
        for r in rows:
            assert r["status"] in {"PASS", "FAIL", "SKIP(domain)"}
            gap = float(r["theoretical"]) - float(r["empirical"])
            assert f"{gap:.12g}" == r["gap"]

    def test_domain_errors_become_skips(self, tmp_path, capsys):
        out_path = tmp_path / "skip.csv"
        code, _, _ = run(
            [
                "sweep", "--class", "starlike", "--p", "0.55", "--q", "0.5",
                "--mu-range", "0:1:0.5", "--format", "csv", "--out", str(out_path), *FAST,
            ],
            capsys,
        )
        assert code == 0  # skips are not failures
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        assert all(r["status"] == "SKIP(domain)" for r in rows)

    def test_empty_range_exit_2(self, capsys):
        code, _, err = run(
            ["sweep", "--class", "starlike", "--p", "1", "--q", "1", "--mu-range", "1:1:0.5"],
            capsys,
        )
        assert code == 2
        assert "empty sweep" in err

    @pytest.mark.parametrize("mu_range", ["0:inf:1", "0:1:inf", "nan:1:0.5"])
    def test_non_finite_range_exit_2(self, capsys, mu_range):
        # these used to end in a traceback, a NaN mu row, or "empty sweep range"
        code, out, err = run(
            ["sweep", "--p", "0.9", "--q", "0.6", f"--mu-range={mu_range}", *FAST], capsys
        )
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_table_rows_with_overflowing_bounds(self, capsys):
        # the bound overflows for every mu but 0; each such mu is a domain skip
        code, out, err = run(["sweep", "--p", "0.9", "--q", "0.6", "--mu-range", "0:1.5e308:2.5e307", *FAST], capsys)
        assert code == 0
        row, *skips = out.splitlines()
        assert row == "mu=0  theoretical=14.0845070423  empirical=14.0845070423  gap=0  branch=max_form  PASS"
        assert skips == [
            f"mu={mu}  SKIP(domain): bound value must be finite and nonnegative, got inf"
            for mu in ("2.5e+307", "5e+307", "7.5e+307", "1e+308", "1.25e+308", "1.5e+308")
        ]
        assert err == "sweep: 1 pass, 0 fail, 6 skip\n"

    def test_too_many_points_exit_2(self, capsys):
        code, out, err = run(["sweep", "--p", "1", "--q", "1", "--mu-range=0:1:1e-9", *FAST], capsys)
        assert code == 2
        assert out == ""
        assert "more than" in err

    def test_byte_identical_with_same_seed(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run(
                [
                    "sweep", "--class", "convex", "--p", "0.9", "--q", "0.6",
                    "--mu-range=-1:2:0.25", "--format", "csv", "--seed", "99",
                    "--out", str(path), *FAST,
                ],
                capsys,
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        args = [
            "sweep", "--class", "starlike", "--p", "0.9", "--q", "0.6",
            "--mu-range", "0:1:0.5", "--format", "csv", *FAST,
        ]
        monkeypatch.setenv("PQFS_SEED", "123")
        _, via_env, _ = run(args + ["--out", str(tmp_path / "env.csv")], capsys)
        monkeypatch.delenv("PQFS_SEED")
        _, via_flag, _ = run(args + ["--seed", "123", "--out", str(tmp_path / "flag.csv")], capsys)
        assert (tmp_path / "env.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()

    def test_malformed_env_seed_exit_2(self, capsys, monkeypatch):
        # PQFS_SEED is read while the parser is built
        monkeypatch.setenv("PQFS_SEED", "abc")
        code, out, err = run(["limits"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "PQFS_SEED" in err

    def test_negative_seed_exit_2(self, capsys):
        code, out, err = run(
            ["verify", "--p", "0.9", "--q", "0.6", "--mu", "0", "--seed", "-1", *FAST], capsys
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "seed" in err

    def test_unwritable_path_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            [
                "sweep", "--class", "starlike", "--p", "1", "--q", "1",
                "--mu-range", "0:1:0.5", "--format", "csv",
                "--out", str(tmp_path / "missing_dir" / "x.csv"), *FAST,
            ],
            capsys,
        )
        assert code == 2
        assert "cannot write" in err


class TestBernardiCommand:
    def test_bound_value(self, capsys):
        code, out, _ = run(
            ["bound", "--c", "1", "--class", "starlike", "--p", "1", "--q", "1", "--mu", "0"],
            capsys,
        )
        assert code == 0
        assert "value:  1.5" in out

    def test_thresholds(self, capsys):
        code, out, _ = run(
            ["thresholds", "--c", "1", "--class", "starlike", "--p", "1", "--q", "1"],
            capsys,
        )
        assert code == 0
        assert "sigma1: 0.5625" in out

    def test_verify(self, capsys):
        code, out, _ = run(
            ["verify", "--c", "2", "--class", "convex", "--p", "1", "--q", "1", "--mu", "0.5", *FAST],
            capsys,
        )
        assert code == 0
        assert "PASS" in out

    def test_verify_refined(self, capsys):
        # the cap b1 / A of the image kernel, attained by a forced extremal jet
        code, out, _ = run(
            ["verify", "--c", "2", "--refined", "--p", "0.9", "--q", "0.6", "--mu", "0.8", *FAST],
            capsys,
        )
        assert code == 0
        assert "theoretical: 2.81838476886" in out and "attained:    yes" in out

    def test_degenerate_c_zero_exit_2(self, capsys):
        # c = 0 is the identity operator: the plain bound, no longer refused
        code, out, _ = run(
            ["bound", "--c", "0", "--class", "starlike", "--p", "0.9", "--q", "0.6", "--mu", "0"],
            capsys,
        )
        assert code == 0
        assert "value:  8.23655382588" in out

    def test_non_finite_thresholds_exit_2(self, capsys):
        code, out, err = run(
            ["thresholds", "--c", "2", "--phi", "1e308,1e308", "--p", "0.9", "--q", "0.6"],
            capsys,
        )
        assert code == 2
        assert "thresholds are not finite" in err and out == ""

    @pytest.mark.parametrize("c", ["8000", "100000000"])
    def test_order_above_limit_exit_2(self, capsys, c):
        # c = 8000 underflows [n+c] to 0, and c = 10^8 would sum 10^8 terms
        code, out, err = run(["bound", "--c", c, "--p", "0.9", "--q", "0.6", "--mu", "0"], capsys)
        assert code == 2
        assert f"must be <= {MAX_BERNARDI_ORDER}" in err and out == ""


class TestLimitsCommand:
    def test_exits_zero_and_reports_each_check(self, capsys):
        code, out, _ = run(["limits"], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert "all passed" in out
        for needle in ("sigma1", "rho2", "starlike max-form mu=0", "oracle convex mu=0"):
            assert needle in out


class TestRegionCommand:
    def test_identity_function_field(self, tmp_path, capsys):
        out_path = tmp_path / "region.csv"
        code, _, _ = run(
            ["region", "--f", "0,1", "--p", "0.9", "--q", "0.6", "--grid", "16", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        assert len(rows) == 256
        inside = [r for r in rows if r["re"] != "nan"]
        assert inside and all(abs(float(r["re"]) - 1.0) < 1e-12 for r in inside)
        outside = [r for r in rows if float(r["x"]) ** 2 + float(r["y"]) ** 2 >= 1.0]
        assert all(r["re"] == "nan" for r in outside)

    def test_classical_boundary_quotient(self, tmp_path, capsys):
        out_path = tmp_path / "region_limit.csv"
        code, _, _ = run(
            ["region", "--f", "0,1,0.3", "--p", "1", "--q", "1", "--grid", "16", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        rows = [r for r in csv.DictReader(out_path.read_text().splitlines()) if r["re"] != "nan"]
        assert rows  # z f'/f evaluates on the disc at the classical boundary

    def test_origin_cell_normalizes_to_one(self, tmp_path, capsys):
        # an odd grid places a cell center exactly at z = 0
        out_path = tmp_path / "origin.csv"
        code, _, _ = run(
            ["region", "--f", "0,1,0.3", "--p", "0.9", "--q", "0.6", "--grid", "17",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        origin = [r for r in rows if float(r["x"]) == 0.0 and float(r["y"]) == 0.0]
        assert len(origin) == 1 and float(origin[0]["re"]) == 1.0

    def test_identity_near_the_diagonal_is_exactly_one(self, tmp_path, capsys):
        # f(pz) - f(qz) over (p - q) f(z) would cancel digits as q approaches p
        out_path = tmp_path / "near_diagonal.csv"
        code, _, _ = run(
            ["region", "--f", "0,1", "--p", "0.7", "--q", "0.69999", "--grid", "16", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        assert len(rows) == 256 and {r["re"] for r in rows} <= {"1", "nan"}

    def test_diagonal_below_one_uses_the_deformed_quotient(self, tmp_path, capsys):
        # at p = q the deformed integers are [n] = n p^(n-1), so z D f / f = z f'(pz) / f(z),
        # which is z f'(z) / f(z) only at p = q = 1
        out_path = tmp_path / "diagonal.csv"
        code, _, _ = run(
            ["region", "--f", "0,1,0.3", "--p", "0.8", "--q", "0.8", "--grid", "16", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        rows = [r for r in csv.DictReader(out_path.read_text().splitlines()) if r["re"] != "nan"]
        assert rows
        for r in rows:
            z = complex(float(r["x"]), float(r["y"]))
            expected = ((z + 2 * 0.3 * 0.8 * z * z) / (z + 0.3 * z * z)).real
            assert abs(float(r["re"]) - expected) <= 1e-9

    def test_small_grid_exit_2(self, capsys):
        code, _, err = run(["region", "--f", "0,1", "--p", "0.9", "--q", "0.6", "--grid", "8"], capsys)
        assert code == 2
        assert "grid" in err

    @pytest.mark.parametrize("f", ["0,1,nan", "0,inf", "0,1,-inf"])
    def test_non_finite_coefficients_exit_2(self, f, capsys):
        code, out, err = run(["region", "--f", f, "--p", "0.9", "--q", "0.6", "--grid", "16"], capsys)
        assert code == 2
        assert "finite" in err and out == ""

    @pytest.mark.parametrize("out", [False, True])
    def test_overflowing_spec_exit_2(self, out, tmp_path, capsys):
        # f reaches 2e308 on the disc: a refusal, not nan cells and overflow warnings
        out_path = tmp_path / "overflow.csv"
        argv = ["region", "--f", "0,1,1e308,1e308", "--p", "0.9", "--q", "0.6", "--grid", "16"]
        code, stdout, err = run(argv + (["--out", str(out_path)] if out else []), capsys)
        assert code == 2 and stdout == ""
        assert err.startswith("error: f = '0,1,1e308,1e308' overflows on the grid")
        assert not out_path.exists()

    def test_large_finite_spec_is_the_scaled_field(self, capsys):
        # scaling f by 2^660 scales f and z D f exactly, so every cell keeps its bytes
        big = 2.0**660
        _, plain, _ = run(["region", "--f", "0,1,0.3,0.2", "--p", "0.9", "--q", "0.6", "--grid", "16"], capsys)
        spec = ",".join(repr(a * big) for a in (0.0, 1.0, 0.3, 0.2))
        code, scaled, err = run(["region", "--f", spec, "--p", "0.9", "--q", "0.6", "--grid", "16"], capsys)
        assert code == 0 and err == ""
        assert scaled == plain

    def test_huge_grid_exit_2(self, capsys):
        grid = str(MAX_REGION_GRID + 1)
        code, out, err = run(["region", "--f", "0,1", "--p", "0.9", "--q", "0.6", "--grid", grid], capsys)
        assert code == 2
        assert str(MAX_REGION_GRID) in err and out == ""


@pytest.mark.parametrize(
    "budget", [["--grid", str(MAX_GRID_DENSITY + 1)], ["--samples", str(MAX_RANDOM_SAMPLES + 1)]]
)
def test_oracle_budget_above_limit_exit_2(budget, capsys):
    code, out, err = run(
        ["verify", "--class", "starlike", "--p", "0.9", "--q", "0.6", "--mu", "0", *budget], capsys
    )
    assert code == 2
    assert "must be in" in err and out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bound", "--p", "1", "--q", "1", "--mu", "1+"], "malformed mu '1+'"),
        (["sweep", "--p", "1", "--q", "1", "--mu-range", "0:1"], "malformed mu range '0:1': expected 'lo:hi:step'"),
        (["sweep", "--p", "1", "--q", "1", "--mu-range", "0:one:1"], "malformed mu range '0:one:1'"),
        (["region", "--f", "0,x", "--p", "0.9", "--q", "0.6"], "malformed f spec '0,x': expected comma-separated"),
        (["verify", "--p", "0.9", "--q", "0.6", "--mu", "5e307", *FAST], "bound value must be finite"),
    ],
)
def test_refusal_texts(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "argv",
    [["bound", "--mu", "0", "--out", "x.csv"], ["thresholds", "--grid", "48"], ["bernardi", "--c", "1"]],
)
def test_options_a_command_does_not_read_exit_2(argv, tmp_path, monkeypatch, capsys):
    # oracle and output options belong to verify and sweep; Bernardi is --c
    monkeypatch.chdir(tmp_path)
    code, out, _ = run([*argv, "--p", "1", "--q", "1"], capsys)
    assert code == 2 and out == ""
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["thresholds"],
        ["thresholds", "--class", "convex", "--printed-thresholds"],
        ["thresholds", "--c", "2"],
        ["bound", "--form", "piecewise", "--mu", "0.5"],
        ["verify", "--refined", "--mu", "0.5", *FAST],
    ],
)
def test_underflowing_b1_exit_2(argv, capsys):
    # b1 * b1 underflows to 0; the thresholds used to divide by it and exit 1
    code, out, err = run([*argv, "--phi", "1e-200,0", "--p", "0.9", "--q", "0.6"], capsys)
    assert code == 2 and out == ""
    assert "thresholds are not finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--mu", "0.5", *FAST],
        ["sweep", "--mu-range", "0:1:0.5", *FAST],
        ["sweep", "--mu-range", "0:1:0.5", "--format", "csv", *FAST],
    ],
)
def test_out_receives_table_and_csv_output(argv, tmp_path, capsys):
    argv = [*argv, "--p", "0.9", "--q", "0.6"]
    code, expected, _ = run(argv, capsys)
    assert code == 0 and expected
    path = tmp_path / "out.txt"
    code, out, _ = run([*argv, "--out", str(path)], capsys)
    assert code == 0 and out == ""
    assert path.read_text() == expected


@pytest.mark.parametrize("command", [["verify"], ["sweep", "--mu-range", "0:1:0.5"]])
def test_oracle_defaults_are_those_of_oracle_config(command):
    args = build_parser().parse_args([*command, "--p", "1", "--q", "1", "--seed", "5"])
    assert _oracle_config(args) == OracleConfig(seed=5)


def test_emit_csv_refuses_no_entries():
    with pytest.raises(DomainError, match="no records to emit"):
        emit_csv([], sys.stdout)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pqfs.cli", "thresholds", "--class", "starlike", "--p", "1", "--q", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "sigma1: 0.5" in proc.stdout
