"""Command-line front end.

Subcommands: bound, thresholds, verify, sweep, limits, region.  With
``--c N``, bound, thresholds and verify work on the image of the class
under the Bernardi operator of order N.  Exit codes: 0 when everything
requested passed, 1 when a brute-force check found a bound violation, 2
on usage or domain errors.  Output is deterministic; the seed (PQFS_SEED
or --seed) only picks the opt-in random jets of --samples.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from contextlib import contextmanager
from typing import Iterator, Sequence, TextIO

import numpy as np

from . import bernardi as bn
from . import bounds, oracle
from .classes import Kernel, MaMindaTarget, deformation_numbers, printed_thresholds
from .oracle import OracleConfig, SweepEntry, VerificationRecord
from .pq_core import DomainError, PQParams, pq_number

_FMT = "{:.12g}".format

#: Largest ``region --grid``; the command writes grid^2 rows.
MAX_REGION_GRID = 1024


def _parse_phi(spec: str) -> MaMindaTarget:
    if spec.strip().lower() == "koebe":
        return MaMindaTarget.koebe()
    try:
        coeffs = tuple(float(tok) for tok in spec.split(","))
    except ValueError:
        raise DomainError(
            f"malformed phi spec {spec!r}: expected 'koebe' or comma-separated reals 'b1,b2[,b3...]'"
        ) from None
    return MaMindaTarget(coeffs)


def _parse_mu(text: str) -> complex:
    try:
        mu = complex(text.replace(" ", ""))
    except ValueError:
        raise DomainError(f"malformed mu {text!r}") from None
    return mu.real if mu.imag == 0.0 else mu


def _parse_mu_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"malformed mu range {text!r}: expected 'lo:hi:step'")
    try:
        lo, hi, step = (float(tok) for tok in parts)
    except ValueError:
        raise DomainError(f"malformed mu range {text!r}") from None
    return lo, hi, step


def _kernel(args: argparse.Namespace, params: PQParams) -> Kernel:
    """The class kernel, or with --c the kernel of the Bernardi image class
    (``bernardi.image_kernel``)."""
    if args.c is None:
        return Kernel.of(args.class_kind, params)
    return bn.image_kernel(args.class_kind, bn.BernardiParams(args.c, params))


def _oracle_config(args: argparse.Namespace) -> OracleConfig:
    return OracleConfig(
        grid_density=args.grid,
        random_samples=args.samples,
        include_extremals=not args.no_extremals,
        tolerance=args.tol,
        seed=args.seed,
    )


def emit_csv(entries: Sequence[SweepEntry], stream: TextIO) -> None:
    """Write sweep entries as CSV rows sorted by mu.

    Header: mu,theoretical,empirical,gap,branch,status.  Floats carry 12
    significant digits; domain skips leave the numeric columns empty.
    """
    if not entries:
        raise DomainError("no records to emit")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["mu", "theoretical", "empirical", "gap", "branch", "status"])
    for e in sorted(entries, key=lambda e: e.mu):
        r = e.record
        if r is None:
            writer.writerow([_FMT(e.mu), "", "", "", "", e.status])
        else:
            writer.writerow(
                [
                    _FMT(e.mu),
                    _FMT(r.theoretical),
                    _FMT(r.empirical_max),
                    _FMT(r.gap),
                    r.branch,
                    e.status,
                ]
            )


@contextmanager
def _output(args: argparse.Namespace) -> Iterator[TextIO]:
    """The --out file, closed on exit, or stdout when --out is absent."""
    if args.out is None:
        yield sys.stdout
        return
    try:
        stream = open(args.out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise DomainError(f"cannot write {args.out!r}: {exc}") from None
    with stream:
        yield stream


def _write_entries(entries: list[SweepEntry], args: argparse.Namespace) -> None:
    with _output(args) as stream:
        if args.format == "csv":
            emit_csv(entries, stream)
            return
        for e in sorted(entries, key=lambda e: e.mu):
            if e.record is None:
                print(f"mu={_FMT(e.mu)}  {e.status}: {e.error}", file=stream)
            else:
                r = e.record
                print(
                    f"mu={_FMT(e.mu)}  theoretical={_FMT(r.theoretical)}  "
                    f"empirical={_FMT(r.empirical_max)}  gap={_FMT(r.gap)}  "
                    f"branch={r.branch}  {e.status}",
                    file=stream,
                )


def _print_record(r: VerificationRecord, args: argparse.Namespace) -> None:
    with _output(args) as stream:
        print(
            f"theoretical: {_FMT(r.theoretical)}",
            f"empirical:   {_FMT(r.empirical_max)}",
            f"gap:         {_FMT(r.gap)}",
            f"attained:    {'yes' if r.attained else 'no'}",
            f"witness:     w1={r.witness.w1:.6g}, w2={r.witness.w2:.6g}",
            f"status:      {r.status}",
            sep="\n",
            file=stream,
        )


def _cmd_bound(args: argparse.Namespace) -> int:
    phi = _parse_phi(args.phi)
    params = PQParams.limit(args.p, args.q)
    mu = _parse_mu(args.mu)
    form = bounds.max_form_report if args.form == "max" else bounds.piecewise_report
    report = form(_kernel(args, params), mu, phi)
    print(f"value:  {_FMT(report.value)}")
    print(f"branch: {report.branch}")
    if report.thresholds is not None:
        t1, t2, t3 = report.thresholds
        print(f"thresholds: t1={_FMT(t1)} t2={_FMT(t2)} t3={_FMT(t3)}")
    return 0


def _cmd_thresholds(args: argparse.Namespace) -> int:
    phi = _parse_phi(args.phi)
    params = PQParams.limit(args.p, args.q)
    if not args.printed_thresholds:
        t = _kernel(args, params).thresholds(phi)
    elif args.c is None:
        t = printed_thresholds(args.class_kind, *deformation_numbers(params), phi)
    else:
        bp = bn.BernardiParams(args.c, params)
        t = printed_thresholds(args.class_kind, *bn.effective_numbers(bp), phi)
    names = ("sigma1", "sigma2", "sigma3") if args.class_kind == "starlike" else ("rho1", "rho2", "rho3")
    if args.printed_thresholds:
        print("printed: the paper's thresholds as printed (its claim), not derived from the sharp bound")
    for name, value in zip(names, t):
        print(f"{name}: {_FMT(value)}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    phi = _parse_phi(args.phi)
    params = PQParams.limit(args.p, args.q)
    mu = _parse_mu(args.mu)
    if args.format == "csv" and isinstance(mu, complex):
        raise DomainError("csv output supports real mu only")
    cfg = _oracle_config(args)
    k = _kernel(args, params)
    if args.refined:
        record = oracle.refined_check(k, mu, phi, cfg)
    else:
        record = oracle.max_form_check(k, mu, phi, cfg)
    if args.format == "csv":
        _write_entries([SweepEntry(mu=mu, record=record)], args)
    else:
        _print_record(record, args)
    return 0 if record.passed else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    phi = _parse_phi(args.phi)
    params = PQParams.limit(args.p, args.q)
    mu_range = _parse_mu_range(args.mu_range)
    cfg = _oracle_config(args)
    entries = oracle.sweep(args.class_kind, mu_range, phi, params, cfg)
    if not entries:
        raise DomainError(f"empty sweep range {args.mu_range!r}")
    _write_entries(entries, args)
    n_pass, n_fail, n_skip = oracle.summarize(entries)
    if args.format != "csv" or args.out is not None:
        print(f"sweep: {n_pass} pass, {n_fail} fail, {n_skip} skip", file=sys.stderr)
    return 1 if n_fail else 0


def _limit_checks() -> list[tuple[str, float, float, float]]:
    """(name, got, expected, tolerance) rows for the classical regressions."""
    classic = PQParams.limit(1.0, 1.0)
    koebe = MaMindaTarget.koebe()
    rows: list[tuple[str, float, float, float]] = []

    def add(name: str, got: float, expected: float, tol: float = 1e-12) -> None:
        rows.append((name, got, expected, tol))

    star, convex = Kernel.of("starlike", classic), Kernel.of("convex", classic)
    add("starlike max-form mu=0", bounds.max_form_report(star, 0.0, koebe).value, 3.0)
    add("starlike max-form mu=1", bounds.max_form_report(star, 1.0, koebe).value, 1.0)
    add("convex max-form mu=0", bounds.max_form_report(convex, 0.0, koebe).value, 1.0)
    add("convex max-form mu=1", bounds.max_form_report(convex, 1.0, koebe).value, 1.0 / 3.0)
    s1, s2, s3 = star.thresholds(koebe)
    add("sigma1", s1, 0.5)
    add("sigma2", s2, 1.0)
    add("sigma3", s3, 0.75)
    r1, r2, r3 = convex.thresholds(koebe)
    add("rho1", r1, 2.0 / 3.0)
    add("rho2", r2, 4.0 / 3.0)
    add("rho3", r3, 1.0)
    add("starlike piecewise mu=0", bounds.piecewise_report(star, 0.0, koebe).value, 3.0)
    add("starlike piecewise mu=0.75", bounds.piecewise_report(star, 0.75, koebe).value, 1.0)
    add("starlike piecewise mu=2", bounds.piecewise_report(star, 2.0, koebe).value, 5.0)
    add("convex piecewise mu=0", bounds.piecewise_report(convex, 0.0, koebe).value, 1.0)
    add("convex piecewise mu=2", bounds.piecewise_report(convex, 2.0, koebe).value, 1.0)

    # branch agreement in the q-regime (p = 1) over a dense mu grid
    qcase = PQParams(1.0, 0.5)
    worst = 0.0
    for kind in ("starlike", "convex"):
        k = Kernel.of(kind, qcase)
        for mu in np.arange(-2.0, 3.0001, 0.05):
            max_form = bounds.max_form_report(k, mu, koebe)
            worst = max(worst, abs(max_form.value - bounds.piecewise_report(k, mu, koebe).value))
    add("q-regime branch agreement (worst dev)", worst, 0.0)

    # oracle attainment at the classical limit
    cfg = OracleConfig(grid_density=12)
    for name, k, expected in (("starlike", star, 3.0), ("convex", convex, 1.0)):
        record = oracle.max_form_check(k, 0.0, koebe, cfg)
        add(f"oracle {name} mu=0 empirical", record.empirical_max, expected, 1e-6)
    return rows


def _cmd_limits(args: argparse.Namespace) -> int:
    failures = 0
    for name, got, expected, tol in _limit_checks():
        ok = abs(got - expected) <= tol
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name}: expected={_FMT(expected)} got={_FMT(got)}")
    print(f"limits: {'all passed' if not failures else f'{failures} failed'}")
    return 1 if failures else 0


def _cmd_region(args: argparse.Namespace) -> int:
    try:
        coeffs = np.array([float(tok) for tok in args.f.split(",")], dtype=complex)
    except ValueError:
        raise DomainError(f"malformed f spec {args.f!r}: expected comma-separated coefficients") from None
    if not np.isfinite(coeffs).all():
        raise DomainError(f"f coefficients must be finite, got {args.f!r}")
    if not 16 <= args.grid <= MAX_REGION_GRID:
        raise DomainError(f"region grid must be in [16, {MAX_REGION_GRID}], got {args.grid}")
    params = PQParams.limit(args.p, args.q)
    # cell centers keep every sample strictly inside (-1, 1) on each axis
    axis = (np.arange(args.grid) + 0.5) * (2.0 / args.grid) - 1.0
    # every row is computed before the first is written, so a refusal leaves no partial table
    rows = []
    try:
        with np.errstate(over="raise"):
            # z D f = sum [n] a_n z^n; pq_number is continuous through p = q
            weighted = coeffs * [pq_number(n, params) for n in range(coeffs.size)]
            for x in axis:
                zs = x + 1j * axis
                num, den = np.polyval(weighted[::-1], zs), np.polyval(coeffs[::-1], zs)
                # the quotient may still overflow next to a zero of f: nan, like the zero itself
                with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                    re = np.real(num / den)
                re = np.where(np.isfinite(re), re, np.nan)
                re = np.where(np.abs(zs) < 1.0, re, np.nan)
                near_zero = np.abs(zs) < 1e-12
                if near_zero.any():
                    origin = 1.0 if (coeffs[0] == 0 and len(coeffs) > 1 and coeffs[1] != 0) else np.nan
                    re = np.where(near_zero, origin, re)
                rows.append(re)
    except FloatingPointError:
        raise DomainError(
            f"f = {args.f!r} overflows on the grid: f or z D f exceeds the largest float"
        ) from None
    with _output(args) as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["x", "y", "re"])
        for x, re in zip(axis, rows):
            for y, val in zip(axis, re):
                writer.writerow([_FMT(x), _FMT(y), "nan" if np.isnan(val) else _FMT(val)])
    return 0


def _add_class(sub: argparse.ArgumentParser, mu: bool, c: bool) -> None:
    sub.add_argument("--class", dest="class_kind", choices=("starlike", "convex"), default="starlike")
    sub.add_argument("--phi", default="koebe", help="'koebe' or comma-separated reals 'b1,b2[,...]'")
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--q", type=float, required=True)
    if mu:
        sub.add_argument("--mu", default="0", help="real or complex, e.g. 0.5 or 1+0.5j")
    if c:
        sub.add_argument("--c", type=int, default=None, help="Bernardi operator order (integer >= 0)")


def _add_oracle(sub: argparse.ArgumentParser, seed: int) -> None:
    sub.add_argument(
        "--grid",
        type=int,
        default=OracleConfig.grid_density,
        help="oracle rim grid density n: n radii |w1|, n - 1 angles for each of arg w1 and arg w2",
    )
    sub.add_argument(
        "--samples",
        type=int,
        default=OracleConfig.random_samples,
        help="random interior jets added to the sample set, an opt-in check that the rim grid suffices "
        "(default: %(default)s)",
    )
    sub.add_argument("--no-extremals", action="store_true", help="do not force extremal jets")
    sub.add_argument("--tol", type=float, default=OracleConfig.tolerance, help="oracle tolerance")
    sub.add_argument("--seed", type=int, default=seed)
    sub.add_argument("--format", choices=("table", "csv"), default="table")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


def _env_seed() -> int:
    text = os.environ.get("PQFS_SEED")
    if text is None:
        return oracle.DEFAULT_SEED
    try:
        return int(text)
    except ValueError:
        raise DomainError(f"PQFS_SEED must be an integer, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    seed = _env_seed()
    parser = argparse.ArgumentParser(
        prog="pqfs",
        description="Deformed starlike/convex coefficient bounds with brute-force verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="compute one bound value")
    _add_class(p_bound, mu=True, c=True)
    p_bound.add_argument("--form", choices=("max", "piecewise"), default="max")
    p_bound.set_defaults(func=_cmd_bound)

    p_thr = sub.add_parser("thresholds", help="print the piecewise thresholds")
    _add_class(p_thr, mu=False, c=True)
    p_thr.add_argument("--printed-thresholds", action="store_true", help="the paper's printed form")
    p_thr.set_defaults(func=_cmd_thresholds)

    p_verify = sub.add_parser("verify", help="brute-force check one bound")
    _add_class(p_verify, mu=True, c=True)
    _add_oracle(p_verify, seed)
    p_verify.add_argument("--refined", action="store_true", help="check the refined inequality")
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="verify a range of mu values")
    _add_class(p_sweep, mu=False, c=False)
    _add_oracle(p_sweep, seed)
    p_sweep.add_argument(
        "--mu-range",
        required=True,
        help="'lo:hi:step', endpoints inclusive; write --mu-range=-2:3:0.25 for negative lo",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_limits = sub.add_parser("limits", help="classical-limit regression table")
    p_limits.set_defaults(func=_cmd_limits)

    p_region = sub.add_parser("region", help="sample Re(z D f / f) over the unit disc")
    p_region.add_argument("--f", required=True, help="comma-separated coefficients a0,a1,...")
    p_region.add_argument("--p", type=float, required=True)
    p_region.add_argument("--q", type=float, required=True)
    p_region.add_argument("--grid", type=int, default=64)
    p_region.add_argument("--out", default=None)
    p_region.set_defaults(func=_cmd_region)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
