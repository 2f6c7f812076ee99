"""Workload inputs, operations and correctness checks for the pqfs benchmark.

Each workload is a closed loop with one caller: the runner issues the next
operation only after the previous one returned.  Inputs are generated from
the workload seed by this module alone, with plain ``random`` and without
importing pqfs, so the same seed gives the same inputs on every commit and
the program only ever sees the generated numbers.

Generated deformation pairs stay inside the library's admissible domain
0 < q < p <= 1 with [2] = p + q > 1 and [3] = p^2 + pq + q^2 > 1 (at
[3] = 1 the starlike scale [3] - 1 vanishes, so no finite bound exists),
with a margin of 0.05 on both excesses.  The Bernardi order c runs over
0..5 in a fixed cycle, so the share of refused Bernardi requests does not
depend on the seed: the library refuses exactly c = 0, since [2]L2 - 1 and
[3]L3 - 1 are positive for every c >= 1 when q > 0.
"""

from __future__ import annotations

import cmath
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
KINDS = ("starlike", "convex")
MODULES = ("pq_core", "classes", "bounds", "oracle", "bernardi", "cli")  # the layers of pqfs
SWEEP_POINTS = 21
POOL = 2048
CHILD_MARK = "PERFBENCH_TRACE "  # prefix of the span line a traced CLI child writes to stderr
RSS_MARK = "PERFBENCH_RSS "  # prefix of the peak-memory line pqfs_child.py writes to stderr

# Tolerances of the correctness checks.
AGREE_TOL = 1e-12
RESIDUAL_TOL = 1e-10


def load_pqfs():
    """Import pqfs from the checkout's ``src`` and return its modules by name.

    Refuses a pqfs found anywhere else, so a missing source tree fails
    instead of silently measuring an installed copy.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("pqfs")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"pqfs was imported from {pkg.__file__}, not from {SRC}")
    return {n: importlib.import_module(f"pqfs.{n}") for n in MODULES}


# ---------------------------------------------------------------- inputs


def _pq(rng: random.Random) -> tuple[float, float]:
    while True:
        p = rng.uniform(0.6, 1.0)
        q = rng.uniform(0.3, p - 0.01)
        if p + q - 1.0 >= 0.05 and p * p + p * q + q * q - 1.0 >= 0.05:
            return p, q


def _phi(rng: random.Random) -> tuple[float, float]:
    return rng.uniform(0.5, 2.5), rng.uniform(0.0, 2.5)


def _schwarz(rng: random.Random) -> tuple[complex, complex]:
    """(w1, w2) uniform over |w1| <= 1, |w2| <= 1 - |w1|^2, kept off the rim."""
    r1 = 0.98 * rng.random() ** 0.5
    r2 = 0.98 * rng.random() ** 0.5 * (1.0 - r1 * r1)
    return cmath.rect(r1, 2.0 * cmath.pi * rng.random()), cmath.rect(r2, 2.0 * cmath.pi * rng.random())


def refined_mu(kind: str, p: float, q: float, phi: tuple[float, float], frac: float) -> float:
    """mu = t1 + frac (t2 - t1), where t1 and t2 are the real mu at which
    v(mu) crosses 0 and 1.  Derived here from
    v(mu) = (1 - b2/b1 - (b1/B)(1 - K mu)) / 2 with B = [2] - 1 and
    K = ([3]-1)/([2]-1) (starlike) or [3]([3]-1)/([2]^2([2]-1)) (convex),
    so the generator does not depend on the program it feeds."""
    two, three = p + q, p * p + p * q + q * q
    b1, b2 = phi
    B = two - 1.0
    K = (three - 1.0) / B if kind == "starlike" else three * (three - 1.0) / (two * two * B)

    def crossing(t: float) -> float:
        return (2.0 * t - 1.0 + b2 / b1 + b1 / B) * B / (b1 * K)

    return crossing(0.0) + frac * (crossing(1.0) - crossing(0.0))


def _refined_frac(rng: random.Random, low: bool) -> float:
    # t3 is the midpoint of (t1, t2); stay clear of it and of both ends
    return rng.uniform(0.05, 0.45) if low else rng.uniform(0.55, 0.95)


def generate(name: str, seed: int) -> list[dict]:
    """The input pool of a workload; operations cycle through it in order."""
    rng = random.Random(f"pqfs-bench:{name}:{seed}")
    return _GENERATORS[name](rng)


def _gen_sweep_warm(rng: random.Random) -> list[dict]:
    pairs = [(1.0, 1.0)] + [_pq(rng) for _ in range(3)]
    phis = [(2.0, 2.0), _phi(rng)]
    ranges = []
    for _ in range(2):
        lo, step = rng.uniform(-2.0, 0.5), rng.uniform(0.05, 0.15)
        # hi sits half a step past the 21st point, so rounding cannot drop it
        ranges.append((lo, lo + (SWEEP_POINTS - 0.5) * step, step))
    return [
        {"kind": kind, "p": p, "q": q, "phi": phi, "range": r}
        for kind in KINDS
        for (p, q) in pairs
        for phi in phis
        for r in ranges
    ]


def _gen_verify_cold(rng: random.Random) -> list[dict]:
    out = []
    for i in range(POOL):
        p, q = (1.0, 1.0) if i % 16 == 15 else _pq(rng)
        kind = KINDS[(i // 4) % 2]
        phi = (2.0, 2.0) if rng.random() < 0.5 else _phi(rng)
        x = {"op": ("fs_real", "fs_complex", "refined", "bernardi")[i % 4], "kind": kind,
             "p": p, "q": q, "phi": phi, "oracle_seed": rng.randrange(2**31)}
        mu = rng.uniform(-2.0, 3.0)
        if x["op"] == "fs_complex":
            mu = complex(mu, rng.uniform(-1.5, 1.5))
        elif x["op"] == "refined":
            mu = refined_mu(kind, p, q, phi, _refined_frac(rng, rng.random() < 0.5))
        elif x["op"] == "bernardi":
            x["c"] = (i // 8) % 6  # every (kind, c) pair within 12 Bernardi requests
        x["mu"] = mu
        out.append(x)
    return out


def _gen_closed_form(rng: random.Random) -> list[dict]:
    out = []
    for i in range(POOL):
        p, q = (1.0, 1.0) if i % 16 == 15 else _pq(rng)
        phi = (2.0, 2.0) if rng.random() < 0.5 else _phi(rng)
        mu = rng.uniform(-2.0, 3.0)
        x = {"p": p, "q": q, "phi": phi, "c": i % 6, "mu": mu,
             "mu_complex": complex(mu, rng.uniform(-1.5, 1.5)), "jet": _schwarz(rng)}
        for kind in KINDS:
            low = rng.random() < 0.5
            x[kind] = (f"{kind}_{'low' if low else 'high'}", refined_mu(kind, p, q, phi, _refined_frac(rng, low)))
        out.append(x)
    return out


def _fmt(x: float) -> str:
    return repr(round(x, 6))


def _gen_cli_startup(rng: random.Random) -> list[dict]:
    out = []
    for i in range(200):
        p, q = (1.0, 1.0) if i % 10 == 9 else _pq(rng)
        kind = KINDS[rng.random() < 0.5]
        phi = "koebe" if rng.random() < 0.5 else ",".join(_fmt(b) for b in _phi(rng))
        common = ["--class", kind, "--phi", phi, "--p", _fmt(p), "--q", _fmt(q)]
        mu = _fmt(rng.uniform(-2.0, 3.0))
        cmd = i % 5
        if cmd == 0:
            form = "max" if rng.random() < 0.5 else "piecewise"
            argv = ["bound", *common, f"--mu={mu}", "--form", form]
        elif cmd == 1:
            argv = ["thresholds", *common]
        elif cmd == 2:
            argv = ["limits"]
        elif cmd == 3:
            argv = ["verify", *common, f"--mu={mu}", "--grid", "12", "--samples", "2000",
                    "--seed", str(rng.randrange(2**31))]
        else:
            a2, a3 = rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3)
            argv = ["region", "--f", f"0,1,{_fmt(a2)},{_fmt(a3)}", "--p", _fmt(p), "--q", _fmt(q),
                    "--grid", "64"]
        out.append({"argv": argv})
    return out


_GENERATORS = {
    "sweep_warm": _gen_sweep_warm,
    "verify_cold": _gen_verify_cold,
    "closed_form": _gen_closed_form,
    "cli_startup": _gen_cli_startup,
}
NAMES = tuple(_GENERATORS)


# ---------------------------------------------------------- operations


@dataclass
class Outcome:
    """What the correctness check made of one operation."""

    ok: bool = True
    problem: str = ""
    refused: int = 0  # Bernardi requests the library refused
    bernardi_records: int = 0
    bernardi_fail: int = 0  # Bernardi records whose oracle verdict is FAIL
    records: list = field(default_factory=list)  # non-Bernardi oracle records
    mu_points: int = 0  # mu values the oracle module verified (not Bernardi)
    child_rss_kb: int = 0  # peak resident memory of a CLI child
    child_spans: dict | None = None  # per-module totals from a traced CLI child

    def fail(self, problem: str) -> "Outcome":
        self.ok, self.problem = False, problem
        return self


#: Result of a Bernardi request that the library refused with a DomainError.
REFUSED = object()


def _close(a: complex, b: complex, tol: float = AGREE_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------- references
#
# A reference is fixed work that does not touch pqfs.  The runner times it
# between operations and reports latencies as multiples of it, so that the
# host's changing speed, which slows the reference and the operations
# alike, falls out of the metrics.  Each workload uses the reference most
# like its own work: scalar Python or array arithmetic.

REFERENCE_JETS = 176_468  # the size of the oracle's default sample set, fixed here


def python_reference():
    """Scalar complex arithmetic in the interpreter, about a millisecond."""
    z, s = 0.3 + 0.1j, 0.0
    for _ in range(3000):
        z = z * (0.99 + 0.001j) + 0.01
        s += abs(z)
    return s


def numpy_reference():
    """Complex array arithmetic over ``REFERENCE_JETS`` elements, a few
    milliseconds.  Imports numpy when called, so that ``setup_s`` still
    includes numpy's import by pqfs."""
    import numpy

    a = numpy.random.default_rng(0).standard_normal((2, REFERENCE_JETS)).view(complex)[0]

    def run():
        b = a * a + 2.0 * a
        return float(numpy.abs(b).max())

    return run


class Workload:
    """Base: ``op`` runs one operation, ``check`` judges its result,
    ``warm_up`` fills whatever the operations cache and ``tracing`` runs
    the operations of its block under a tracer.  ``timing_reference()`` returns
    the fixed work the runner times alongside the operations."""

    def __init__(self, mods: dict):
        self.m = mods

    def timing_reference(self):
        return python_reference

    def warm_up(self, inputs: list[dict]) -> None:
        self.op(inputs[0])

    @contextmanager
    def tracing(self, tracer):
        tracer.install()
        try:
            yield
        finally:
            tracer.uninstall()

    def params(self, x: dict):
        PQParams = self.m["pq_core"].PQParams
        return PQParams.limit(x["p"], x["q"]) if x["p"] == x["q"] else PQParams(x["p"], x["q"])

    def phi(self, x: dict):
        return self.m["classes"].MaMindaTarget(x["phi"])

    def _check_record(self, out: Outcome, r) -> None:
        out.records.append(r)
        out.mu_points += 1
        if not (r.passed and r.attained):
            out.fail(f"oracle record mu={r.mu!r} {r.status} attained={r.attained} gap={r.gap!r}")


class SweepWarm(Workload):
    def timing_reference(self):
        return numpy_reference()

    def warm_up(self, inputs: list[dict]) -> None:
        # one verification fills the sample cache every sweep then reuses
        x, oracle = inputs[0], self.m["oracle"]
        oracle.verify_fs(x["kind"], x["range"][0], self.phi(x), self.params(x), oracle.OracleConfig())

    def op(self, x: dict):
        oracle = self.m["oracle"]
        return oracle.sweep(x["kind"], x["range"], self.phi(x), self.params(x), oracle.OracleConfig())

    def check(self, x: dict, entries) -> Outcome:
        out = Outcome()
        if len(entries) != SWEEP_POINTS:
            return out.fail(f"sweep returned {len(entries)} entries, expected {SWEEP_POINTS}")
        for e in entries:
            if e.record is None:
                return out.fail(f"sweep skipped mu={e.mu!r}: {e.error}")
            self._check_record(out, e.record)
        return out


class VerifyCold(Workload):
    def timing_reference(self):
        return numpy_reference()

    def warm_up(self, inputs: list[dict]) -> None:
        # Warming up on the last inputs of the pool fills the oracle's cache
        # of sample sets, so the timed phase runs at its full memory size,
        # and caches no set the run asks for early on.
        cached_sets = self.m["oracle"]._sample_jets.cache_info().maxsize
        for x in inputs[-cached_sets:]:
            self.op(x)

    def op(self, x: dict):
        oracle, bn = self.m["oracle"], self.m["bernardi"]
        cfg = oracle.OracleConfig(seed=x["oracle_seed"])
        phi, params = self.phi(x), self.params(x)
        if x["op"] == "refined":
            return oracle.verify_refined(x["kind"], x["mu"], phi, params, cfg)
        if x["op"] != "bernardi":
            return oracle.verify_fs(x["kind"], x["mu"], phi, params, cfg)
        bp = bn.BernardiParams(x["c"], params)
        try:
            return bn.verify_fs_bernardi(x["kind"], x["mu"], phi, bp, cfg)
        except self.m["pq_core"].DomainError:
            return REFUSED

    def check(self, x: dict, r) -> Outcome:
        out = Outcome()
        if r is REFUSED:
            out.refused = 1
        elif x["op"] == "bernardi":
            out.bernardi_records = 1
            out.bernardi_fail = int(not r.passed)
        else:
            self._check_record(out, r)
        return out


class ClosedForm(Workload):
    """Each operation evaluates one tuple for both class kinds, so that
    operations cost about the same and the latency median does not sit
    between a starlike and a convex cluster."""

    def op(self, x: dict) -> list[dict]:
        params, phi = self.params(x), self.phi(x)
        return [self._one_kind(x, kind, params, phi) for kind in KINDS]

    def _one_kind(self, x: dict, kind: str, params, phi) -> dict:
        pq, cl, bd, bn = (self.m[k] for k in ("pq_core", "classes", "bounds", "bernardi"))
        mu, muc = x["mu"], x["mu_complex"]
        star = kind == "starlike"
        bound = bd.fs_bound_starlike if star else bd.fs_bound_convex
        res = {
            "max": bound(mu, phi, params).value,
            "max_complex": bound(muc, phi, params).value,
            "piecewise": (bd.fs_piecewise_starlike if star else bd.fs_piecewise_convex)(mu, phi, params).value,
            "thresholds": (bd.sigma_thresholds if star else bd.rho_thresholds)(phi, params),
            "v": [(bd.v_starlike if star else bd.v_convex)(m, phi, params) for m in (mu, muc)],
        }
        j = cl.SchwarzJet(*x["jet"])
        member = (cl.starlike_member if star else cl.convex_member)(cl.caratheodory_from_schwarz(j), phi, params)
        res["residual"] = cl.subordination_residual(member, j, phi, params)
        window, mu_refined = x[kind]
        res["refined"] = bd.refined_inequality_lhs(window, member, mu_refined, phi, params)
        f = pq.TruncatedSeries([0.0, 1.0, member.a2, member.a3])
        bp = bn.BernardiParams(x["c"], params)
        res["routes"] = (bn.bernardi_transform(f, bp).coeffs, bn.bernardi_transform_integral(f, bp).coeffs)
        try:
            res["bernardi"] = (
                bn.fs_bound_bernardi(kind, mu, phi, bp).value,
                bn.fs_bound_bernardi(kind, muc, phi, bp).value,
                bn.fs_piecewise_bernardi(kind, mu, phi, bp).value,
                bn.thresholds_bernardi(kind, phi, bp),
            )
        except pq.DomainError:
            res["bernardi"] = REFUSED
        return res

    def check(self, x: dict, results: list[dict]) -> Outcome:
        out = Outcome()
        for res in results:
            if not _close(res["max"], res["piecewise"]):
                return out.fail(f"max-form {res['max']!r} != piecewise {res['piecewise']!r}")
            if not res["residual"] <= RESIDUAL_TOL:
                return out.fail(f"subordination residual {res['residual']!r}")
            lhs, cap = res["refined"]
            if not lhs <= cap * (1.0 + AGREE_TOL) + AGREE_TOL:
                return out.fail(f"refined lhs {lhs!r} exceeds cap {cap!r}")
            g1, g2 = res["routes"]
            if len(g1) != len(g2) or not all(_close(a, b) for a, b in zip(g1, g2)):
                return out.fail(f"Bernardi routes disagree: {g1} vs {g2}")
            if res["bernardi"] is REFUSED:
                out.refused = 1
            elif not _close(res["bernardi"][0], res["bernardi"][2]):
                return out.fail(f"Bernardi max-form {res['bernardi'][0]!r} != piecewise {res['bernardi'][2]!r}")
        return out


class CliStartup(Workload):
    """One fresh ``python -m pqfs`` child per operation, one child at a time.

    The child runs through ``pqfs_child.py``, which reports its peak
    resident memory on the last line of stderr.  Under ``tracing`` it runs
    through ``tracer.py`` instead, which wraps the library and reports its
    spans there; ``check`` hands them on in ``Outcome.child_spans``.
    """

    traced = False

    def __init__(self, mods: dict):
        super().__init__(mods)
        self._reference: dict[tuple, tuple[int, str, int]] = {}
        self.env = {k: v for k, v in os.environ.items() if k != "PQFS_SEED"}
        self.env["PYTHONPATH"] = SRC

    def op(self, x: dict) -> dict:
        launcher = os.path.join(HERE, "tracer.py" if self.traced else "pqfs_child.py")
        proc = subprocess.Popen(
            [sys.executable, launcher, *x["argv"]],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        # stderr stays small (an error message or one trace line), so reading
        # stdout to the end first cannot block the child
        stdout = proc.stdout.read()
        stderr = proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        proc.wait()
        spans, maxrss_kb = None, 0
        lines = stderr.decode().splitlines()
        if lines and lines[-1].startswith(CHILD_MARK):
            spans = json.loads(lines.pop()[len(CHILD_MARK):])
        elif lines and lines[-1].startswith(RSS_MARK):
            maxrss_kb = int(lines.pop()[len(RSS_MARK):])
        return {"code": proc.returncode, "stdout": hashlib.sha256(stdout).hexdigest(),
                "stderr": "\n".join(lines), "maxrss_kb": maxrss_kb, "spans": spans}

    @contextmanager
    def tracing(self, tracer):
        self.traced = True
        try:
            yield
        finally:
            self.traced = False

    def warm_up(self, inputs: list[dict]) -> None:
        self.reference(inputs[0]["argv"])

    def reference(self, argv: list[str]) -> tuple[int, str, int]:
        """Exit code, stdout digest and number of oracle verifications (mu
        values) of the same command run in-process."""
        key = tuple(argv)
        if key not in self._reference:
            oracle, verified = self.m["oracle"], 0

            def counted(fn):
                def call(*args, **kwargs):
                    nonlocal verified
                    verified += 1
                    return fn(*args, **kwargs)
                return call

            originals = {n: getattr(oracle, n) for n in ("verify_fs", "verify_refined")}
            buf = io.StringIO()
            try:
                for n, fn in originals.items():
                    setattr(oracle, n, counted(fn))
                with redirect_stdout(buf):
                    code = self.m["cli"].main(list(argv))
            finally:
                for n, fn in originals.items():
                    setattr(oracle, n, fn)
            self._reference[key] = (code, hashlib.sha256(buf.getvalue().encode()).hexdigest(), verified)
        return self._reference[key]

    def check(self, x: dict, r: dict) -> Outcome:
        out = Outcome(child_rss_kb=r["maxrss_kb"], child_spans=r["spans"])
        if r["code"] != 0:
            return out.fail(f"{' '.join(x['argv'])} exited {r['code']}: {r['stderr'][-300:]}")
        code, digest, out.mu_points = self.reference(x["argv"])
        if (code, digest) != (0, r["stdout"]):
            return out.fail(f"{' '.join(x['argv'])}: child stdout differs from in-process cli.main")
        return out


CLASSES = {"sweep_warm": SweepWarm, "verify_cold": VerifyCold, "closed_form": ClosedForm,
           "cli_startup": CliStartup}


def record_digest(records: list) -> str:
    """sha256 over (mu, theoretical, empirical, witness) of oracle records,
    floats in hex, so equal digests mean bit-identical oracle output."""
    h = hashlib.sha256()
    for r in records:
        w = r.witness
        parts = [repr(r.mu), r.theoretical.hex(), r.empirical_max.hex(),
                 w.w1.real.hex(), w.w1.imag.hex(), w.w2.real.hex(), w.w2.imag.hex()]
        h.update((" ".join(parts) + "\n").encode())
    return h.hexdigest()
