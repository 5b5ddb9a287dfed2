"""The four benchmark workloads: seeded inputs, one timed request, and its oracle.

A request is one tensor: build it (API workloads) or hand its file to the
``actlab`` command (``cli-files``), decide it, and classify it.  Every
input is built so that its answer is known in advance; ``check`` compares
the program's verdict, tag, ``c``, residual, witness and exit code with
that answer outside the timed region and returns the reason for a failure,
or ``None``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

HOLDS = ("Zero", "ConstantCurvature", "ComplexForm")
# Relative tolerance of the benchmark's own float checks; float verdicts are
# computed with the library default 1e-9.
FLOAT_CHECK_TOL = 1e-6


@dataclass(frozen=True)
class Spec:
    """Inputs of one request, drawn from the workload seed."""

    family: str  # r0 | rtheta | zero | mix | random | gauss-id | gauss
    m: int
    mode: str  # rational | float
    c: Fraction = Fraction(1)
    c2: Fraction = Fraction(1)
    k: int = 3
    seed: int = 0
    scale: float = 1.0  # float inputs: built at unit size, then multiplied by this
    command: str = ""  # cli-files: classify | tsankov | validate
    path: str = ""


@dataclass
class Outcome:
    cpu: float  # CPU seconds of the request: this process, or the CLI child
    wall: float
    result: dict = field(default_factory=dict)
    error: BaseException | None = None
    rss_kb: int = 0


def expected(spec: Spec):
    """(tag, c) implied by how the input was built; c is None where undefined."""
    tags = {
        "r0": "ConstantCurvature",
        "rtheta": "ComplexForm",
        "gauss-id": "ConstantCurvature",
        "zero": "Zero",
    }
    tag = tags.get(spec.family, "NotTsankov")
    c = None
    if tag in ("ConstantCurvature", "ComplexForm"):
        # from_form(a I) is the Gauss tensor a^2 R0
        c = spec.c * spec.c if spec.family == "gauss-id" else spec.c
        if spec.mode == "float":
            c = float(c) * spec.scale
    return tag, c


def known_float_defect(spec: Spec) -> bool:
    """Float inputs scaled below 1 hit the absolute tolerance floors.

    Their failures are counted like every other failure but do not clear
    ``correct`` (see README.md).
    """
    return spec.mode == "float" and spec.scale < 1.0


def _fraction(rng) -> Fraction:
    """A signed non-integer rational with denominator 2-7.

    Integer coefficients would let the witness search of a mix run in int64,
    about four times faster; a rare one would make the medians jump.
    """
    num, den = int(rng.integers(1, 13)), int(rng.integers(2, 8))
    if num % den == 0:
        num += 1
    return Fraction(num if rng.integers(0, 2) else -num, den)


def _draw(rng, family, m, mode, scale=1.0, k=3) -> Spec:
    return Spec(
        family, m, mode, c=_fraction(rng), c2=_fraction(rng), k=k,
        seed=int(rng.integers(2**31)), scale=scale,
    )


def build(A, spec: Spec):
    """A freshly built tensor for the spec (no cache can carry over)."""
    mode = A.RATIONAL if spec.mode == "rational" else A.FLOAT
    m, fam = spec.m, spec.family
    if fam == "r0":
        R = A.r0(m, spec.c, mode)
    elif fam in ("rtheta", "mix"):
        q = A.random_signed_permutation(m, spec.seed, mode)
        cs = A.conjugate_structure(A.standard_complex_structure(m, mode), q)
        if fam == "rtheta":
            R = A.r_theta(cs, spec.c)
        else:
            R = A.combine([(spec.c, A.r0(m, 1, mode)), (spec.c2, A.r_theta(cs, 1))])
    elif fam == "zero":
        R = A.combine([(0, A.r0(m, 1, mode))])
    elif fam == "random":
        R = A.random_act(m, spec.k, spec.seed, mode)
    elif fam == "gauss-id":
        R = A.from_form([[spec.c if i == j else 0 for j in range(m)] for i in range(m)], mode)
    elif fam == "gauss":
        # distinct |d_i|: sectional curvatures d_i d_j differ, so never Tsankov
        rng = np.random.default_rng(spec.seed)
        d = [int(v) * (1 if rng.integers(0, 2) else -1) for v in rng.permutation(2 * m)[:m] + 1]
        R = A.from_form([[d[i] if i == j else 0 for j in range(m)] for i in range(m)], mode)
    else:
        raise ValueError(f"unknown family {fam!r}")
    if spec.mode == "float" and spec.scale != 1.0:
        R = A.combine([(spec.scale, R)])
    return R


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _close(A, a, b) -> bool:
    scale = float(A.max_abs(b))
    return float(A.max_abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))) <= FLOAT_CHECK_TOL * scale


def _same(A, R, rebuilt) -> bool:
    if R.mode.exact:
        return bool((rebuilt.components == R.components).all())
    return _close(A, rebuilt.components, R.components)


def check_witness(A, R, x, y, orthogonal=True) -> str | None:
    """A witness must have a nonzero commutator, and <x, y> = 0 where required."""
    if R.mode.exact:
        x = [Fraction(v) for v in x]
        y = [Fraction(v) for v in y]
        if orthogonal and sum(a * b for a, b in zip(x, y)) != 0:
            return "witness not orthogonal"
        if not (A.commutator(R, x, y) != 0).any():
            return "witness commutator is zero"
        return None
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nx, ny = float(np.linalg.norm(x)), float(np.linalg.norm(y))
    if orthogonal and abs(float(x @ y)) > 1e-9 * nx * ny:
        return "witness not orthogonal"
    size = float(A.max_abs(R.components)) ** 2 * nx * nx * ny * ny
    if not float(A.max_abs(A.commutator(R, x, y))) > FLOAT_CHECK_TOL * size:
        return "witness commutator is zero"
    return None


def _certify(A, R, tag, c, theta, residual, witness) -> str | None:
    """Check a classification against R itself; None when its certificate holds."""
    exact = R.mode.exact
    if tag == "Zero":
        return None if R.is_zero() else "tag Zero on a nonzero tensor"
    if tag == "NotTsankov":
        if witness is None:
            return "NotTsankov without a witness"
        return check_witness(A, R, *witness)
    if tag not in HOLDS:
        return f"unknown tag {tag!r}"
    if exact and residual != 0:
        return f"nonzero exact residual {residual}"
    rebuilt = A.r0(R.m, c, R.mode) if tag == "ConstantCurvature" else A.r_theta(theta, c)
    if not _same(A, R, rebuilt):
        return f"{tag} does not rebuild the tensor"
    if exact:
        poly = A.commutator_poly(R)
        quotient = A.divisible_by_pairing(poly)
        if quotient is None or quotient.multiply_pairing().entries != poly.entries:
            return "quotient times the pairing form is not the commutator polynomial"
    return None


def check_classification(A, spec: Spec, R, tag, c, theta, residual, witness) -> str | None:
    want, want_c = expected(spec)
    if spec.family == "random" and R.is_zero():
        want = "Zero"
    reason = _certify(A, R, tag, c, theta, residual, witness)
    if reason is not None:
        return reason
    if tag != want:
        # a random tensor can only pass by landing in the family, which the
        # certificate above has just proved
        if not (spec.family == "random" and tag in HOLDS):
            return f"tag {tag} != {want}"
    elif want_c is not None:
        if spec.mode == "rational" and c != want_c:
            return f"c {c} != {want_c}"
        if spec.mode == "float" and abs(float(c) - want_c) > FLOAT_CHECK_TOL * abs(want_c):
            return f"c {c} != {want_c}"
    return None


def _check_verdict(A, R, verdict, holds, orthogonal) -> str | None:
    if verdict.holds != holds:
        return f"{verdict.method} holds={verdict.holds}, expected {holds}"
    if not holds:
        return check_witness(A, R, verdict.witness.x, verdict.witness.y, orthogonal)
    return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class ApiWorkload:
    """Requests that call the public API in this process."""

    cross_check = False  # also run tsankov_test("sampled"), and full_commutation_test on random
    mixed = False  # inputs of both scalar modes
    schedule: tuple = ()

    def __init__(self, A, seed: int, workdir: Path):
        self.A, self.seed, self.workdir = A, seed, workdir
        self.ms = sorted({m for _, m in self.schedule})

    def setup(self):
        """Fill the caches an API user pays once per dimension m."""
        canonical = getattr(self.A.tsankov, "_canonical_monomials", None)
        if canonical is not None:
            for m in self.ms:
                canonical(m)

    def cycle(self, index: int) -> list[Spec]:
        rng = np.random.default_rng([self.seed, index])
        return [_draw(rng, fam, m, "rational") for fam, m in self.schedule]

    def execute(self, spec: Spec, tracer=None) -> Outcome:
        if tracer is None:
            return self._request(spec)
        tracer.begin(spec.mode, spec.m)
        tracer.install()
        try:
            return self._request(spec)
        finally:
            tracer.uninstall()

    def _request(self, spec: Spec) -> Outcome:
        A = self.A
        res: dict = {}
        error = None
        w0, c0 = perf_counter(), process_time()
        try:
            res["R"] = build(A, spec)
            res["cls"] = A.classify(res["R"], seed=spec.seed)
            if self.cross_check:
                res["sampled"] = A.tsankov_test(res["R"], "sampled", seed=spec.seed)
                if spec.family == "random":
                    res["full"] = A.full_commutation_test(res["R"], seed=spec.seed)
        except Exception as exc:  # every raise is a counted failure
            error = exc
        return Outcome(process_time() - c0, perf_counter() - w0, res, error)

    def check(self, spec: Spec, out: Outcome) -> str | None:
        if out.error is not None:
            return f"raised {type(out.error).__name__}: {out.error}"
        A, R, cls = self.A, out.result["R"], out.result["cls"]
        witness = None if cls.witness is None else (cls.witness.x, cls.witness.y)
        reason = check_classification(A, spec, R, cls.tag, cls.c, cls.theta, cls.residual, witness)
        if reason is not None or not self.cross_check:
            return reason
        holds = cls.tag in HOLDS
        reason = _check_verdict(A, R, out.result["sampled"], holds, orthogonal=True)
        if reason is None and "full" in out.result:
            reason = _check_verdict(A, R, out.result["full"], R.is_zero(), orthogonal=False)
        return reason


class DeskMixed(ApiWorkload):
    """Every constructor family at m 3-8; a quarter of the inputs are float."""

    name = "desk-mixed"
    cross_check = True
    # m=6 appears twice so that the median lands inside one size, not between two
    schedule = tuple(
        (fam, m)
        for m in (3, 4, 5, 6, 6, 7, 8)
        for fam in ("r0", "random", "gauss") + (("rtheta", "mix") if m % 2 == 0 else ("zero", "gauss-id"))
    )
    mixed = True
    rounds = 4  # each slot is float in exactly one round of a cycle

    def cycle(self, index: int) -> list[Spec]:
        rng = np.random.default_rng([self.seed, index])
        # log-uniform over [1e-8, 1e8], stratified so that every cycle spans the range
        n = len(self.schedule)
        exponents = iter(-8 + 16 * (rng.permutation(n) + rng.uniform(size=n)) / n)
        specs = []
        for r in range(self.rounds):
            for i, (fam, m) in enumerate(self.schedule):
                if (i + r) % self.rounds == 0:
                    mode, scale = "float", float(10.0 ** next(exponents))
                else:
                    mode, scale = "rational", 1.0
                specs.append(_draw(rng, fam, m, mode, scale, k=1 + (i + r) % 3))
        return specs


class RejectLarge(ApiWorkload):
    """Exact random tensors and mixes at m 10-12: witness search and expansion."""

    name = "reject-large"
    # Most weight on m=11 puts the median on one size, so it stays steady.
    schedule = (
        ("mix", 10), ("random", 10), ("random", 11), ("random", 11),
        ("random", 11), ("random", 11), ("mix", 12), ("random", 12),
    )


class AcceptLarge(ApiWorkload):
    """Exact r0 and rotated r_theta at m 12-16: the full accepting path."""

    name = "accept-large"
    # Most weight on r0 at m=14 puts the median on one size, so it stays steady.
    schedule = (
        ("r0", 12), ("rtheta", 12), ("r0", 14), ("r0", 14),
        ("r0", 14), ("rtheta", 14), ("r0", 16), ("rtheta", 16),
    )


CLI_FILES = (  # family, m, mode, storage
    ("r0", 4, "rational", "sparse"),
    ("rtheta", 6, "rational", "dense"),
    ("mix", 8, "rational", "sparse"),
    ("random", 5, "rational", "dense"),
    ("r0", 7, "float", "dense"),
    ("rtheta", 8, "float", "sparse"),
    ("random", 6, "float", "sparse"),
    ("r0", 10, "rational", "dense"),
    ("mix", 10, "rational", "sparse"),
)
CLI_COMMANDS = ("classify", "tsankov", "validate")
CLI_LAUNCH = "import sys; from actlab.cli import console_main; console_main()"


def run_child(cmd, env, cwd, stderr):
    """Run a child to its end: (exit code, stdout, CPU s, wall s, peak RSS KiB).

    CPU time and peak RSS are the child's own, from ``os.wait4``.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=stderr, env=env, cwd=cwd)
    with proc:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, usage.ru_utime + usage.ru_stime, wall, usage.ru_maxrss


def _parse_scalar(raw: str, exact: bool):
    return Fraction(raw) if exact else float(raw)


def parse_cli_output(text: str, exact: bool) -> dict:
    fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
    out: dict = {"raw": fields}
    vec = lambda key: [_parse_scalar(v, exact) for v in fields[key].split(",")]  # noqa: E731
    if "witness_x" in fields:
        out["witness"] = (vec("witness_x"), vec("witness_y"))
    if "c" in fields:
        out["c"] = _parse_scalar(fields["c"], exact)
    if "residual" in fields:
        out["residual"] = _parse_scalar(fields["residual"], exact)
    rows = sorted(k for k in fields if k.startswith("theta_row_"))
    if rows:
        out["theta"] = [vec(f"theta_row_{i}") for i in range(len(rows))]
    return out


class CliFiles:
    """``actlab classify | tsankov | validate`` as one child process per request."""

    name = "cli-files"
    mixed = True

    def __init__(self, A, seed: int, workdir: Path, env: dict, bench_dir: Path):
        self.A, self.seed, self.workdir, self.env, self.bench_dir = A, seed, workdir, env, bench_dir
        self.tensors: dict = {}
        self.digests: dict = {}  # (command, path) -> (exit code, stdout digest) of the first run

    def setup(self):
        """Write the tensor files, then start one child to warm the page cache."""
        rng = np.random.default_rng([self.seed, 0])
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.files = []
        for n, (fam, m, mode, storage) in enumerate(CLI_FILES):
            spec = _draw(rng, fam, m, mode)
            path = self.workdir / f"t{n}-{fam}-{m}-{mode}-{storage}.json"
            R = build(self.A, spec)
            self.A.save_tensor(R, path, storage)
            self.tensors[str(path)] = R
            self.files.append(replace(spec, path=str(path)))
        self._child(["validate", self.files[0].path], None)

    def cycle(self, index: int) -> list[Spec]:
        return [replace(f, command=cmd) for f in self.files for cmd in CLI_COMMANDS]

    def _child(self, argv, spans_path):
        if spans_path is None:
            cmd = [sys.executable, "-c", CLI_LAUNCH, *argv]
        else:
            cmd = [sys.executable, str(self.bench_dir / "traced_cli.py"), str(spans_path), *argv]
        err_path = self.workdir / "stderr.txt"
        with open(err_path, "wb") as err:
            code, stdout, cpu, wall, rss_kb = run_child(cmd, self.env, self.workdir, err)
        result = {"code": code, "stdout": stdout, "stderr": err_path.read_text(errors="replace")}
        return Outcome(cpu, wall, result, rss_kb=rss_kb)

    def execute(self, spec: Spec, tracer=None) -> Outcome:
        if tracer is None:
            return self._child([spec.command, spec.path], None)
        spans_path = self.workdir / "spans.json"
        spans_path.unlink(missing_ok=True)
        out = self._child([spec.command, spec.path], spans_path)
        spans = json.loads(spans_path.read_text()) if spans_path.exists() else []
        tracer.add_spans(spans, spec.mode, spec.m)
        return out

    def check(self, spec: Spec, out: Outcome) -> str | None:
        code, stdout = out.result["code"], out.result["stdout"]
        key = (spec.command, spec.path)
        record = (code, hashlib.sha256(stdout).hexdigest())
        if self.digests.setdefault(key, record) != record:
            return "output differs from the first run of the same command"
        text = stdout.decode(errors="replace")
        exact = spec.mode == "rational"
        if code not in (0, 1):
            return f"exit code {code}: {out.result['stderr'].strip()}"
        parsed = parse_cli_output(text, exact)
        fields = parsed["raw"]
        R = self.tensors[spec.path]
        want, _ = expected(spec)
        holds = want in HOLDS or R.is_zero()
        if spec.command == "validate":
            ok = code == 0 and fields.get("accepted") == "true"
            return None if ok else f"validate exit {code}, accepted={fields.get('accepted')}"
        if spec.command == "tsankov":
            if fields.get("holds") != ("true" if holds else "false") or code != (0 if holds else 1):
                return f"tsankov holds={fields.get('holds')} exit {code}, expected holds={holds}"
            return None if holds else check_witness(self.A, R, *parsed["witness"])
        tag = fields.get("tag")
        if code != (0 if tag in HOLDS else 1):
            return f"classify tag={tag} exit {code}"
        theta = None
        if "theta" in parsed:
            theta = self.A.ComplexStructure(np.array(parsed["theta"], dtype=object if exact else float), R.mode)
        return check_classification(
            self.A, spec, R, tag, parsed.get("c"), theta, parsed.get("residual"), parsed.get("witness")
        )

    def output_digest(self) -> str:
        """One digest over every (command, file, exit code, stdout digest) record."""
        h = hashlib.sha256()
        for (cmd, path), (code, digest) in sorted(self.digests.items()):
            h.update(f"{cmd} {Path(path).name} {code} {digest}\n".encode())
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (DeskMixed, RejectLarge, AcceptLarge, CliFiles)}
