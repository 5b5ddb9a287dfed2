"""actlab benchmark: time to a checked verdict on four seeded workloads.

    python3 bench/run.py --workload desk-mixed --seed 1 --seconds 25 --trace 0

One process, one client, closed loop: the next request starts when the
previous one has finished and been checked.  The loop runs whole cycles of
the workload's schedule, as many as end closest to ``--seconds`` (at least
one).  Requests are timed in CPU time, calibrated against a fixed kernel
run every half second (README.md says why).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs each cycle untraced and then traced
on the same inputs and prints per-layer metrics and the tracing overhead.  The last line of
stdout is the JSON result; the lines before it are a readable report.
See README.md for the metrics and the reasons behind each workload.
"""

from __future__ import annotations

import os

# One BLAS thread everywhere, set before numpy loads; children inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from bisect import bisect_left, bisect_right  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5  # set-ups per run, each in a fresh process; setup_s is their median
STARTUP_REPEATS = 3
TAIL_MIN_SAMPLES = 20  # below this the tail percentile would be at or under the median
FAILURES_SHOWN = 5
CALIBRATION_INTERVAL = 0.5  # wall seconds between samples of the calibration kernel
CALIBRATION_REF = 0.020  # CPU seconds of the kernel at the reference speed

LAYER_TIMES = {  # metric -> span name; every layer time is a self time
    "tensors.build_s": "tensors.build",
    "tensors.validate_s": "tensors.validate",
    "jacobi.jacobi_s": "jacobi.jacobi",
    "jacobi.polarized_s": "jacobi.polarized",
    "scalars.rank_s": "scalars.rank",
    "tsankov.poly_s": "tsankov.poly",
    "tsankov.divide_s": "tsankov.divide",
    "tsankov.search_s": "tsankov.search",
    "tsankov.sampled_s": "tsankov.sampled",
    "classify.self_s": "classify.classify",
    "classify.recover_s": "classify.recover",
    "cli.load_s": "cli.load",
    "cli.process_s": "cli.process",
}
LAYER_CALLS = {
    "tensors.build_calls": "tensors.build",
    "jacobi.jacobi_calls": "jacobi.jacobi",
    "jacobi.polarized_calls": "jacobi.polarized",
    "scalars.rank_calls": "scalars.rank",
    "tsankov.poly_calls": "tsankov.poly",
    "classify.recover_calls": "classify.recover",
}
MODES = ("rational", "float")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ACT_TOL", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def calibration_seconds() -> float:
    """CPU seconds of a fixed piece of work that does not touch actlab.

    Rational sums and an int64 einsum, the two kinds of work in actlab's hot
    paths.  Its time tracks how fast this machine runs right now.
    """
    import numpy as np

    t0 = process_time()
    total = Fraction(0)
    for i in range(1, 6000):
        total += Fraction(1, i % 97 + 1)
    a = np.arange(6**4, dtype=np.int64).reshape((6,) * 4) % 7
    np.einsum("acij,cbkl->abijkl", a, a)
    return process_time() - t0


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    own, children = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def import_actlab():
    sys.path.insert(0, str(SRC))
    import actlab

    if Path(actlab.__file__).resolve().parent != (SRC / "actlab").resolve():
        raise SystemExit(f"error: imported actlab from {actlab.__file__}, not from {SRC}")
    return actlab


def set_up(args, workdir: Path):
    """Imports (numpy included), input generation, file writing and warm-up.

    Returns (workload, calibrated CPU seconds).
    """
    t0 = cpu_seconds()
    from workloads import WORKLOADS, CliFiles

    A = import_actlab()
    cls = WORKLOADS.get(args.workload)
    if cls is None:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if cls is CliFiles:
        workload = cls(A, args.seed, workdir, child_env(), BENCH)
    else:
        workload = cls(A, args.seed, workdir)
    workload.setup()
    seconds = cpu_seconds() - t0
    return workload, seconds * CALIBRATION_REF / min(calibration_seconds(), calibration_seconds())


def setup_in_child(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, cwd=ROOT)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def git_revision() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "actlab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git": git_revision(),
        "src_sha256": digest.hexdigest()[:16],
    }


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


@dataclass
class Record:
    spec: object
    out: object
    reason: str | None  # why the request failed, or None
    traced: bool
    start: float  # wall clock
    end: float
    scale: float = 1.0  # CALIBRATION_REF over the calibration time around the request

    @property
    def cpu(self) -> float:
        """Calibrated CPU seconds of the request."""
        return self.out.cpu * self.scale


class Run:
    """Requests, outcomes and failures of one benchmark run."""

    def __init__(self, workload):
        self.workload = workload
        self.records: list[Record] = []
        self.samples = []  # (wall clock, calibration CPU seconds)

    def calibrate(self):
        self.samples.append((perf_counter(), calibration_seconds()))

    def request(self, spec, tracer=None):
        if perf_counter() - self.samples[-1][0] >= CALIBRATION_INTERVAL:
            self.calibrate()
        start = perf_counter()
        out = self.workload.execute(spec, tracer)
        end = perf_counter()
        self.records.append(Record(spec, out, self.workload.check(spec, out), tracer is not None, start, end))
        out.result = None  # keep the tensors of one request only, so memory stays flat

    def loop(self, seconds, tracer=None):
        """Whole cycles, the first always; another starts while it is expected
        to end less than half a cycle after ``seconds``.

        With a tracer, each request runs untraced and then traced.  Each
        request is scaled by the calibration samples taken just before and
        just after it.
        """
        self.calibrate()
        t_start = perf_counter()
        index = 0
        while True:
            t_cycle = perf_counter()
            for spec in self.workload.cycle(index):
                self.request(spec)
                if tracer is not None:
                    self.request(spec, tracer)
            index += 1
            now = perf_counter()
            if now - t_start + (now - t_cycle) / 2 > seconds:
                break
        self.calibrate()
        times = [t for t, _ in self.samples]
        for rec in self.records:
            before = self.samples[bisect_right(times, rec.start) - 1][1]
            after = self.samples[bisect_left(times, rec.end)][1]
            rec.scale = 2 * CALIBRATION_REF / (before + after)
        return index

    def failures(self):
        return [(rec.spec, rec.reason) for rec in self.records if rec.reason is not None]


def percentile_tail(values):
    """Highest percentile with at least ten samples beyond it, as (pct, value)."""
    n = len(values)
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(run: Run, setups):
    w = run.workload
    cpu = [rec.cpu for rec in run.records]
    n = len(cpu)
    metrics = {
        "latency_p50_ms": (statistics.median(cpu) * 1e3, "ms"),
        "throughput_per_s": (n / sum(cpu), "1/s"),
    }
    if w.name == "cli-files":
        rss_kb = max(rec.out.rss_kb for rec in run.records)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    metrics["setup_s"] = (statistics.median(setups), "s")
    raw = [rec.out.cpu for rec in run.records]
    wall = [rec.out.wall for rec in run.records]
    lines = [
        f"latency_p50_ms={metrics['latency_p50_ms'][0]:.6g} ms (n={n}; uncalibrated CPU "
        f"{statistics.median(raw) * 1e3:.6g} ms, wall {statistics.median(wall) * 1e3:.6g} ms)"
    ]
    if n >= TAIL_MIN_SAMPLES:
        pct, value = percentile_tail(cpu)
        lines.append(f"latency_tail_ms={value * 1e3:.6g} ms (p{pct:.1f}, n={n})")
    else:
        lines.append(f"latency_tail_ms omitted (n={n} < {TAIL_MIN_SAMPLES})")
    if w.mixed:
        for mode in MODES:
            by_mode = [rec.cpu for rec in run.records if rec.spec.mode == mode]
            if by_mode:
                lines.append(f"latency_p50_ms.{mode}={statistics.median(by_mode) * 1e3:.6g} ms (n={len(by_mode)})")
    lines.append(
        f"throughput_per_s={metrics['throughput_per_s'][0]:.6g} 1/s "
        f"(uncalibrated CPU {n / sum(raw):.6g} 1/s, wall {n / sum(wall):.6g} 1/s)"
    )
    lines.append(f"peak_rss_mb={metrics['peak_rss_mb'][0]:.6g} MB")
    lines.append(f"setup_s={metrics['setup_s'][0]:.6g} s (median of {', '.join(f'{s:.4g}' for s in setups)})")
    scales = [rec.scale for rec in run.records]
    lines.append(
        f"calibration: {len(run.samples)} samples, scale median {statistics.median(scales):.4g} "
        f"(min {min(scales):.4g}, max {max(scales):.4g})"
    )
    return metrics, lines


def startup_seconds() -> float:
    """Median CPU time of a bare ``python -c "import actlab"``."""
    from workloads import run_child

    cmd = [sys.executable, "-c", "import actlab"]
    return statistics.median(
        run_child(cmd, child_env(), ROOT, subprocess.DEVNULL)[2] for _ in range(STARTUP_REPEATS)
    )


def per_layer(run: Run, tracer, save_spans):
    """Layer metrics from the traced requests, as means per request.

    ``.rational`` and ``.float`` variants are means per request of that mode.
    """
    from tracing import self_times

    seconds = defaultdict(float)  # (span name, mode) -> self seconds
    calls = Counter()
    by_m = defaultdict(float)  # (span name, m, mode) -> self seconds
    nnz = 0
    for span, st in zip(tracer.spans, self_times(tracer.spans)):
        name, request, _, _, _, count = span
        mode, m = tracer.requests[request]
        seconds[(name, mode)] += st
        calls[name] += 1
        by_m[(name, m, mode)] += st
        if name == "tsankov.poly":
            nnz += count
    n = len(tracer.requests)
    n_mode = Counter(mode for mode, _ in tracer.requests)
    n_m_mode = Counter(tracer.requests)
    metrics = {}
    for metric, name in LAYER_TIMES.items():
        metrics[metric] = (sum(seconds[(name, md)] for md in MODES) / n, "s")
        for md in MODES:
            metrics[f"{metric}.{md}"] = (seconds[(name, md)] / n_mode[md] if n_mode[md] else 0.0, "s")
    # files are written once, in set-up: seconds per file saved
    saves = [end - start for _, _, _, start, end, _ in save_spans]
    metrics["cli.save_s"] = (sum(saves) / len(saves) if saves else 0.0, "s")
    for metric, name in LAYER_CALLS.items():
        metrics[metric] = (calls[name] / n, "count")
    metrics["tsankov.poly_nnz"] = (nnz / n, "count")

    traced = [rec.out.cpu for rec in run.records if rec.traced]
    untraced = [rec.out.cpu for rec in run.records if not rec.traced]
    metrics["trace.request_s"] = (sum(traced) / n, "s")
    metrics["trace.overhead_pct"] = (100.0 * (sum(traced) - sum(untraced)) / sum(untraced), "%")
    metrics["cli.startup_s"] = (startup_seconds(), "s")

    lines = [f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items() if not k.endswith(MODES)]
    lines.append(f"traced requests={n} ({', '.join(f'{md}={n_mode[md]}' for md in MODES)})")
    for (name, m, mode), st in sorted(by_m.items()):
        lines.append(f"layer {name} m={m} mode={mode} self_s_per_request={st / n_m_mode[(mode, m)]:.6g}")
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "actlab" / "__init__.py").is_file():
        print(f"error: no actlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            _, seconds = set_up(args, workdir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        tracer = save_spans = None
        if args.trace:
            from tracing import Tracer

            import_actlab()
            setup_tracer = Tracer()
            setup_tracer.begin(None, None)
            setup_tracer.install()
            try:
                workload, setup_s = set_up(args, workdir)
            finally:
                setup_tracer.uninstall()
            save_spans = [s for s in setup_tracer.spans if s[0] == "cli.save"]
            tracer = Tracer()
        else:
            workload, setup_s = set_up(args, workdir)
        run = Run(workload)
        cycles = run.loop(args.seconds, tracer)
        env = environment()
        print(" ".join(f"{k}={v}" for k, v in env.items()))
        print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} cycles={cycles}")
        if args.trace:
            metrics, lines = per_layer(run, tracer, save_spans)
        else:
            setups = [setup_s] + [setup_in_child(args) for _ in range(1, SETUP_REPEATS)]
            metrics, lines = end_to_end(run, setups)
        from workloads import known_float_defect

        failures = run.failures()
        known = [(spec, reason) for spec, reason in failures if known_float_defect(spec)]
        attempted = len(run.records)
        lines.append(
            f"failed_share={len(failures) / attempted:.6g} ({len(failures)}/{attempted}; "
            f"{len(known)} in the known float-scaling class)"
        )
        if workload.name == "cli-files":
            lines.append(f"cli.output_digest={workload.output_digest()}")
        for spec, reason in failures[:FAILURES_SHOWN]:
            lines.append(f"failure: {spec.family} m={spec.m} {spec.mode} scale={spec.scale:.3g} "
                         f"{spec.command} seed={spec.seed}: {reason}")
        for line in lines:
            print(line)
        print(json.dumps({
            "correct": len(failures) == len(known),
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
