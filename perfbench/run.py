"""Run one benchmark workload of risce and print its metrics.

    python3 perfbench/run.py --workload mc-paper --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports risce from ``src``.  The
workload runs in this one process, closed loop: the next operation starts
when the previous one returns, and passes repeat until they have run for
``--seconds``.  BLAS is pinned to one thread through the environment before numpy
is imported.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics, measured with tracing off.  With ``--trace 1`` untraced and traced
passes alternate, and the last line holds the per-layer metrics of the
traced passes.  The line before the last one,
and ``perfbench/out/<workload>-seed<n>-trace<t>.json``, hold the
environment (git revision, seed, library versions, BLAS threads, CPUs) and
per-kind timings and failures.
"""

import os

BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402  (the environment must be set before numpy loads)
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

sys.path.insert(0, str(ROOT / "src"))
try:
    import workloads
    from tracing import Tracer
except ModuleNotFoundError as exc:
    sys.exit(f"perfbench: {exc}; run from the root of a checkout with src/risce")

SETUP_REPEATS = 9
TAIL_BEYOND = 10      # samples a tail percentile must leave beyond it
PARTS = ("ls", "lmmse")
PROBE_PERIOD_S = 0.1


class Tally:
    """Outcomes of the operations of one measured phase."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0                          # failed their output check
        self.errors: Counter = Counter()        # exception class -> operations
        self.kind_s: dict = defaultdict(list)   # kind -> seconds of each success
        self.part_s: dict = defaultdict(list)   # part -> seconds per whole pass
        self.part_rel: dict = defaultdict(list)  # part -> part time in probe units, per pass
        self.pass_s: list = []                  # seconds of all operations per pass
        self.probe_s: list = []                 # mean probe time per pass

    def fail(self, op, exc: BaseException) -> None:
        self.failed += 1
        name = type(exc).__name__
        if self.errors[name] == 0:
            print(f"perfbench: {op.kind} failed:", file=sys.stderr)
            traceback.print_exception(exc, file=sys.stderr)
        self.errors[name] += 1


_RNG = np.random.default_rng(0)
_PROBE_MATRICES = tuple((_RNG.standard_normal((n, n)) + 1j * _RNG.standard_normal((n, n)), reps)
                        for n, reps in ((84, 1), (18, 12)))


def probe_kernel() -> None:
    """A fixed numpy/scipy computation of about 2 ms that calls no risce code.

    The matrix sizes are those of the paper (84) and desk (18) profiles.
    """
    for a, reps in _PROBE_MATRICES:
        for _ in range(reps):
            g = a @ a.conj().T + np.eye(a.shape[0])
            scipy.linalg.cho_solve(scipy.linalg.cho_factor(g), a)
            np.linalg.eigvalsh(g)


class SpeedProbe:
    """Samples the speed of the shared machine while operations run.

    Every PROBE_PERIOD_S a SIGALRM handler times probe_kernel.  Operation
    times are reported net of the probes and as multiples of the mean probe
    time during the operation, so that the speed the machine happens to
    have at that moment cancels out.
    """

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.spent = 0.0

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        probe_kernel()
        took = time.perf_counter() - start
        self.durations.append(took)
        self.spent += took

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self) -> "SpeedProbe":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def run_op(op, tally: Tally, probe: SpeedProbe | None):
    """Run and check one operation.

    Returns (seconds it ran net of probes, whether it succeeded, mean probe
    seconds during it or None).
    """
    tally.attempted += 1
    first, spent = (len(probe.durations), probe.spent) if probe else (0, 0.0)
    start = time.perf_counter()
    try:
        output = op.run()
        ok = True
    except Exception as exc:    # a failing operation must not stop the run
        tally.fail(op, exc)
        ok = False
    elapsed = time.perf_counter() - start
    during = None
    if probe:
        elapsed -= probe.spent - spent
        samples = probe.durations[first:]
        during = statistics.fmean(samples) if samples else None
    if ok:
        try:
            op.check(output)
        except workloads.CheckFailed as exc:
            tally.wrong += 1
            tally.fail(op, exc)
            ok = False
    if ok:
        tally.kind_s[op.kind].append(elapsed)
    return elapsed, ok, during


def run_pass(ops, tally: Tally, probe: SpeedProbe | None) -> None:
    """Run every operation once and time the two parts of the pass."""
    parts = dict.fromkeys(PARTS, 0.0)
    timed = []                      # (part, seconds, mean probe seconds or None)
    broken = set()
    total = 0.0
    first = len(probe.durations) if probe else 0
    for op in ops:
        elapsed, ok, during = run_op(op, tally, probe)
        total += elapsed
        if not ok:
            broken.add(op.part)
        elif op.part is not None:
            parts[op.part] += elapsed
            timed.append((op.part, elapsed, during))
    tally.pass_s.append(total)
    for part, seconds in parts.items():
        if part not in broken:
            tally.part_s[part].append(seconds)
    if probe is None:
        return
    pass_probe = statistics.fmean(probe.durations[first:])
    tally.probe_s.append(pass_probe)
    rel = dict.fromkeys(PARTS, 0.0)
    for part, seconds, during in timed:
        rel[part] += seconds / (during or pass_probe)
    for part, value in rel.items():
        if part not in broken:
            tally.part_rel[part].append(value)


def run_for(ops, seconds: float, tally: Tally, probe: SpeedProbe | None = None,
            between=None) -> tuple[int, float]:
    """Repeat whole passes until they have run `seconds`; at least one pass.

    between(share), if given, runs after each pass and outside the measured
    time, with the share of `seconds` measured so far (1 after the last).
    """
    measured = 0.0
    passes = 0
    while passes == 0 or measured < seconds:
        start = time.perf_counter()
        run_pass(ops, tally, probe)
        measured += time.perf_counter() - start
        passes += 1
        if between:
            between(min(measured / seconds, 1.0))
    return passes, measured


def tail(samples: list) -> dict | None:
    """Highest whole percentile with TAIL_BEYOND samples beyond it.

    None when that percentile would not lie above the median.
    """
    n = len(samples)
    pct = (100 * (n - TAIL_BEYOND)) // n
    if pct <= 50:
        return None
    return {"percentile": f"p{pct}", "value": statistics.quantiles(samples, n=100)[pct - 1]}


def kind_summary(tally: Tally) -> dict:
    return {kind: {"ok": len(s), "median_s": statistics.median(s), "tail": tail(s)}
            for kind, s in tally.kind_s.items()}


def spawn_setup(args) -> float:
    """Seconds from spawning a fresh process to its inputs being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        took = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed (exit code {proc.returncode})")
    return took


def git_revision() -> str:
    """HEAD of the checkout's .git directory, or "unknown" without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    def blas(module) -> str:
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return {
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, ops) -> tuple[dict, Tally, dict]:
    tally = Tally()
    setup: list[float] = []
    with SpeedProbe() as probe:
        def spawn_due(share: float) -> None:
            # Set-up times drift with the machine's load over seconds, so the
            # spawns are spread over the run instead of bunched at its start.
            probe.stop()
            try:
                while len(setup) < SETUP_REPEATS * share:
                    setup.append(spawn_setup(args))
            finally:
                probe.start()

        passes, measured = run_for(ops, args.seconds, tally, probe, spawn_due)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for part in PARTS:
        if tally.part_rel[part]:
            metrics[f"{part}_rel.p50"] = metric(statistics.median(tally.part_rel[part]), "probe")
    detail = {"setup_s": setup, "passes": passes, "measured_s": measured,
              "part_s": dict(tally.part_s), "part_rel": dict(tally.part_rel),
              "probe_s": tally.probe_s,
              "probes": len(probe.durations),
              "part_s.p50": {p: statistics.median(v) for p, v in tally.part_s.items()}}
    return metrics, tally, detail


def per_layer(args, ops) -> tuple[dict, Tally, dict]:
    """Alternate untraced and traced passes; per-layer metrics of the traced ones."""
    tracer = Tracer()
    tally, traced = Tally(), Tally()
    start = time.perf_counter()
    while not traced.pass_s or time.perf_counter() - start < args.seconds:
        run_pass(ops, tally, None)
        tracer.install()
        try:
            run_pass(ops, traced, None)
        finally:
            tracer.uninstall()
    passes = len(traced.pass_s)
    layers = tracer.layer_metrics(passes, sum(traced.pass_s))
    metrics = {name: metric(value, unit) for name, (value, unit) in layers.items()}
    # Each traced pass is compared with the untraced pass just before it.
    overhead = statistics.median(t / u for t, u in zip(traced.pass_s, tally.pass_s)) - 1.0
    metrics["trace.overhead_frac"] = metric(overhead, "frac")
    trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(trace_path)

    detail = {"traced_passes": passes, "spans": len(tracer.spans),
              "span_file": str(trace_path.relative_to(ROOT)),
              "untraced_pass_s": tally.pass_s, "traced_pass_s": traced.pass_s,
              "traced_kinds": kind_summary(traced)}
    for name in ("attempted", "failed", "wrong"):
        setattr(tally, name, getattr(tally, name) + getattr(traced, name))
    tally.errors += traced.errors
    return metrics, tally, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    OUT_DIR.mkdir(exist_ok=True)
    ops = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    measure = per_layer if args.trace else end_to_end
    metrics, tally, detail = measure(args, ops)

    detail["kinds"] = kind_summary(tally)
    detail["errors"] = dict(tally.errors)
    record = {"environment": environment(args), "detail": detail}
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "result": result}, indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
