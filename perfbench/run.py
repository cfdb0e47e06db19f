"""gkslmap benchmark: closed-loop workloads with one client, from source.

One workload run, in its own process:

    python3 perfbench/run.py --workload corpus-local --seed 1 --seconds 30 --trace 0

prints informational ``#`` lines and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` reports the per-layer metrics of a
traced pass, the tracing overhead against an untraced pass of the same ops,
and writes the spans to ``.perfbench_out/``.

    python3 perfbench/run.py --all --seed 1 --seconds 30

runs every workload untraced and traced, each in a fresh process, prints
every metric by name with its unit, and exits non-zero when any op failed.

    python3 perfbench/run.py --self-test

checks that corrupted outputs are counted as failed ops.

The package is imported from ``src/`` of the checkout this file sits in;
nothing is installed.  Scratch files go to ``.perfbench_tmp/`` in the
checkout and are removed when the run ends.
"""

import os

# Pinned before numpy is imported; every layer runs single-threaded.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("corpus-local", "gscan-nonlocal", "cli-pipeline")
SETUP_REPEATS = 5

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
)


def _import_package():
    """Import gkslmap and the benchmark modules from this checkout's sources."""
    global spans, workloads
    if not (SRC / "gkslmap" / "__init__.py").is_file():
        raise ImportError(f"no gkslmap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import gkslmap

    if Path(gkslmap.__file__).resolve().parent != SRC / "gkslmap":
        raise ImportError(f"gkslmap imported from {gkslmap.__file__}, not from {SRC}")
    import spans
    import workloads


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "clients": 1,
    }


# ---------------------------------------------------------------------------
# measuring


def timed_loop(workload, seconds: float, tally):
    """Closed loop over whole input cycles until the ops' own time reaches seconds.

    Whole cycles keep every input's share of the sample fixed: op costs
    differ by up to tenfold between inputs, so a partial cycle would move
    the throughput and the percentiles with the point where it stopped.
    """
    times, passed = [], 0
    cycle = len(workload.inputs)
    while sum(times) < seconds or len(times) % cycle:
        i = len(times)
        dt, ok = workloads.run_checked(workload, workload.inputs[i % cycle], tally, f"op {i}")
        times.append(dt)
        passed += ok
    return times, passed


def tail(times):
    """Highest percentile with at least ten samples beyond it: (value, percentile, n)."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


_IMPORT_CODE = (
    "import time; t = time.perf_counter(); import sys; sys.path.insert(0, sys.argv[1]); "
    "import gkslmap.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Import time of gkslmap (numpy included) in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_CODE, str(SRC)], capture_output=True, text=True, check=True
    )
    return float(proc.stdout)


def set_up(name: str, seed: int, scratch: Path, tally):
    """Set-up time: the median of SETUP_REPEATS fresh-interpreter imports plus
    the median of SETUP_REPEATS rounds of building the seeded inputs and
    running one warm-up op (its check untimed).  Returns the last workload
    built and the time.
    """
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    cls = workloads.WORKLOADS[name]
    durations = []
    for r in range(SETUP_REPEATS):
        workdir = scratch / f"setup-{r}"
        workdir.mkdir()
        t0 = time.perf_counter()
        workload = cls(seed, workdir)
        built = time.perf_counter() - t0
        warm_up, _ = workloads.run_checked(workload, workload.inputs[0], tally, f"warm-up {r}")
        durations.append(built + warm_up)  # the warm-up's output check is not set-up
    return workload, statistics.median(imports) + statistics.median(durations)


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    tally = workloads.Tally()
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch_root))
    try:
        workload, setup_s = set_up(name, seed, scratch, tally)
        if traced:
            metrics = traced_passes(workload, name, seed, seconds, tally)
        else:
            times, passed = timed_loop(workload, seconds, tally)
            value, pct, n = tail(times)
            print(f"# op_s.tail is p{pct:.1f} of {n} ops")
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "ops_per_s": passed / sum(times),
                "op_s.p50": statistics.median(times),
                "op_s.tail": value,
                "peak_rss_mb": rss_mb,
                "setup_s": setup_s,
            }
        if hasattr(workload, "reference_problems"):  # once per run, untimed
            tally.record(workload.reference_problems(), "reference route")
        if not traced:
            metrics["ok_frac"] = 1.0 - tally.failed / tally.attempted
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still holds its scratch directory
    units = dict(END_TO_END + spans.PER_LAYER)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def traced_passes(workload, name, seed, seconds, tally) -> dict:
    """Per-layer metrics from a traced pass, and the tracing overhead.

    Each op of the traced pass runs twice in a row, untraced then traced, so
    the overhead compares the same op under the same machine state.
    """
    rec = spans.Recorder()
    traced_workload = rec.traced(workload)
    plain, traced = [], []
    cycle = len(workload.inputs)
    while sum(plain) + sum(traced) < 0.8 * seconds or len(plain) % cycle:
        i = len(plain)
        inp = workload.inputs[i % cycle]
        plain.append(workloads.run_checked(workload, inp, tally, f"op {i}")[0])
        with rec.installed():
            traced.append(workloads.run_checked(traced_workload, inp, tally, f"traced op {i}")[0])
    metrics = spans.reduce_spans(rec.spans, len(traced))
    metrics["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
    spans_path = ROOT / ".perfbench_out" / f"spans-{name}-seed{seed}.jsonl"
    rec.write(spans_path)
    print(f"# {len(rec.spans)} spans over {len(traced)} ops written to {spans_path}")

    # tracemalloc slows allocation-heavy code, so the peak gets its own pass
    mem = spans.Recorder(memory=True)
    mem_workload = mem.traced(workload)
    spent = 0.0
    with mem.installed():
        tracemalloc.start()
        try:
            for i, inp in enumerate(workload.inputs):
                if spent >= 0.2 * seconds:
                    break
                spent += workloads.run_checked(mem_workload, inp, tally, f"memory op {i}")[0]
        finally:
            tracemalloc.stop()
    metrics["propagate.peak_alloc_mb"] = max(mem.solve_peaks, default=0.0)
    return metrics


# ---------------------------------------------------------------------------
# entry points


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, one fresh process each."""
    status = 0
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exited {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            for line in lines[:-1]:
                print(f"{name} {line}")
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for key, m in result["metrics"].items():
                print(f"  {key:32s} {m['value']:.6g} {m['unit']}")
            if not result["correct"] or result["failed"]:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--self-test", action="store_true", help="check the failure accounting")
    args = parser.parse_args(argv)
    # a terminated run still removes its scratch directory on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        _import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import gkslmap from source: {exc}", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest

        return selftest.main()
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload, --all or --self-test is required")
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
