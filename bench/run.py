"""hydramaps benchmark runner.

    python3 bench/run.py --workload census --seed 1 --seconds 25 --trace 0

Runs one workload as a closed loop (one client; each query is sent when
the previous one has returned), checks every answer, and prints the
end-to-end metrics as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is a JSON `info` object: machine, fail ratio, tail
percentile and sample count, set-up samples and the first failures.
With --trace 1 it instead runs each workload once more in its own
traced process (same seed) and prints the per-layer metrics and the
tracing overhead of every workload.  --workload all prints the
end-to-end metrics of all four workloads.  See bench/README.md.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()     # set-up is timed from here, before hydramaps is imported

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"
NAMES = ("census", "spectral", "certify", "cli")

# highest percentile that keeps at least ten samples beyond it at the
# fewest samples a --seconds 25 run has collected on the reference
# machine (see bench/README.md); fixed, so every run reads the same rank
TAIL_PERCENTILE = {"census": 98, "spectral": 97, "certify": 95, "cli": 85}
END_TO_END = {"throughput_qps": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 2        # extra set-ups in fresh processes, for the median
CHILD_TIMEOUT = 170
WALL_CAP = 120           # stop starting rounds after this much wall time


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import hydramaps from this checkout's src/ and nowhere else."""
    if not (SRC / "hydramaps" / "__init__.py").is_file():
        fail(f"no hydramaps package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hydramaps
    if Path(hydramaps.__file__).resolve().parent != (SRC / "hydramaps").resolve():
        fail(f"imported hydramaps from {hydramaps.__file__}, not from {SRC}")
    import workloads
    return workloads


# ---------------------------------------------------------------------------
# machine block

def machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "commit": _commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads(numpy) -> int | None:
    """Thread count of numpy's bundled OpenBLAS, asked from the library."""
    import ctypes
    import glob

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


# ---------------------------------------------------------------------------
# the closed loop

class Stats:
    def __init__(self):
        self.samples: list[tuple[int, str, float]] = []    # (round, label, seconds)
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.rounds = 0
        self.child_rss_kb = 0
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)


def run_rounds(wl, stats: Stats, seconds: float | None, rounds: int | None = None,
               tracer=None) -> None:
    """Run whole rounds until `seconds` of query time (or `rounds`
    rounds) have been spent; check each round's answers after it."""
    wall_start = time.perf_counter()
    index = 0
    while True:
        batch = wl.rounds[index % len(wl.rounds)]
        outcomes, results = [], {}
        for q in batch:
            result, error = None, None
            start = time.perf_counter()
            try:
                if tracer is None:
                    result = q.call()
                else:
                    with tracer.query(stats.attempted, q.label):
                        result = q.call()
            except Exception as exc:     # a failed query is counted, not fatal
                error = f"{q.label} raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            stats.samples.append((stats.rounds, q.label, elapsed))
            stats.busy += elapsed
            stats.attempted += 1
            results[q.key] = result
            outcomes.append((q, result, error))
            maxrss = getattr(result, "maxrss_kb", None)
            if maxrss is not None:
                stats.child_rss_kb = max(stats.child_rss_kb, maxrss)
        for q, result, error in outcomes:
            if error is None:
                try:
                    error = q.check(result, results)
                except Exception as exc:   # a check that cannot run is a failure
                    error = f"check of {q.label} raised {type(exc).__name__}: {exc}"
            if error is not None:
                stats.fail(error)
        index += 1
        stats.rounds += 1
        if rounds is not None:
            if stats.rounds >= rounds:
                return
        elif stats.busy >= seconds or time.perf_counter() - wall_start > WALL_CAP:
            return


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def child(args: list[str]) -> dict:
    """Run this script with args in a fresh process; its last line."""
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        fail(f"child {' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup(workloads, name: str, seed: int):
    wl = workloads.WORKLOADS[name](seed)
    warm = wl.warm_up()
    return wl, warm, time.perf_counter() - T0


def emit(info: dict, correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def untraced(workloads, name: str, seed: int, seconds: float) -> None:
    wl, warm, setup_s = setup(workloads, name, seed)
    stats = Stats()
    run_rounds(wl, stats, seconds)
    samples = [setup_s] + [child(["--workload", name, "--seed", str(seed), "--setup-only"])["setup_s"]
                           for _ in range(SETUP_REPEATS)]
    pct = TAIL_PERCENTILE[name]
    latencies = [seconds for *_, seconds in stats.samples]
    correct = stats.attempted - stats.failed
    if name == "cli":
        rss_kb = stats.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "throughput_qps": correct / stats.busy,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": percentile(latencies, pct) * 1e3,
        "setup_s": statistics.median(samples),
        "peak_rss_mb": rss_kb / 1024,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    info = {
        "workload": name, "seed": seed, "seconds": seconds,
        "fail_ratio": stats.failed / stats.attempted,
        "tail_percentile": pct, "samples": stats.attempted,
        "samples_beyond_tail": sum(1 for x in latencies if x * 1e3 > values["latency_tail_ms"]),
        "rounds": stats.rounds, "busy_s": stats.busy, "setup_samples_s": samples,
        "warm_up": warm, "failures": stats.failures, "machine": machine(),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"samples-{name}-seed{seed}.json", "w", encoding="utf-8") as handle:
        json.dump(stats.samples, handle)
    emit(info, stats.failed == 0, stats.attempted, stats.failed, metrics)


def run_all(seed: int, seconds: float) -> None:
    rows, attempted, failed, merged = [], 0, 0, {}
    for name in NAMES:
        result = child(["--workload", name, "--seed", str(seed), "--seconds", str(seconds)])
        attempted += result["attempted"]
        failed += result["failed"]
        row = {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}
        row["fail_ratio"] = (result["failed"] / result["attempted"], "ratio")
        rows.append((name, row))
        merged.update({f"{name}.{k}": vu for k, vu in row.items()})
    for name, row in rows:
        print(f"{name:9s}" + "  ".join(f"{k}={v:.6g} {u}" for k, (v, u) in row.items()))
    emit({"workload": "all", "seed": seed}, failed == 0, attempted, failed, merged)


# ---------------------------------------------------------------------------
# the traced run

def traced(workloads, name: str, seed: int) -> None:
    """One workload's traced process: set up, run the first
    layers.TRACE_ROUNDS rounds untraced, traced, and untraced again;
    print its per-layer metrics and the overhead, traced time minus the
    faster untraced pass."""
    import layers
    from spans import Tracer

    wl, _, _ = setup(workloads, name, seed)
    layers.prepare(wl)

    def one_pass(tracer=None) -> Stats:
        stats = Stats()
        if name == "cli":
            layers.cli_pass(wl, stats, tracer)
        else:
            run_rounds(wl, stats, None, rounds=layers.TRACE_ROUNDS, tracer=tracer)
        return stats

    plain = [one_pass()]
    tracer = Tracer()
    tracer.install()
    try:
        spanned = one_pass(tracer)
    finally:
        tracer.uninstall()
    plain.append(one_pass())
    untraced_s = min(stats.busy for stats in plain)
    metrics = layers.metrics(name, wl, tracer)
    metrics[f"trace.{name}.overhead_s"] = (spanned.busy - untraced_s, "s")
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(OUT / f"spans-{name}-seed{seed}.jsonl")
    passes = plain + [spanned]
    failed = sum(stats.failed for stats in passes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(stats.attempted for stats in passes),
        "failed": failed,
        "metrics": {k: [v, u] for k, (v, u) in metrics.items()},
        "info": {"untraced_s": untraced_s, "traced_s": spanned.busy,
                 "spans": len(tracer.spans),
                 "failures": [m for stats in passes for m in stats.failures][:5]}}))


def run_traced(seed: int) -> None:
    metrics, attempted, failed, info = {}, 0, 0, {}
    for name in NAMES:
        out = child(["--workload", name, "--seed", str(seed), "--trace-child"])
        attempted += out["attempted"]
        failed += out["failed"]
        info[name] = out["info"]
        metrics.update({k: tuple(v) for k, v in out["metrics"].items()})
    emit({"trace": info, "machine": machine()}, failed == 0, attempted, failed, metrics)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--trace-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    workloads = load_program()
    if args.setup_only:
        _, _, setup_s = setup(workloads, args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
    elif args.trace_child:
        traced(workloads, args.workload, args.seed)
    elif args.trace:
        run_traced(args.seed)
    elif args.workload == "all":
        run_all(args.seed, args.seconds)
    else:
        untraced(workloads, args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    main()
