"""Per-layer metrics of the traced run.

Every traced function has a home workload, the one whose end-to-end
numbers it should move; its metrics are taken from that workload's
traced process.  Names are <module>.<function>.<quantity>:

    calls     spans closed
    self_ms   total self time over the traced rounds
    raised    exceptions that left the function

plus the work counts in EXTRAS and, for the curves, the mean self
time of one call at each value of the exponential knob (e.g.
fourier.charfn_solve.L7.self_ms), taken from the queries whose labels
the workload lists in its CURVES.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import time

import workloads
from spans import LINALG

HOME = {
    "exact.fractional_part": "spectral", "exact.unit_root": "spectral",
    "exact.residue_mod": "certify", "exact.digit_expansion": "certify",
    "hydra.HydraMap.apply": "census", "hydra.compose_branches": "certify",
    "numen.numen_of_nat": "certify", "numen.numen_of_rational": "certify",
    "numen.numen_of_trunc": "certify", "numen.convergence_report": "spectral",
    "dynamics.orbit": "census", "dynamics.find_cycles": "census",
    "dynamics.orbit_class_partition": "census",
    "dynamics.reverse_scan": "certify", "dynamics.correspondence_roundtrip": "certify",
    "fourier.charfn_solve": "spectral", "fourier.prob_inversion": "spectral",
    "fourier.prob_empirical": "spectral", "fourier.charfn_table_estimate": "spectral",
    LINALG: "spectral",
}
EXTRAS = {      # metric -> (unit, home workload)
    "numen.numen_of_nat.values_per_s": ("1/s", "certify"),
    "dynamics.orbit.steps": ("count", "census"),
    "dynamics.find_cycles.useful_ratio": ("ratio", "census"),
    "dynamics.reverse_scan.words": ("count", "certify"),
    "dynamics.reverse_scan.words_per_s": ("1/s", "certify"),
    "fourier.charfn_solve.frequencies": ("count", "spectral"),
    "fourier.charfn_solve.matrix_bytes_computed": ("bytes", "spectral"),
    "fourier.prob_inversion.charsum_terms": ("count", "spectral"),
    "fourier.residual_margin": ("ratio", "spectral"),
}
CLI_FUNCTIONS = ("cli.main", "cli.parse_map_spec", "cli.format_report")
PROBES = 5          # interpreter and import probes per traced cli run
TRACE_ROUNDS = 1    # rounds in the traced run


def curves(wl) -> dict[str, tuple[str, str]]:
    """Curve metric -> (traced function, query label).  A query of the
    traced rounds labelled <prefix>.<knob>, with <prefix> in the
    workload's CURVES, is the point <function>.<knob> of a curve."""
    points = {}
    for rnd in wl.rounds[:TRACE_ROUNDS]:
        for q in rnd:
            prefix, _, knob = q.label.rpartition(".")
            function = wl.CURVES.get(prefix)
            if function is not None:
                points[f"{function}.{knob}.self_ms"] = (function, q.label)
    return points


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, home workload)."""
    out = {}
    for name, home in HOME.items():
        out[f"{name}.calls"] = ("count", home)
        out[f"{name}.self_ms"] = ("ms", home)
        out[f"{name}.raised"] = ("count", home)
    out.update(EXTRAS)
    for cls in workloads.WORKLOADS.values():
        if cls.CURVES:      # the labels do not depend on the seed
            out.update({metric: ("ms", cls.name) for metric in curves(cls(0))})
    for metric in ("cli.interpreter_ms", "cli.import_ms", "cli.import_numpy_ms"):
        out[metric] = ("ms", "cli")
    for name in CLI_FUNCTIONS:
        out[f"{name}.self_ms"] = ("ms", "cli")
    for name in workloads.WORKLOADS:
        out[f"trace.{name}.overhead_s"] = ("s", name)
    return out


def prepare(wl) -> None:
    """Set-up of a traced census run: the benchmark's own census of each
    traced window gives the numerator of find_cycles.useful_ratio."""
    if wl.name == "census":
        for rnd in wl.rounds[:TRACE_ROUNDS]:
            for q in rnd:
                if q.key[0] == "cycles":
                    wl.window(*q.key[1:])


def cli_pass(wl, stats, tracer=None) -> None:
    """The cli rounds' argv run in-process through cli.main, timed."""
    for rnd in wl.rounds[:TRACE_ROUNDS]:
        for q in rnd:
            argv = list(q.key[1])
            start = time.perf_counter()
            if tracer is None:
                code, _ = workloads.run_in_process(argv)
            else:
                with tracer.query(stats.attempted, q.label):
                    code, _ = workloads.run_in_process(argv)
            stats.busy += time.perf_counter() - start
            stats.attempted += 1
            if code != 0:
                stats.fail(f"in-process hydra {' '.join(argv)} exited {code}")


def metrics(workload: str, wl, tracer) -> dict[str, tuple[float, str]]:
    out = {}
    for name, home in HOME.items():
        if home != workload:
            continue
        calls, own, _, raised = tracer.total(name)
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_ms"] = (own / 1e6, "ms")
        out[f"{name}.raised"] = (raised, "count")
    for metric, (name, label) in curves(wl).items():
        calls, own, _, _ = tracer.total(name, label)
        out[metric] = (own / calls / 1e6 if calls else 0.0, "ms")
    for metric, (unit, home) in EXTRAS.items():
        if home == workload:
            out[metric] = (_extra(metric, wl, tracer), unit)
    if workload == "cli":
        out.update(_cli_probes())
        for name in CLI_FUNCTIONS:
            out[f"{name}.self_ms"] = (tracer.total(name)[1] / 1e6, "ms")
    return out


def _extra(metric: str, wl, tracer) -> float:
    extras = tracer.extras
    if metric == "numen.numen_of_nat.values_per_s":
        calls, _, inclusive, _ = tracer.total("numen.numen_of_nat")
        return calls / (inclusive / 1e9)
    if metric == "dynamics.reverse_scan.words_per_s":
        inclusive = tracer.total("dynamics.reverse_scan")[2]
        return extras["dynamics.reverse_scan.words"] / (inclusive / 1e9)
    if metric == "dynamics.find_cycles.useful_ratio":
        distinct = sum(wl.window(*q.key[1:])[2] for rnd in wl.rounds[:TRACE_ROUNDS]
                       for q in rnd if q.key[0] == "cycles")
        steps = sum(span[7].get("hydra.HydraMap.apply", 0) for span in tracer.spans
                    if span[1] == "dynamics.find_cycles")
        return distinct / steps
    if metric == "fourier.residual_margin":
        return tracer.worst_residual / 1e-12
    return extras[metric]


def _cli_probes() -> dict[str, tuple[float, str]]:
    """Bare interpreter start, and the import of hydramaps and of numpy
    as `python -X importtime` reports them (cumulative microseconds);
    medians of PROBES runs each."""
    env = dict(os.environ, PYTHONPATH=str(workloads.ROOT / "src"))
    interpreter, package, numpy_ = [], [], []
    for _ in range(PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        interpreter.append((time.perf_counter() - start) * 1e3)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hydramaps"],
                              env=env, check=True, capture_output=True, text=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if match:
                cumulative[match.group(2)] = int(match.group(1)) / 1e3
        package.append(cumulative.get("hydramaps", 0.0))
        numpy_.append(cumulative.get("numpy", 0.0))
    return {"cli.interpreter_ms": (statistics.median(interpreter), "ms"),
            "cli.import_ms": (statistics.median(package), "ms"),
            "cli.import_numpy_ms": (statistics.median(numpy_), "ms")}
