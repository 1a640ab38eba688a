"""Spans around the public functions of hydramaps, recorded from outside.

install() rebinds each traced function, in every hydramaps module that
holds it, to a wrapper that times the call; uninstall() puts the
originals back.  The program's source is not touched.  A span records
its name, start, end, parent span and query id; self time is the span's
duration minus the time its child spans cover.  Totals are kept per
traced function and per label of the query it ran under, so a curve
over a workload's knob is read from the query labels.  Functions called
millions of times (HydraMap.apply, the exact helpers) are only
aggregated; the others are also kept as span records, in memory, until
the run writes them out.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import numpy

import hydramaps
from hydramaps import cli, dynamics, exact, fourier, hydra, numen

MODULES = (hydramaps, exact, hydra, numen, dynamics, fourier, cli)

# traced name -> (module, attribute); "Class.method" patches the class
TARGETS = {
    "exact.fractional_part": (exact, "fractional_part"),
    "exact.unit_root": (exact, "unit_root"),
    "exact.residue_mod": (exact, "residue_mod"),
    "exact.digit_expansion": (exact, "digit_expansion"),
    "hydra.HydraMap.apply": (hydra, "HydraMap.apply"),
    "hydra.compose_branches": (hydra, "compose_branches"),
    "numen.numen_of_nat": (numen, "numen_of_nat"),
    "numen.numen_of_rational": (numen, "numen_of_rational"),
    "numen.numen_of_trunc": (numen, "numen_of_trunc"),
    "numen.convergence_report": (numen, "convergence_report"),
    "dynamics.orbit": (dynamics, "orbit"),
    "dynamics.find_cycles": (dynamics, "find_cycles"),
    "dynamics.orbit_class_partition": (dynamics, "orbit_class_partition"),
    "dynamics.reverse_scan": (dynamics, "reverse_scan"),
    "dynamics.correspondence_roundtrip": (dynamics, "correspondence_roundtrip"),
    "fourier.charfn_solve": (fourier, "charfn_solve"),
    "fourier.prob_inversion": (fourier, "prob_inversion"),
    "fourier.prob_empirical": (fourier, "prob_empirical"),
    "fourier.charfn_table_estimate": (fourier, "charfn_table_estimate"),
    "cli.main": (cli, "main"),
    "cli.parse_map_spec": (cli, "parse_map_spec"),
    "cli.format_report": (cli, "format_report"),
}
# fourier reaches numpy.linalg.solve through the numpy module at call
# time, and nothing else in the process calls it while tracing is on
LINALG = "fourier.linalg_solve"

AGGREGATE_ONLY = {
    "exact.fractional_part", "exact.unit_root", "exact.residue_mod",
    "exact.digit_expansion", "hydra.HydraMap.apply", "hydra.compose_branches",
    "numen.numen_of_nat", "numen.numen_of_trunc", "numen.convergence_report",
    "dynamics.orbit", LINALG,
}


def _solve_bytes(q: int, level: int) -> int:
    # one dense complex128 system per level over the level's new frequencies
    return sum((q ** m - q ** (m - 1)) ** 2 * 16 for m in range(1, level + 1))


# work counts taken from arguments and results: name -> (args, result) -> {quantity: amount}
EXTRAS = {
    "dynamics.orbit": lambda a, r: {"steps": r.steps},
    "dynamics.reverse_scan": lambda a, r: {"words": r.words_scanned},
    "fourier.charfn_solve": lambda a, r: {
        "frequencies": len(r.values),
        "matrix_bytes_computed": _solve_bytes(a[1], a[2])},
    "fourier.prob_inversion": lambda a, r: {
        "charsum_terms": (r.base ** (r.exponent + r.b)) ** 2},
}


class Tracer:
    """Collects spans and per-name totals while `on` is set."""

    def __init__(self):
        self.on = False
        self.query_id: int | None = None
        self.label: str | None = None
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        # (traced name, query label) -> [calls, self ns, inclusive ns, raised]
        self.totals: dict[tuple, list] = defaultdict(lambda: [0, 0, 0, 0])
        self.extras: dict[str, float] = defaultdict(float)
        self.worst_residual = 0.0
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------
    def _enter(self, name: str) -> list:
        self._next_id += 1
        parent = self.stack[-1] if self.stack else None
        recorded_parent = None if parent is None else (
            parent[6] if parent[6] is not None else parent[5])
        # [name, start_ns, child_ns, counts, id, recorded ancestor id, own record id]
        frame = [name, time.perf_counter_ns(), 0, None, self._next_id,
                 recorded_parent, None if name in AGGREGATE_ONLY else self._next_id]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list, raised: bool) -> None:
        end = time.perf_counter_ns()
        self.stack.pop()
        name, start, child_ns, counts = frame[0], frame[1], frame[2], frame[3]
        duration = end - start
        own = duration - child_ns
        total = self.totals[name, self.label]
        total[0] += 1
        total[1] += own
        total[2] += duration
        total[3] += raised
        if self.stack:
            parent = self.stack[-1]
            parent[2] += duration
            if parent[3] is None:
                parent[3] = defaultdict(int)
            parent[3][name] += 1
            if counts:
                for key, n in counts.items():
                    parent[3][key] += n
        if frame[6] is not None:
            self.spans.append((frame[4], name, start, end, frame[5],
                               self.query_id, own, dict(counts or {})))

    def total(self, name: str, label: str | None = None) -> list:
        """[calls, self ns, inclusive ns, raised] of one traced function,
        under one query label or summed over all of them."""
        rows = [row for (n, lab), row in self.totals.items()
                if n == name and label in (None, lab)]
        return [sum(column) for column in zip(*rows)] if rows else [0, 0, 0, 0]

    @contextlib.contextmanager
    def query(self, qid: int, label: str):
        """The root span of one query; tracing is on inside it."""
        self.query_id, self.label, self.on = qid, label, True
        frame = self._enter("query." + label)
        raised = True
        try:
            yield
            raised = False
        finally:
            self.on = False
            self._exit(frame, raised)
            self.query_id = self.label = None

    def wrap(self, name: str, fn):
        tracer = self
        extra = EXTRAS.get(name)

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                tracer._exit(frame, raised)
            if extra is not None:
                for key, amount in extra(args, result).items():
                    tracer.extras[f"{name}.{key}"] += amount
            if name == "fourier.charfn_solve" and result.residual is not None:
                tracer.worst_residual = max(tracer.worst_residual, result.residual)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        for name, (module, attr) in TARGETS.items():
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, self.wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for mod in MODULES:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        original = numpy.linalg.solve
        self._saved.append((numpy.linalg, "solve", original))
        numpy.linalg.solve = self.wrap(LINALG, original)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- output ----------------------------------------------------------
    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, qid, own, counts in self.spans:
                handle.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "query": qid, "self_ns": own,
                    "counts": counts}) + "\n")
