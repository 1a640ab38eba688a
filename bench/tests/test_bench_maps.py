"""The benchmark's seeded map generator and the benchmark definition."""

import json
import math
import random
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

from hydramaps import Place, classify, convergence_report, dynamics, hydra  # noqa: E402

import layers  # noqa: E402
import maps  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.mark.parametrize("p,q", [(2, 5), (2, 7), (3, 5), (3, 7), (3, 2)])
def test_seeded_maps_are_integer_closed_proper_centered(p, q):
    rng = random.Random(f"{p}-{q}")
    for _ in range(25):
        H = maps.seeded_map(rng, p, q)
        props = classify(H)
        assert props.integral and props.proper and props.centered
        for j, branch in enumerate(H.branches):
            assert branch.scale.denominator == p
            assert branch(j).denominator == 1
        assert any(b.scale.numerator % q == 0 for b in H.branches)
        report = convergence_report(H, Place.finite(q))
        assert report.rho < 1 and report.max_branch_norm <= 1


def test_drift_band_is_honoured():
    rng = random.Random(0)
    for p, band in [(2, (0.2, 0.3)), (3, (-0.3, -0.15))]:
        for _ in range(10):
            H = maps.seeded_map(rng, p, 7, drift_band=band)
            growth = sum(math.log(abs(b.scale)) for b in H.branches) / p
            assert band[0] <= growth <= band[1]


def test_generator_rejects_q_dividing_p():
    with pytest.raises(ValueError):
        maps.seeded_map(random.Random(0), 3, 3)


def test_same_seed_same_inputs():
    for name in ("census", "certify", "spectral"):
        a, b = workloads.WORKLOADS[name](7), workloads.WORKLOADS[name](7)
        assert [[q.key for q in r] for r in a.rounds] == [[q.key for q in r] for r in b.rounds]
        c = workloads.WORKLOADS[name](8)
        assert [[q.key for q in r] for r in a.rounds] != [[q.key for q in r] for r in c.rounds]


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (unit, _) in layers.metric_units().items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)


def test_curve_points_are_read_from_their_query_labels():
    t3 = hydra.shortened_collatz(3)
    s2 = maps.seeded_map(random.Random(0), 2, 5)

    def scan(label, H):
        return workloads.Query(label, (label,), lambda: dynamics.reverse_scan(H, 6),
                               lambda result, peers: None)

    wl = types.SimpleNamespace(CURVES={"reverse_scan.t3": "dynamics.reverse_scan"},
                               rounds=[[scan("reverse_scan.t3.len6", t3),
                                        scan("reverse_scan.s2.len6", s2)]])
    tracer = Tracer()
    tracer.install()
    try:
        run.run_rounds(wl, run.Stats(), None, rounds=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert layers.curves(wl) == {
        "dynamics.reverse_scan.len6.self_ms": ("dynamics.reverse_scan", "reverse_scan.t3.len6")}
    assert tracer.total("dynamics.reverse_scan", "reverse_scan.t3.len6")[0] == 1
    assert tracer.total("dynamics.reverse_scan")[0] == 2
