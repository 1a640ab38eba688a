"""Every answer check must turn a planted wrong answer into a failure."""

import dataclasses
import json
import sys
import types
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

from hydramaps import numen  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def outcome(queries):
    """Run queries as one round through the benchmark's loop."""
    stats = run.Stats()
    run.run_rounds(types.SimpleNamespace(rounds=[queries]), stats, None, rounds=1)
    return stats


def planted(query, wrong):
    return dataclasses.replace(query, call=lambda: wrong(query.call()))


@pytest.fixture(scope="module")
def census():
    return workloads.Census(3)


@pytest.fixture(scope="module")
def certify():
    return workloads.Certify(3)


def test_census_round_passes_and_planted_answers_fail(census):
    queries = [q for q in census.rounds[0]
               if q.key[1] == "t3" and (q.key[0] == "orbit" or q.key[2:] == (-1000, 1000))]
    assert outcome(queries).failed == 0
    cycles = next(q for q in queries if q.key[0] == "cycles")
    partition = next(q for q in queries if q.key[0] == "partition")
    orbit = next(q for q in queries if q.key[0] == "orbit")
    drop_one = planted(cycles, lambda found: set(sorted(found)[1:]))
    assert outcome([drop_one]).failed == 1
    relabel = planted(partition, lambda blocks: [
        dataclasses.replace(blocks[0], label=(1, 2) if blocks[0].label != (1, 2) else (0,))]
        + blocks[1:])
    assert outcome([relabel]).failed == 1
    wrong_cycle = planted(orbit, lambda r: dataclasses.replace(r, cycle=(7,)))
    assert outcome([wrong_cycle]).failed == 1


def test_known_t3_census_is_five_cycles():
    assert len(workloads.T3_CYCLES) == 5
    assert (-136, -68, -34, -17, -25, -37, -55, -82, -41, -61, -91) in workloads.T3_CYCLES
    assert len(workloads.T3_SCAN[12]) == 18 and len(workloads.T3_SCAN[10]) == 7


def test_spectral_checks_catch_planted_answers():
    keys = {("solve", "t3", 3), ("inversion", "t3", 2), ("empirical", "t3", 2),
            ("estimate", "t3", 3)}
    found = {q.key: q for q in workloads.Spectral(3).rounds[0] if q.key in keys}
    solve, inversion, empirical, estimate = (found[k] for k in (
        ("solve", "t3", 3), ("inversion", "t3", 2), ("empirical", "t3", 2),
        ("estimate", "t3", 3)))
    assert outcome([solve, inversion, empirical, estimate]).failed == 0

    def shift_mass(dist):
        probs = dict(dist.probabilities)
        keys = sorted(probs)
        probs[keys[0]] += 0.05
        probs[keys[1]] -= 0.05
        return dataclasses.replace(dist, probabilities=probs)

    # the pair disagrees, so both sides of it fail
    assert outcome([planted(inversion, shift_mass), empirical]).failed == 2

    def bend(size):
        def apply(table):
            values = dict(table.values)
            third = next(t for t in values if t.value == Fraction(1, 3))
            values[third] += size
            return dataclasses.replace(table, values=values)
        return apply

    assert outcome([planted(solve, bend(1e-9))]).failed == 1
    assert outcome([solve, planted(estimate, bend(0.1))]).failed == 1


def test_certify_checks_catch_planted_answers(certify):
    queries = certify.rounds[0]
    batch = next(q for q in queries if q.key[0] == "nat")
    rational = next(q for q in queries if q.key[0] == "rational")
    scan = next(q for q in queries if q.key == ("scan", "t3", 10))
    assert outcome([batch, rational, scan]).failed == 0
    assert outcome([planted(batch, lambda xs: xs[:-1] + [xs[-1] + 1])]).failed == 1
    q = certify.maps[rational.key[1]][1]
    assert outcome([planted(rational, lambda x: x + q ** 11)]).failed == 1
    assert outcome([planted(scan, lambda r: dataclasses.replace(
        r, integer_values=r.integer_values[1:]))]).failed == 1


def test_raising_query_counts_as_failure():
    boom = workloads.Query("boom", ("boom",), lambda: numen.numen_of_nat(None, -1),
                           lambda result, peers: None)
    stats = outcome([boom])
    assert (stats.attempted, stats.failed) == (1, 1)
    assert "raised" in stats.failures[0]


def test_cli_check_compares_process_output_with_in_process_result(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "WORK", tmp_path)
    cli = workloads.Cli(3)
    query = next(q for q in cli.rounds[0] if q.label == "numen")
    argv = list(query.key[1])
    code, text = workloads.run_in_process(argv)
    assert code == 0
    good = workloads.Process(0, text, 1)
    assert query.check(good, {}) is None
    report = json.loads(text)
    report["results"]["value"] = str(Fraction(report["results"]["value"]) + 1)
    assert query.check(workloads.Process(0, json.dumps(report), 1), {}) is not None
    assert query.check(workloads.Process(3, "error: no", 1), {}) is not None
    fake = dataclasses.replace(query, call=lambda: workloads.Process(0, json.dumps(report), 1))
    assert outcome([fake]).failed == 1
