"""End-to-end tests of the command-line interface via main(argv), and
in fresh interpreters where the import itself is under test."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hydramaps
from hydramaps import (HydraError, MapSpecError, cli, errors, exact, fourier,
                       numen)
from hydramaps.cli import format_report, main, parse_map_spec


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, f"exit {code}, stderr: {err}"
    return json.loads(out)


# ---------------------------------------------------------------------------
# map-spec parsing

class TestParseMapSpec:
    def test_valid(self):
        H = parse_map_spec(
            '{"p": 2, "branches": [{"r": "1/2", "c": "0"},'
            ' {"r": "3/2", "c": "1/2"}]}')
        assert H.modulus == 2

    def test_initial_condition(self):
        H = parse_map_spec(
            '{"p": 2, "branches": [{"r": "1", "c": "0"},'
            ' {"r": "3/2", "c": "1/2"}], "initial_condition": "7"}')
        assert H.initial_value == 7

    @pytest.mark.parametrize("text,fragment", [
        ("not json", "not valid JSON"),
        ("[1, 2]", "JSON object"),
        ('{"branches": []}', 'keys "p" and "branches"'),
        ('{"p": true, "branches": []}', '"p" must be an integer'),
        ('{"p": 1, "branches": []}', '"p" must be an integer >= 2'),
        ('{"p": 2, "branches": 3}', 'must be a list'),
        ('{"p": 2, "branches": [{"r": "1/2"}]}',
         'exactly the fields "r" and "c"'),
        ('{"p": 2, "branches": [{"r": "1/2", "c": "0", "x": 1}]}',
         'exactly the fields'),
        ('{"p": 2, "branches": [{"r": 0.5, "c": "0"}]}',
         'must be a rational string'),
        ('{"p": 2, "branches": [{"r": "1/x", "c": "0"}]}', 'field "r"'),
        ('{"p": 2, "branches": [{"r": "1/2", "c": "0"}]}', 'expected 2'),
        ('{"p": 2, "branches": [{"r": "0", "c": "0"},'
         ' {"r": "3/2", "c": "1/2"}]}', 'nonzero'),
        ('{"p": 2, "branches": [{"r": "1/2", "c": "0"},'
         ' {"r": "3/2", "c": "1/2"}], "initial_condition": 5}',
         '"initial_condition"'),
    ])
    def test_rejects(self, text, fragment):
        with pytest.raises(MapSpecError, match=fragment.replace("[", r"\[")):
            parse_map_spec(text)


# ---------------------------------------------------------------------------
# report formatting

class TestFormatReport:
    def test_json_is_sorted_and_indented(self):
        report = {"schema_version": "1", "command": "x",
                  "inputs": {}, "results": {"b": "2", "a": "1"}}
        text = format_report(report, "json")
        assert text == json.dumps(report, sort_keys=True, indent=2)
        assert json.loads(text) == report

    def test_csv_needs_tabular_results(self):
        report = {"command": "analyze", "results": {"modulus": "2"}}
        with pytest.raises(MapSpecError):
            format_report(report, "csv")
        with pytest.raises(MapSpecError):
            format_report(report, "yaml")


# ---------------------------------------------------------------------------
# analyze

class TestAnalyze:
    def test_golden_collatz(self, capsys, t3_path):
        code, out, err = run(capsys, ["analyze", "--map", t3_path])
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == "1"
        assert report["command"] == "analyze"
        results = report["results"]
        assert results["modulus"] == "2"
        assert results["branches"] == [{"r": "1/2", "c": "0"},
                                       {"r": "3/2", "c": "1/2"}]
        assert results["classification"] == {
            "integral": True, "proper": True, "centered": True}
        places = results["places"]
        assert set(places) == {"2", "3", "inf"}
        assert places["2"]["rho"] == "4"
        assert places["2"]["guarantee"] == "none"
        assert places["2"]["ell_bound"] == "2"
        assert places["3"]["rho"] == "1/3"
        assert places["3"]["guarantee"] == "almost-everywhere"
        assert places["inf"]["rho"] == "3/4"
        assert places["inf"]["max_branch_norm"] == "3/2"
        assert places["inf"]["ell_bound"] is None
        # output is canonical sorted-key JSON
        assert out.strip() == json.dumps(report, sort_keys=True, indent=2)

    def test_explicit_places(self, capsys, t3_path):
        report = run_json(capsys, ["analyze", "--map", t3_path,
                                   "--places", "7,inf"])
        places = report["results"]["places"]
        assert set(places) == {"7", "inf"}
        assert places["7"]["rho"] == "1"
        assert places["7"]["guarantee"] == "none"

    def test_bad_place(self, capsys, t3_path):
        code, _, err = run(capsys, ["analyze", "--map", t3_path,
                                    "--places", "4"])
        assert code == 2
        assert "error" in err

    def test_unprovable_place(self, capsys, t3_path):
        # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin on the
        # bases 2..37
        code, out, err = run(capsys, ["analyze", "--map", t3_path,
                                      "--places", "318665857834031151167461"])
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_missing_map_file(self, capsys):
        code, _, err = run(capsys, ["analyze", "--map", "/no/such/file"])
        assert code == 2
        assert "cannot read map spec" in err


# ---------------------------------------------------------------------------
# orbit and cycles

class TestOrbit:
    def test_preperiodic(self, capsys, t3_path):
        report = run_json(capsys, ["orbit", "--map", t3_path,
                                   "--start", "7"])
        results = report["results"]
        assert results["status"] == "preperiodic"
        assert results["tail"] == ["7", "11", "17", "26", "13",
                                   "20", "10", "5", "8", "4"]
        assert results["cycle"] == ["1", "2"]
        assert results["steps"] == "12"

    def test_escape_with_budget(self, capsys, t3_path):
        report = run_json(capsys, ["orbit", "--map", t3_path,
                                   "--start", "27", "--max-steps", "5"])
        results = report["results"]
        assert results["status"] == "escaped"
        assert results["cycle"] == []
        assert results["steps"] == "5"
        assert report["inputs"]["max_steps"] == "5"

    @pytest.mark.parametrize("argv", [
        ["orbit", "--start", "7", "--max-steps", "-3"],
        ["orbit", "--start", "7", "--escape", "-1"],
        ["cycles", "--range=-5:5", "--max-steps", "0"],
        ["correspond", "--range=-5:5", "--escape", "-1"],
    ])
    def test_rejects_nonsensical_controls(self, capsys, t3_path, argv):
        code, out, err = run(capsys, argv + ["--map", t3_path])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestCycles:
    def test_full_census(self, capsys, t3_path):
        report = run_json(capsys, ["cycles", "--map", t3_path,
                                   "--range=-1000:1000"])
        results = report["results"]
        assert results["count"] == "5"
        members = [tuple(int(z) for z in c["members"])
                   for c in results["cycles"]]
        assert (1, 2) in members
        assert (0,) in members
        assert (-1,) in members
        assert (-10, -5, -7) in members
        lengths = sorted(int(c["length"]) for c in results["cycles"])
        assert lengths == [1, 1, 2, 3, 11]

    def test_bad_range(self, capsys, t3_path):
        code, _, err = run(capsys, ["cycles", "--map", t3_path,
                                    "--range", "10:1"])
        assert code == 2
        code, _, err = run(capsys, ["cycles", "--map", t3_path,
                                    "--range", "nope"])
        assert code == 2


# ---------------------------------------------------------------------------
# numen

class TestNumen:
    def test_at_nat(self, capsys, t3_path):
        report = run_json(capsys, ["numen", "--map", t3_path, "--at", "27"])
        assert report["results"] == {"kind": "nat", "n": "27",
                                     "value": "85/32"}

    def test_at_truncation(self, capsys, t3_path):
        report = run_json(capsys, ["numen", "--map", t3_path,
                                   "--at", "7", "--depth", "3"])
        assert report["results"]["kind"] == "truncation"
        assert report["results"]["value"] == "19/8"

    def test_at_rational(self, capsys, t3_path):
        report = run_json(capsys, ["numen", "--map", t3_path,
                                   "--at-rational=-3/7"])
        assert report["results"]["kind"] == "rational"
        assert report["results"]["z"] == "-3/7"
        assert report["results"]["value"] == "-10"

    def test_requires_exactly_one_target(self, capsys, t3_path):
        code, _, _ = run(capsys, ["numen", "--map", t3_path])
        assert code == 2
        code, _, _ = run(capsys, ["numen", "--map", t3_path,
                                  "--at", "3", "--at-rational", "5"])
        assert code == 2

    def test_negative_at(self, capsys, t3_path):
        code, _, _ = run(capsys, ["numen", "--map", t3_path, "--at=-3"])
        assert code == 2

    def test_non_contracting_place(self, capsys, t3_path):
        code, _, err = run(capsys, ["numen", "--map", t3_path,
                                    "--at-rational=-1/3", "--place", "2"])
        assert code == 3
        assert "error" in err

    def test_non_integral_rational(self, capsys, t3_path):
        code, _, _ = run(capsys, ["numen", "--map", t3_path,
                                  "--at-rational", "1/2"])
        assert code == 3


@pytest.mark.parametrize("module,cap", [(exact, "ENUMERATION_CAP"),
                                        (numen, "_PERIOD_CAP")])
def test_long_period_exit(capsys, monkeypatch, t3_path, module, cap):
    # -1/19 has period 18, above either cap lowered to 16
    monkeypatch.setattr(module, cap, 16)
    code, out, err = run(capsys, ["numen", "--map", t3_path,
                                  "--at-rational=-1/19"])
    assert code == 4
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# charfn

class TestCharFn:
    def test_solve_table(self, capsys, t3_path):
        report = run_json(capsys, ["charfn", "--map", t3_path,
                                   "--place", "3", "--level", "1"])
        results = report["results"]
        assert results["method"] == "solve"
        assert float(results["residual"]) < 1e-12
        rows = results["table"]
        assert [row["t"] for row in rows] == ["0", "1/3", "2/3"]
        assert float(rows[0]["re"]) == pytest.approx(1)
        assert float(rows[1]["re"]) == pytest.approx(-0.5, abs=1e-12)
        assert float(rows[1]["im"]) == pytest.approx(3 ** 0.5 / 6, abs=1e-12)
        assert float(rows[2]["im"]) == pytest.approx(-(3 ** 0.5) / 6,
                                                     abs=1e-12)

    def test_csv_table(self, capsys, t3_path):
        code, out, _ = run(capsys, ["charfn", "--map", t3_path,
                                    "--place", "3", "--level", "1",
                                    "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,re,im"
        assert len(lines) == 4
        assert lines[1].startswith("0,")

    def test_estimate_method(self, capsys, t3_path):
        report = run_json(capsys, ["charfn", "--map", t3_path,
                                   "--place", "3", "--level", "1",
                                   "--method", "estimate", "--depth", "12"])
        assert report["results"]["method"] == "estimate"

    def test_archimedean_rejected(self, capsys, t3_path):
        code, _, _ = run(capsys, ["charfn", "--map", t3_path,
                                  "--place", "inf", "--level", "1"])
        assert code == 2

    def test_violated_precondition(self, capsys, t3_path):
        code, _, _ = run(capsys, ["charfn", "--map", t3_path,
                                  "--place", "2", "--level", "1"])
        assert code == 3

    def test_composite_place(self, capsys, t3_path):
        code, _, _ = run(capsys, ["charfn", "--map", t3_path,
                                  "--place", "4", "--level", "1"])
        assert code == 2


# ---------------------------------------------------------------------------
# estimators and numerical checks, through charfn and dist

# X(0) = -2/7 is not 7-integral, while rho < 1 and max |r_j|_7 <= 1
NON_INTEGRAL_ANCHOR = {
    "p": 2, "branches": [{"r": "9/2", "c": "1"}, {"r": "-7/2", "c": "7/2"}],
}


@pytest.mark.parametrize("argv", [
    ["charfn", "--place", "7", "--level", "1", "--method", "estimate",
     "--depth", "8"],
    ["dist", "--place", "7", "--exponent", "1", "--method", "empirical",
     "--depth", "8"],
])
def test_estimators_take_a_non_integral_anchor(capsys, tmp_path, argv):
    path = tmp_path / "anchor.json"
    path.write_text(json.dumps(NON_INTEGRAL_ANCHOR))
    report = run_json(capsys, argv + ["--map", str(path)])
    if argv[0] == "dist":
        assert report["results"]["b"] == "1"
        assert any("/7" in row["w"]
                   for row in report["results"]["probabilities"])


@pytest.mark.parametrize("argv", [
    ["charfn", "--place", "3", "--level", "2"],
    ["dist", "--place", "3", "--exponent", "2"],
])
def test_numerical_check_exit(capsys, monkeypatch, t3_path, argv):
    # stopping the sweeps at once leaves the residual above 1e-12
    monkeypatch.setattr(fourier, "_SWEEP_STOP", 1.0)
    code, out, err = run(capsys, argv + ["--map", t3_path])
    assert code == 5
    assert out == ""
    assert err.startswith("error: solver residual")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# dist

class TestDist:
    def test_inversion_golden(self, capsys, t3_path):
        report = run_json(capsys, ["dist", "--map", t3_path,
                                   "--place", "3", "--exponent", "1"])
        results = report["results"]
        assert results["method"] == "inversion"
        assert results["base"] == "3"
        assert results["b"] == "0"
        rows = {row["w"]: float(row["p"]) for row in results["probabilities"]}
        assert rows["0"] == pytest.approx(0, abs=1e-12)
        assert rows["1"] == pytest.approx(1 / 3, abs=1e-12)
        assert rows["2"] == pytest.approx(2 / 3, abs=1e-12)

    def test_compare_empirical(self, capsys, t3_path):
        report = run_json(capsys, ["dist", "--map", t3_path,
                                   "--place", "3", "--exponent", "1",
                                   "--compare-empirical", "--depth", "20"])
        results = report["results"]
        assert results["comparison"]["method"] == "empirical"
        assert float(results["total_variation"]) < 1e-2

    def test_csv(self, capsys, t3_path):
        code, out, _ = run(capsys, ["dist", "--map", t3_path,
                                    "--place", "3", "--exponent", "1",
                                    "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "w,probability"
        assert len(lines) == 4

    def test_archimedean_rejected(self, capsys, t3_path):
        code, _, _ = run(capsys, ["dist", "--map", t3_path,
                                  "--place", "inf", "--exponent", "1"])
        assert code == 2

    def test_precondition_exit(self, capsys, t3_path):
        code, _, _ = run(capsys, ["dist", "--map", t3_path,
                                  "--place", "2", "--exponent", "1"])
        assert code == 3

    def test_resource_exit(self, capsys, t3_path):
        code, _, _ = run(capsys, ["dist", "--map", t3_path,
                                  "--place", "3", "--exponent", "1",
                                  "--method", "empirical",
                                  "--depth", "30"])
        assert code == 4

    @pytest.mark.parametrize("argv", [
        ["charfn", "--place", "3", "--level", "16"],
        ["charfn", "--place", "3", "--level", "16", "--method", "estimate",
         "--depth", "4"],
        ["dist", "--place", "3", "--exponent", "16"],
    ])
    def test_frequency_cap_exit(self, capsys, t3_path, argv):
        # 3**16 frequencies exceed the 2**24 cap
        code, out, err = run(capsys, argv + ["--map", t3_path])
        assert code == 4
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# correspond

class TestCorrespond:
    def test_full_roundtrip(self, capsys, t3_path):
        report = run_json(capsys, ["correspond", "--map", t3_path,
                                   "--range=-1000:1000",
                                   "--scan-length", "10"])
        results = report["results"]
        certs = results["certificates"]
        assert len(certs) == 5
        assert all(cert["verified"] for cert in certs)
        by_cycle = {tuple(cert["cycle"]): cert for cert in certs}
        assert by_cycle[("0",)]["note"]
        neg = by_cycle[("-10", "-5", "-7")]
        assert neg["n"] == "3"
        assert neg["z"] == "-3/7"
        assert neg["x_value"] == "-10"
        assert neg["string"]["entries"] == ["1", "1", "0"]
        assert results["scan"]["words_scanned"] == "2046"
        assert results["scan"]["skipped"] == "0"
        assert results["scan"]["integer_values"] == [
            "-10", "-7", "-5", "-1", "0", "1", "2"]
        assert results["scan_consistent"] is True
        assert results["stray_values"] == []

    def test_stray_values(self, capsys, t3_path):
        report = run_json(capsys, ["correspond", "--map", t3_path,
                                   "--range=-10:10", "--scan-length", "12"])
        results = report["results"]
        assert results["scan_consistent"] is False
        assert results["stray_values"] == [
            "-136", "-91", "-82", "-68", "-61", "-55",
            "-41", "-37", "-34", "-25", "-17"]

    def test_scan_cap_exit(self, capsys, t3_path):
        # 2**25 - 2 words of length <= 24 exceed the 2**24 cap
        code, out, err = run(capsys, ["correspond", "--map", t3_path,
                                      "--range=-10:10", "--scan-length",
                                      "24"])
        assert code == 4
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_requires_normalized_map(self, capsys, tmp_path):
        path = tmp_path / "improper.json"
        path.write_text(json.dumps({
            "p": 2,
            "branches": [{"r": "1", "c": "0"}, {"r": "3/2", "c": "1/2"}],
        }))
        code, _, _ = run(capsys, ["correspond", "--map", str(path),
                                  "--range=-5:5"])
        assert code == 3


# ---------------------------------------------------------------------------
# the failure contract: every argv ends with its documented exit code, and
# a failure with one error: line and no traceback

EDGE_MAPS = {
    "improper": {"p": 2, "branches": [{"r": "1", "c": "0"},
                                      {"r": "3/2", "c": "1/2"}]},
    "zero": {"p": 2, "branches": [{"r": "0", "c": "0"},
                                  {"r": "3/2", "c": "1/2"}]},
    "noclose": {"p": 2, "branches": [{"r": "1/2", "c": "1/3"},
                                     {"r": "3/2", "c": "1/2"}]},
    "anchor": NON_INTEGRAL_ANCHOR,
}


@pytest.fixture(scope="module")
def edge_maps(tmp_path_factory, t3_path):
    root = tmp_path_factory.mktemp("edge")
    paths = {"t3": t3_path, "missing": str(root / "no-such-file.json")}
    for name, doc in EDGE_MAPS.items():
        paths[name] = str(root / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    paths["bad"] = str(root / "bad.json")
    Path(paths["bad"]).write_text("{not json")
    return paths


# (exit code, map, argv); the map is given as --map after the argv
CONTRACT = [
    (0, "t3", ["analyze"]),
    (0, "t3", ["analyze", "--places", "7,inf"]),
    (0, "anchor", ["analyze"]),
    (2, "t3", ["analyze", "--places", "4"]),
    (2, "t3", ["analyze", "--places", "foo,inf"]),
    (2, "bad", ["analyze"]),
    (2, "zero", ["analyze"]),
    (2, "noclose", ["analyze"]),
    (2, "missing", ["analyze"]),
    (0, "t3", ["orbit", "--start", "7"]),
    (0, "t3", ["orbit", "--start", "27", "--max-steps", "5"]),
    (2, "t3", ["orbit", "--start", "7", "--max-steps", "-3"]),
    (2, "t3", ["orbit", "--start", "7", "--escape", "-1"]),
    (2, "bad", ["orbit", "--start", "1"]),
    (0, "t3", ["cycles", "--range=-50:50"]),
    (2, "t3", ["cycles", "--range", "10:1"]),
    (2, "t3", ["cycles", "--range", "nope"]),
    (2, "t3", ["cycles", "--range", "a:b"]),
    (2, "t3", ["cycles", "--range=-5:5", "--max-steps", "0"]),
    (0, "t3", ["numen", "--at", "27"]),
    (0, "t3", ["numen", "--at", "7", "--depth", "3"]),
    (0, "t3", ["numen", "--at-rational=-3/7"]),
    (0, "t3", ["numen", "--at-rational=-3/7", "--place", "3"]),
    (2, "t3", ["numen"]),
    (2, "t3", ["numen", "--at", "3", "--at-rational", "5"]),
    (2, "t3", ["numen", "--at=-3"]),
    (2, "t3", ["numen", "--at-rational", "1/x"]),
    (2, "t3", ["numen", "--at-rational", "1e-5"]),
    (2, "t3", ["numen", "--at-rational=-3/7", "--place", "4"]),
    (3, "t3", ["numen", "--at-rational=-1/3", "--place", "2"]),
    (3, "t3", ["numen", "--at-rational", "1/2"]),
    (3, "improper", ["numen", "--at", "5"]),
    (0, "t3", ["charfn", "--place", "3", "--level", "2"]),
    (0, "t3", ["charfn", "--place", "3", "--level", "1", "--format", "csv"]),
    (0, "t3", ["charfn", "--place", "3", "--level", "1", "--method",
               "estimate", "--depth", "8"]),
    (2, "t3", ["charfn", "--place", "inf", "--level", "1"]),
    (2, "t3", ["charfn", "--place", "4", "--level", "1"]),
    (2, "t3", ["charfn", "--place", "3", "--level", "-1"]),
    (3, "t3", ["charfn", "--place", "2", "--level", "1"]),
    (3, "improper", ["charfn", "--place", "3", "--level", "1"]),
    (4, "t3", ["charfn", "--place", "3", "--level", "16"]),
    (4, "t3", ["charfn", "--place", "3", "--level", "16", "--method",
               "estimate", "--depth", "4"]),
    (4, "t3", ["charfn", "--place", "3", "--level", "5000000"]),
    (0, "t3", ["dist", "--place", "3", "--exponent", "1"]),
    (0, "t3", ["dist", "--place", "3", "--exponent", "2", "--format", "csv"]),
    (0, "t3", ["dist", "--place", "3", "--exponent", "1",
               "--compare-empirical", "--depth", "10"]),
    (0, "anchor", ["dist", "--place", "7", "--exponent", "1", "--method",
                   "empirical", "--depth", "8"]),
    (2, "t3", ["dist", "--place", "inf", "--exponent", "1"]),
    (2, "t3", ["dist", "--place", "3", "--exponent", "-1"]),
    (3, "t3", ["dist", "--place", "2", "--exponent", "1"]),
    (4, "t3", ["dist", "--place", "3", "--exponent", "1", "--method",
               "empirical", "--depth", "30"]),
    (4, "t3", ["dist", "--place", "3", "--exponent", "16"]),
    (4, "t3", ["dist", "--place", "3", "--exponent", "5000000"]),
    (0, "t3", ["correspond", "--range=-50:50", "--scan-length", "6"]),
    (0, "t3", ["correspond", "--range=-50:50", "--place", "3",
               "--scan-length", "6"]),
    (2, "t3", ["correspond", "--range=-5:5", "--escape", "-1"]),
    (2, "t3", ["correspond", "--range=0:10", "--place", "4"]),
    (2, "t3", ["correspond", "--range=0:10", "--scan-length", "0"]),
    (3, "improper", ["correspond", "--range=-5:5"]),
    (4, "t3", ["correspond", "--range=0:10", "--scan-length", "24"]),
    (4, "t3", ["correspond", "--range=0:10", "--scan-length", "14283"]),
    (4, "t3", ["correspond", "--range=0:10", "--scan-length", "14284"]),
    (4, "t3", ["correspond", "--range=0:10", "--scan-length", "30000"]),
    (2, None, ["bogus"]),
    (2, None, ["orbit"]),
    (2, None, []),
]


@pytest.mark.parametrize("code,map_name,argv", CONTRACT)
def test_failure_contract(capsys, edge_maps, code, map_name, argv):
    if map_name is not None:
        argv = argv + ["--map", edge_maps[map_name]]
    got, out, err = run(capsys, argv)
    assert got == code, err
    assert "Traceback" not in err
    if code == 0:
        assert out and err == ""
    else:
        assert out == ""
        assert [line for line in err.splitlines() if "error:" in line] \
            == [err.splitlines()[-1]]


@pytest.mark.parametrize("length", [14284, 30000])
def test_scan_length_refused_at_once(capsys, t3_path, length):
    # counting the words of such a length built a 4,300-digit integer
    # and more before the refusal
    start = time.perf_counter()
    code, out, err = run(capsys, ["correspond", "--map", t3_path,
                                  "--range=0:10", "--scan-length",
                                  str(length)])
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (4, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 200
    assert f"length-{length}" in err


def test_exit_codes_match_the_readme():
    # README's exit-code table names the error classes behind each code
    readme = Path(__file__).resolve().parent.parent / "README.md"
    table = {}
    for line in readme.read_text().splitlines():
        cells = [cell.strip() for cell in line.split("|")[1:-1]]
        if len(cells) == 3 and cells[0].isdigit():
            for name in re.findall(r"`(\w+)`", cells[1]):
                table[name] = int(cells[0])
    concrete = {cls.__name__ for cls in HydraError.__subclasses__()}
    assert set(table) == concrete
    for name, code in table.items():
        assert getattr(errors, name).exit_code == code


# ---------------------------------------------------------------------------
# argparse-level behavior

class TestArgparse:
    def test_unknown_command(self, capsys):
        assert main(["bogus"]) == 2
        capsys.readouterr()

    def test_missing_required_option(self, capsys):
        assert main(["orbit"]) == 2
        capsys.readouterr()

    def test_console_entry_exits(self, capsys, t3_path):
        with pytest.raises(SystemExit) as exc:
            cli.console_entry()
        assert exc.value.code == 2  # no argv: missing subcommand
        capsys.readouterr()


# ---------------------------------------------------------------------------
# package surface: the Fourier names resolve lazily

PUBLIC_NAMES = """
    AffineMap Branch CharFnTable ConvergenceReport
    CorrespondenceCertificate CorrespondenceResult DensityProfile
    DigitString Distribution EXIT_NUMERICAL EXIT_OK EXIT_PRECONDITION
    EXIT_RESOURCE EXIT_SPEC_ERROR Frequency GUARANTEE_AE GUARANTEE_NONE
    GUARANTEE_UNIFORM HydraError HydraMap INFINITY MapProperties
    MapSpecError NotPIntegralError NumericalCheckError OrbitClass
    OrbitReport PAdicTrunc Place PreconditionError
    RationalDigitExpansion ResourceLimitError SBFunction STATUS_ESCAPED
    STATUS_PERIODIC STATUS_PREPERIODIC ScanReport abs_at_place
    abs_finite additive_character b_constant base_value build_hydra
    center_map character_angle character_eval charfn_estimate
    charfn_solve charfn_table_estimate classify cli compose_branches
    concat convergence_report correspondence_roundtrip crt_split
    cycle_string density_criterion digit_densities digit_expansion
    digit_value digits_of drop_lowest_digit dynamics ell_bound_check
    errors exact find_contracting_place find_cycles format_rational
    format_report fourier fourier_sb fractional_part
    frequencies_through_level haar_integral_riemann haar_integral_sb
    hydra inverse_fourier_sb is_prime main numen numen_of_nat
    numen_of_rational numen_of_trunc orbit orbit_class_partition
    orthogonality_sum parse_map_spec parse_rational periodic_word_value
    prime_factors prob_empirical prob_inversion
    repeating_digits_rational residue_mod reverse_scan selfsim_residual
    shortened_collatz total_variation unit_factorization unit_part
    unit_root valuation
""".split()


class TestPackageSurface:
    def test_all_is_unchanged_and_resolves(self):
        assert len(PUBLIC_NAMES) == 104
        assert set(hydramaps.__all__) == set(PUBLIC_NAMES)
        for name in hydramaps.__all__:
            getattr(hydramaps, name)
        namespace = {}
        exec("from hydramaps import *", namespace)
        assert set(PUBLIC_NAMES) <= set(namespace)

    def test_fourier_names_are_listed_and_shared(self):
        assert set(PUBLIC_NAMES) <= set(dir(hydramaps))
        assert hydramaps.charfn_solve is hydramaps.fourier.charfn_solve

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(hydramaps, "no_such_name")


# ---------------------------------------------------------------------------
# fresh processes: numpy loads only for the Fourier commands

SRC = str(Path(__file__).resolve().parent.parent / "src")
# runs `hydra argv` as the installed script does, then reports on stderr
# whether numpy was loaded
ENTRY = """import sys
from hydramaps.cli import console_entry
try:
    console_entry()
finally:
    print("numpy" in sys.modules, file=sys.stderr)
"""


def run_fresh(code, argv=()):
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=SRC))


# prints main(argv)'s exit code and its own time in seconds
TIMED = """import sys, time
from hydramaps.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(code, time.perf_counter() - start)
"""


@pytest.mark.parametrize("argv,scale", [
    (["numen", "--at-rational", "1e-100000000"], "1/2"),
    (["analyze"], "1e-100000000"),
])
def test_exponent_form_is_refused_at_once(tmp_path, argv, scale):
    # Fraction reads 1e-100000000 by building 10**100000000, which takes
    # minutes; a fresh process keeps such a regression to its timeout
    path = tmp_path / "map.json"
    path.write_text(json.dumps({
        "p": 2,
        "branches": [{"r": scale, "c": "0"}, {"r": "3/2", "c": "1/2"}],
    }))
    proc = subprocess.run(
        [sys.executable, "-c", TIMED, *argv, "--map", str(path)],
        capture_output=True, text=True, timeout=10,
        env=dict(os.environ, PYTHONPATH=SRC))
    code, seconds = proc.stdout.split()
    assert code == "2"
    assert float(seconds) < 0.5
    assert proc.stderr.startswith("error: ")
    assert "1e-100000000" in proc.stderr


class TestFreshProcess:
    def test_import_leaves_numpy_out(self):
        proc = run_fresh("import sys, hydramaps, hydramaps.cli\n"
                         "print('numpy' in sys.modules)")
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr

    def test_cycles_leaves_numpy_out(self, t3_path):
        proc = run_fresh(ENTRY, ["cycles", "--map", t3_path, "--range=-20:20"])
        assert (proc.returncode, proc.stderr) == (0, "False\n")
        assert json.loads(proc.stdout)["command"] == "cycles"

    @pytest.mark.parametrize("argv", [
        ["charfn", "--place", "inf", "--level", "3"],
        ["dist", "--place", "inf", "--exponent", "2"],
    ])
    def test_archimedean_refusal_leaves_numpy_out(self, t3_path, argv):
        proc = run_fresh(ENTRY, argv + ["--map", t3_path])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.splitlines()[-1] == "False"

    @pytest.mark.parametrize("argv", [
        ["charfn", "--place", "3", "--level", "3"],
        ["dist", "--place", "3", "--exponent", "2"],
    ])
    def test_fourier_commands_match_in_process(self, capsys, t3_path, argv):
        argv = argv + ["--map", t3_path]
        code, out, _ = run(capsys, argv)
        proc = run_fresh(ENTRY, argv)
        assert (proc.returncode, proc.stderr) == (code, "True\n")
        assert proc.stdout == out
