"""Command-line surface: ingest map specs, run analyses, emit reports.

Commands: analyze, orbit, cycles, numen, charfn, dist, correspond.
Reports are JSON objects with a schema_version, an echo of the inputs,
and a command-specific results payload; numeric payloads are emitted as
strings so exact rationals survive the round trip.  Distributions and
characteristic-function tables can also be emitted as CSV.  A failure
prints one error: line and exits with its error class's exit_code.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from operator import itemgetter
from typing import TYPE_CHECKING, Sequence

from .errors import EXIT_OK, EXIT_SPEC_ERROR, HydraError, MapSpecError
from .exact import (
    PAdicTrunc,
    Place,
    format_rational,
    parse_rational,
    prime_factors,
)
from .hydra import DigitString, HydraMap, build_hydra, classify
from .numen import (
    convergence_report,
    numen_of_nat,
    numen_of_rational,
    numen_of_trunc,
)
from .dynamics import (DEFAULT_ESCAPE_BOUND, DEFAULT_MAX_STEPS,
                       correspondence_roundtrip, find_cycles, orbit)

# fourier (and numpy with it) is imported inside the two commands that
# use it, so the other five start without it
if TYPE_CHECKING:
    from .fourier import CharFnTable, Distribution

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# map-spec ingestion

def parse_map_spec(text: str) -> HydraMap:
    """Parse a JSON map document into a validated HydraMap.

    Expected shape: {"p": 2, "branches": [{"r": "1/2", "c": "0"}, ...]}
    with rationals as canonical strings and an optional
    "initial_condition".  Errors name the offending field and branch.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MapSpecError(f"map spec is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MapSpecError("map spec must be a JSON object")
    if "p" not in doc or "branches" not in doc:
        raise MapSpecError('map spec needs keys "p" and "branches"')
    p = doc["p"]
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        raise MapSpecError(f'field "p" must be an integer >= 2, got {p!r}')
    raw = doc["branches"]
    if not isinstance(raw, list):
        raise MapSpecError('field "branches" must be a list')
    specs = []
    for index, entry in enumerate(raw):
        if not isinstance(entry, dict) or set(entry) != {"r", "c"}:
            raise MapSpecError(
                f'branch {index}: need exactly the fields "r" and "c"')
        pair = []
        for key in ("r", "c"):
            value = entry[key]
            if not isinstance(value, str):
                raise MapSpecError(
                    f'branch {index}: field "{key}" must be a rational '
                    f"string, got {value!r}")
            try:
                pair.append(parse_rational(value))
            except MapSpecError as exc:
                raise MapSpecError(f'branch {index}: field "{key}": {exc}') \
                    from exc
        specs.append(tuple(pair))
    initial = None
    if "initial_condition" in doc and doc["initial_condition"] is not None:
        text_ic = doc["initial_condition"]
        if not isinstance(text_ic, str):
            raise MapSpecError('field "initial_condition" must be a '
                               "rational string")
        initial = parse_rational(text_ic)
    return build_hydra(p, specs, initial_value=initial)


def _load_map(path: str) -> HydraMap:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_map_spec(handle.read())
    except OSError as exc:
        raise MapSpecError(f"cannot read map spec {path}: {exc}") from exc


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise MapSpecError(f"range must look like A:B, got {text!r}")
    try:
        bounds = int(lo), int(hi)
    except ValueError as exc:
        raise MapSpecError(f"range bounds must be integers: {exc}") from exc
    if bounds[0] > bounds[1]:
        raise MapSpecError(f"empty range {text!r}")
    return bounds


def _default_places(H: HydraMap) -> list[Place]:
    """Places worth reporting when none are requested: every prime
    dividing the modulus or a branch multiplier, then the archimedean
    place.  Each den(r_j) divides the modulus, so only the numerators
    are factored."""
    primes: set[int] = set(prime_factors(H.modulus))
    for b in H.branches:
        if abs(b.scale.numerator) >= 2:
            primes.update(prime_factors(abs(b.scale.numerator)))
    places = [Place.finite(q) for q in sorted(primes)]
    places.append(Place.archimedean())
    return places


# ---------------------------------------------------------------------------
# payload helpers (numbers as strings, complex as {re, im})

def _s(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return format_rational(value)


def _branch_payload(H: HydraMap) -> list[dict]:
    return [{"r": _s(b.scale), "c": _s(b.shift)} for b in H.branches]


def _string_payload(s: DigitString) -> dict:
    return {"base": _s(s.base), "entries": [_s(e) for e in s.entries]}


def _table_rows(table: CharFnTable) -> list[dict]:
    rows = []
    for t in sorted(table.values, key=lambda t: t.value):
        val = table.values[t]
        rows.append({"t": _s(t.value),
                     "re": _s(val.real), "im": _s(val.imag)})
    return rows


def _dist_rows(dist: Distribution) -> list[dict]:
    return [{"w": _s(w), "p": _s(prob)} for w, prob in dist.sorted_items()]


def _dist_payload(dist: Distribution) -> dict:
    return {
        "base": _s(dist.base),
        "exponent": _s(dist.exponent),
        "b": _s(dist.b),
        "method": dist.method,
        "probabilities": _dist_rows(dist),
    }


def format_report(report: dict, fmt: str) -> str:
    """Render a report as sorted-key JSON, or as CSV for the tabular
    commands (dist: "w,probability" rows; charfn: "t,re,im" rows)."""
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2)
    if fmt == "csv":
        results = report["results"]
        if "probabilities" in results:
            header, rows = ["w", "probability"], map(
                itemgetter("w", "p"), results["probabilities"])
        elif "table" in results:
            header, rows = ["t", "re", "im"], map(
                itemgetter("t", "re", "im"), results["table"])
        else:
            raise MapSpecError(
                f"csv output is not defined for {report['command']} reports")
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return out.getvalue()
    raise MapSpecError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# subcommand implementations: each takes the loaded map and the parsed
# args and returns its results payload

def _cmd_analyze(H: HydraMap, args) -> dict:
    if args.places:
        places = [Place.parse(token)
                  for token in args.places.split(",") if token]
    else:
        places = _default_places(H)
    props = classify(H)
    place_payload = {}
    for place in places:
        rep = convergence_report(H, place)
        place_payload[str(place)] = {
            "rho": _s(rep.rho),
            "max_branch_norm": _s(rep.max_branch_norm),
            "guarantee": rep.guarantee,
            "ell_bound": None if rep.ell_bound is None else _s(rep.ell_bound),
        }
    return {
        "modulus": _s(H.modulus),
        "branches": _branch_payload(H),
        "classification": {
            "integral": props.integral,
            "proper": props.proper,
            "centered": props.centered,
        },
        "places": place_payload,
    }


def _cmd_orbit(H: HydraMap, args) -> dict:
    report = orbit(H, args.start, max_steps=args.max_steps,
                   escape_bound=args.escape)
    return {
        "start": _s(report.start),
        "status": report.status,
        "tail": [_s(z) for z in report.tail],
        "cycle": [_s(z) for z in report.cycle],
        "steps": _s(report.steps),
        "escape_bound": _s(report.escape_bound),
    }


def _cmd_cycles(H: HydraMap, args) -> dict:
    lo, hi = _parse_range(args.range)
    cycles = sorted(find_cycles(H, lo, hi, max_steps=args.max_steps,
                                escape_bound=args.escape))
    return {
        "range": args.range,
        "count": _s(len(cycles)),
        "cycles": [{"members": [_s(z) for z in cycle],
                    "length": _s(len(cycle))} for cycle in cycles],
    }


def _cmd_numen(H: HydraMap, args) -> dict:
    if (args.at is None) == (args.at_rational is None):
        raise MapSpecError("numen needs exactly one of --at or --at-rational")
    if args.at is not None:
        if args.at < 0:
            raise MapSpecError(f"--at takes n >= 0, got {args.at}")
        if args.depth is None:
            value = numen_of_nat(H, args.at)
            return {"kind": "nat", "n": _s(args.at), "value": _s(value)}
        z = PAdicTrunc.from_int(args.at, H.modulus, args.depth)
        value = numen_of_trunc(H, z)
        return {"kind": "truncation", "n": _s(args.at),
                "depth": _s(args.depth), "value": _s(value)}
    z = parse_rational(args.at_rational)
    place = Place.parse(args.place) if args.place else None
    value = numen_of_rational(H, z, place=place)
    return {"kind": "rational", "z": _s(z), "value": _s(value),
            "place": args.place}


def _cmd_charfn(H: HydraMap, args) -> dict:
    place = Place.parse(args.place)
    if not place.is_finite:
        raise MapSpecError(
            "charfn tables need a finite place; archimedean estimates "
            "are available through the library on an explicit grid")
    from .fourier import charfn_solve, charfn_table_estimate

    if args.method == "solve":
        table = charfn_solve(H, place.prime, args.level)
    else:
        table = charfn_table_estimate(H, place, depth=args.depth,
                                      level=args.level, force=args.force,
                                      allow_large=args.allow_large)
    return {
        "place": str(place),
        "level": _s(args.level),
        "method": table.method,
        "residual": None if table.residual is None else _s(table.residual),
        "table": _table_rows(table),
    }


def _cmd_dist(H: HydraMap, args) -> dict:
    place = Place.parse(args.place)
    if not place.is_finite:
        raise MapSpecError("dist needs a finite place")
    from .fourier import prob_empirical, prob_inversion, total_variation

    q = place.prime
    if args.method == "inversion":
        dist = prob_inversion(H, q, args.exponent)
    else:
        dist = prob_empirical(H, q, args.exponent, depth=args.depth,
                              allow_large=args.allow_large)
    results = _dist_payload(dist)
    if args.compare_empirical:
        other = prob_empirical(H, q, args.exponent, depth=args.depth,
                               allow_large=args.allow_large)
        results["comparison"] = _dist_payload(other)
        results["total_variation"] = _s(total_variation(dist, other))
    return results


def _cmd_correspond(H: HydraMap, args) -> dict:
    lo, hi = _parse_range(args.range)
    place = Place.parse(args.place) if args.place else None
    result = correspondence_roundtrip(
        H, place, lo, hi, scan_length=args.scan_length,
        max_steps=args.max_steps, escape_bound=args.escape)
    cert_payload = []
    for cert in result.certificates:
        cert_payload.append({
            "cycle": [_s(z) for z in cert.cycle],
            "string": _string_payload(cert.string),
            "n": _s(cert.n),
            "z": _s(cert.z),
            "x_value": None if cert.x_value is None else _s(cert.x_value),
            "place": None if cert.place is None else str(cert.place),
            "verified": cert.verified,
            "note": cert.note,
        })
    return {
        "range": args.range,
        "certificates": cert_payload,
        "scan": {
            "max_length": _s(result.scan.max_length),
            "words_scanned": _s(result.scan.words_scanned),
            "skipped": _s(result.scan.skipped),
            "integer_values": [_s(v) for v in result.scan.integer_values],
        },
        "scan_consistent": result.scan_consistent,
        "stray_values": [_s(v) for v in result.stray_values],
    }


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hydra",
        description="Exact arithmetic for hydra maps: orbits, cycle "
                    "censuses, numen values, and their Fourier analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_map(p):
        p.add_argument("--map", required=True,
                       help="path to a JSON map spec")

    def add_orbit_controls(p):
        p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
        p.add_argument("--escape", type=int, default=DEFAULT_ESCAPE_BOUND,
                       help="declare escape when |z| exceeds this bound")

    p = sub.add_parser("analyze", help="classification and convergence "
                                       "guarantees per place")
    add_map(p)
    p.add_argument("--places", default=None,
                   help='comma-separated places, e.g. "2,3,inf" '
                        "(default: primes in the map data, plus inf)")
    p.set_defaults(run=_cmd_analyze, echo=("map", "places"))

    p = sub.add_parser("orbit", help="iterate the map from one start")
    add_map(p)
    p.add_argument("--start", type=int, required=True)
    add_orbit_controls(p)
    p.set_defaults(run=_cmd_orbit,
                   echo=("map", "start", "max_steps", "escape"))

    p = sub.add_parser("cycles", help="census of cycles reached from a range")
    add_map(p)
    p.add_argument("--range", required=True, metavar="A:B")
    add_orbit_controls(p)
    p.set_defaults(run=_cmd_cycles,
                   echo=("map", "range", "max_steps", "escape"))

    p = sub.add_parser("numen", help="evaluate the numen exactly")
    add_map(p)
    p.add_argument("--at", type=int, default=None, metavar="N",
                   help="evaluate at a nonnegative integer")
    p.add_argument("--at-rational", default=None, metavar="Q",
                   help="evaluate exactly at a p-integral rational")
    p.add_argument("--depth", type=int, default=None,
                   help="with --at: evaluate the depth-D truncation instead")
    p.add_argument("--place", default=None,
                   help="with --at-rational: place for the limit check")
    p.set_defaults(run=_cmd_numen,
                   echo=("map", "at", "at_rational", "place", "depth"))

    p = sub.add_parser("charfn", help="characteristic function table")
    add_map(p)
    p.add_argument("--place", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--method", choices=("solve", "estimate"),
                   default="solve")
    p.add_argument("--depth", type=int, default=14,
                   help="truncation depth for the estimator")
    p.add_argument("--force", action="store_true",
                   help="estimate even without a convergence guarantee")
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(run=_cmd_charfn,
                   echo=("map", "place", "level", "method", "depth"))

    p = sub.add_parser("dist", help="residue distribution of the numen")
    add_map(p)
    p.add_argument("--place", required=True)
    p.add_argument("--exponent", type=int, required=True, metavar="N",
                   help="report residues mod place**N")
    p.add_argument("--method", choices=("inversion", "empirical"),
                   default="inversion")
    p.add_argument("--depth", type=int, default=14,
                   help="truncation depth for empirical histograms")
    p.add_argument("--compare-empirical", action="store_true",
                   help="also run the empirical route and report the "
                        "total-variation distance")
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(run=_cmd_dist,
                   echo=("map", "place", "exponent", "method", "depth",
                         "compare_empirical"))

    p = sub.add_parser("correspond",
                       help="cycle certificates and reverse scan")
    add_map(p)
    p.add_argument("--range", required=True, metavar="A:B")
    p.add_argument("--place", default=None)
    p.add_argument("--scan-length", type=int, default=12)
    add_orbit_controls(p)
    p.set_defaults(run=_cmd_correspond,
                   echo=("map", "range", "place", "scan_length"))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        results = args.run(_load_map(args.map), args)
        inputs = {}
        for name in args.echo:  # ints as strings; str, bool, None as is
            value = getattr(args, name)
            inputs[name] = _s(value) if type(value) is int else value
        report = {"schema_version": SCHEMA_VERSION, "command": args.command,
                  "inputs": inputs, "results": results}
        text = format_report(report, getattr(args, "format", "json"))
    except (HydraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_SPEC_ERROR)
    print(text)
    return EXIT_OK


def console_entry() -> None:
    sys.exit(main())
