"""The four workloads: seeded rounds of queries, and a check per query.

A query is one public call into hydramaps (or, on `cli`, one `hydra`
process).  Each workload builds a pool of rounds from its seed; every
round has the same composition (the same query classes, in a seeded
order), so runs that complete different numbers of rounds still measure
the same mix.  A check returns None for a correct answer and a message
otherwise; it sees the results of the whole round, so paired routes can
check each other.  Checks never run inside a timed call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from hydramaps import cli, dynamics, fourier, hydra, numen
from hydramaps.exact import Place

import maps
import oracle

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "bench" / ".out"

T3_CYCLES = {
    (0,), (1, 2), (-1,), (-10, -5, -7),
    (-136, -68, -34, -17, -25, -37, -55, -82, -41, -61, -91),
}
# integers fixed by some t3 word of length <= L: the cycles of length <= L
T3_SCAN = {L: sorted(v for c in T3_CYCLES if len(c) <= L for v in c)
           for L in range(1, 17)}
MU_T3_THIRD = complex(-0.5, math.sqrt(3) / 6)
TV_BOUND = 1e-2
ESTIMATE_BOUND = 1e-2
SELFSIM_BOUND = 1e-10


@dataclass
class Query:
    label: str                                   # query class, e.g. "find_cycles.t3.w2000"
    key: tuple                                   # identity within its round
    call: Callable[[], Any]
    check: Callable[[Any, dict], str | None]     # (result, round results by key)


class Workload:
    """Maps, a pool of query rounds, and a warm-up, all from one seed.

    CURVES maps a label prefix to a traced function: the queries
    labelled <prefix>.<knob> are the points of that function's curve
    over the exponential knob.  Each prefix names one map, so a curve
    compares knob values, not maps.
    """

    name = ""
    pool = 6              # rounds built in set-up; runs cycle through them
    CURVES: dict[str, str] = {}

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.rounds: list[list[Query]] = []

    def warm_up(self) -> dict:
        return {}

    def _shuffled(self, queries: list[Query]) -> list[Query]:
        self.rng.shuffle(queries)
        return queries


def _expect(condition: bool, message: str) -> str | None:
    return None if condition else message


# ---------------------------------------------------------------------------
# census: orbits and cycle censuses

class Census(Workload):
    """Windows of several widths placed in [-10**5, 10**5], each censused
    by find_cycles and by orbit_class_partition, plus single-start orbits.
    t3 converges and t5 escapes; every round also draws its own seeded
    maps, an escaping one with p = 2 and a converging one with p = 3, so
    a run averages over several.  Every round censuses t3 on
    [-1000, 1000], whose five cycles are known, and t3 windows of widths
    250, 500 and 1000, which with it make the t3 width curve.
    """

    name = "census"
    SPAN = 10 ** 5
    WIDTHS = (("t3", 250), ("t3", 500), ("t3", 1000), ("t5", 250), ("s2", 250), ("s3", 500))
    ORBITS = 12           # single-start orbits per map per round
    CURVES = {"find_cycles.t3": "dynamics.find_cycles"}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.maps = {"t3": hydra.shortened_collatz(3), "t5": hydra.shortened_collatz(5)}
        self._windows: dict[tuple, tuple] = {}
        for r in range(self.pool):
            names = {"t3": "t3", "t5": "t5", "s2": f"s2.{r}", "s3": f"s3.{r}"}
            self.maps[names["s2"]] = maps.seeded_map(self.rng, 2, 7, drift_band=(0.2, 0.3))
            self.maps[names["s3"]] = maps.seeded_map(self.rng, 3, 7, drift_band=(-0.3, -0.15))
            queries = self._window_queries("t3", -1000, 1000, "t3")
            for kind, width in self.WIDTHS:
                lo = self.rng.randrange(-self.SPAN, self.SPAN - width + 1)
                queries += self._window_queries(names[kind], lo, lo + width, kind)
            for name in names.values():
                queries += [self._orbit_query(name, self.rng.randrange(-self.SPAN, self.SPAN + 1))
                            for _ in range(self.ORBITS)]
            self.rounds.append(self._shuffled(queries))
        self.branches = {k: oracle.Branches(H) for k, H in self.maps.items()}

    def window(self, name: str, lo: int, hi: int) -> tuple:
        """(cycles, fate of each start, distinct integers on the orbits),
        from the benchmark's own census; cached per window."""
        key = (name, lo, hi)
        if key not in self._windows:
            fate = oracle.census(self.branches[name], lo, hi)
            starts = {s: fate[s] for s in range(lo, hi + 1)}
            self._windows[key] = (oracle.window_cycles(fate, lo, hi), starts,
                                  len(fate))
        return self._windows[key]

    def _window_queries(self, name: str, lo: int, hi: int, kind: str) -> list[Query]:
        H = self.maps[name]
        label = f"{kind}.w{hi - lo}"

        def check_cycles(result, peers):
            cycles, _, _ = self.window(name, lo, hi)
            if result != cycles:
                return f"find_cycles({name}, {lo}, {hi}) = {sorted(result)} != {sorted(cycles)}"
            if name == "t3" and (lo, hi) == (-1000, 1000) and result != T3_CYCLES:
                return f"t3 on [-1000, 1000] has {len(result)} cycles, not the known five"
            for cycle in result:
                for i, v in enumerate(cycle):
                    if hydra.HydraMap.apply(H, v) != cycle[(i + 1) % len(cycle)]:
                        return f"{cycle} does not close under HydraMap.apply"
            partner = peers.get(("partition", name, lo, hi))
            if partner is not None:
                labels = {c.label for c in partner if c.label != dynamics.STATUS_ESCAPED}
                if labels != result:
                    return f"find_cycles and orbit_class_partition disagree on {name} [{lo}, {hi}]"
            return None

        def check_partition(result, peers):
            cycles, starts, _ = self.window(name, lo, hi)
            members = sorted(m for block in result for m in block.members)
            if members != list(range(lo, hi + 1)):
                return f"partition of {name} [{lo}, {hi}] does not cover the window once"
            for block in result:
                for m in block.members:
                    want = starts[m] if starts[m] is not None else dynamics.STATUS_ESCAPED
                    if block.label != want:
                        return f"{m} labelled {block.label}, its orbit reaches {want}"
            return None

        return [
            Query(f"find_cycles.{label}", ("cycles", name, lo, hi),
                  lambda: dynamics.find_cycles(H, lo, hi), check_cycles),
            Query(f"orbit_class_partition.{label}", ("partition", name, lo, hi),
                  lambda: dynamics.orbit_class_partition(H, lo, hi), check_partition),
        ]

    def _orbit_query(self, name: str, start: int) -> Query:
        H = self.maps[name]

        def check(report, peers):
            br = self.branches[name]
            fate = oracle.census(br, start, start)[start]
            if fate is None:
                return _expect(report.status == dynamics.STATUS_ESCAPED and not report.cycle,
                               f"orbit({name}, {start}) should escape")
            if report.cycle != fate:
                return f"orbit({name}, {start}) reaches {report.cycle}, not {fate}"
            tail, cycle = report.tail, report.cycle
            entry = br.step(tail[-1]) if tail else start
            if (tail and tail[0] != start) or entry not in cycle \
                    or report.steps != len(tail) + len(cycle):
                return f"orbit({name}, {start}) is not a walk from its start"
            for a, b in list(zip(tail, tail[1:])) + list(zip(cycle, cycle[1:] + cycle[:1])):
                if br.step(a) != b:
                    return f"orbit({name}, {start}) steps {a} -> {b}"
            periodic = start in fate
            return _expect((report.status == dynamics.STATUS_PERIODIC) == periodic,
                           f"orbit({name}, {start}) has status {report.status}")

        return Query("orbit", ("orbit", name, start),
                     lambda: dynamics.orbit(H, start), check)

    def warm_up(self) -> dict:
        for H in self.maps.values():
            dynamics.find_cycles(H, 0, 50)
            dynamics.orbit_class_partition(H, 0, 50)
            dynamics.orbit(H, 7)
        return {}


# ---------------------------------------------------------------------------
# spectral: characteristic functions and residue distributions

class Spectral(Workload):
    """Level solves over L, Fourier inversion over n, the exhaustive
    empirical route at depth 14-20 and the estimator table, on t3 at
    q = 3 and on seeded maps at q = 5 (p = 2) and q = 7 (p = 3)."""

    name = "spectral"
    pool = 4
    SOLVES = (("t3", range(3, 8)), ("s5", range(2, 5)), ("s7", range(2, 4)))
    CURVES = {"charfn_solve.q3": "fourier.charfn_solve",
              "prob_inversion.q3": "fourier.prob_inversion"}
    WARM_SOLVES = 8       # the BLAS pool's slow first calls have lasted up to six
    DISTS = (("t3", range(2, 6)), ("s5", range(2, 4)), ("s7", range(2, 3)))
    ESTIMATES = (("t3", (3, 4)), ("s5", (2, 3)))
    # sampling depths by modulus, one per round of the pool, so every seed
    # does the same sampling work; prob_empirical refuses more than 2**24
    # truncations, and 3**15 is the deepest p = 3 enumeration it accepts
    DEPTHS = {2: (14, 16, 18, 20), 3: (14, 15, 14, 15)}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.maps = {
            "t3": (hydra.shortened_collatz(3), 3),
            "s5": (maps.seeded_map(self.rng, 2, 5), 5),
            "s7": (maps.seeded_map(self.rng, 3, 7), 7),
        }
        self.branches = {k: oracle.Branches(H) for k, (H, _) in self.maps.items()}
        for r in range(self.pool):
            queries = []
            for name, levels in self.SOLVES:
                queries += [self._solve(name, L) for L in levels]
            for name, exponents in self.DISTS:
                for n in exponents:
                    queries.append(self._inversion(name, n))
                    queries.append(self._empirical(name, n, self._depth(name, r + n)))
            for name, levels in self.ESTIMATES:
                for level in levels:
                    queries.append(self._estimate(name, level, self._depth(name, r + level)))
            self.rounds.append(self._shuffled(queries))

    def _depth(self, name: str, index: int) -> int:
        H, _ = self.maps[name]
        depths = self.DEPTHS[H.modulus]
        return depths[index % len(depths)]

    def _solve(self, name: str, level: int) -> Query:
        H, q = self.maps[name]
        br = self.branches[name]

        def check(table, peers):
            values = {t.value: v for t, v in table.values.items()}
            if len(values) != q ** level or abs(values[Fraction(0)] - 1) > 1e-12:
                return f"charfn_solve({name}, {q}, {level}) has a malformed table"
            defect = oracle.selfsim_defect(br, q, values)
            if not defect < SELFSIM_BOUND:
                return f"charfn_solve({name}, {q}, {level}) self-similarity defect {defect}"
            if name == "t3" and level >= 1:
                err = abs(values[Fraction(1, 3)] - MU_T3_THIRD)
                if not err < 1e-12:
                    return f"t3 mu-hat(1/3) off by {err}"
            return None

        return Query(f"charfn_solve.q{q}.L{level}", ("solve", name, level),
                     lambda: fourier.charfn_solve(H, q, level), check)

    def _inversion(self, name: str, n: int) -> Query:
        H, q = self.maps[name]

        def check(dist, peers):
            other = peers.get(("empirical", name, n))
            if other is None:
                return None
            tv = oracle.total_variation(dist.probabilities, other.probabilities)
            return _expect(tv < TV_BOUND, f"{name} q={q} n={n}: inversion and "
                           f"empirical differ by total variation {tv}")

        return Query(f"prob_inversion.q{q}.n{n}", ("inversion", name, n),
                     lambda: fourier.prob_inversion(H, q, n), check)

    def _empirical(self, name: str, n: int, depth: int) -> Query:
        H, q = self.maps[name]

        def check(dist, peers):
            total = math.fsum(dist.probabilities.values())
            if abs(total - 1) > 1e-12:
                return f"empirical {name} q={q} n={n} sums to {total}"
            other = peers.get(("inversion", name, n))
            if other is None:
                return None
            tv = oracle.total_variation(dist.probabilities, other.probabilities)
            return _expect(tv < TV_BOUND, f"{name} q={q} n={n} depth {depth}: "
                           f"empirical is {tv} from inversion")

        return Query(f"prob_empirical.q{q}.n{n}", ("empirical", name, n),
                     lambda: fourier.prob_empirical(H, q, n, depth), check)

    def _estimate(self, name: str, level: int, depth: int) -> Query:
        H, q = self.maps[name]

        def check(table, peers):
            solved = peers.get(("solve", name, level))
            if solved is None:
                return f"no solve of {name} at level {level} in the round"
            worst = max(abs(v - solved.values[t]) for t, v in table.values.items())
            return _expect(worst < ESTIMATE_BOUND, f"{name} level {level} depth {depth}: "
                           f"estimate is {worst} from the solve")

        return Query(f"charfn_table_estimate.q{q}.lv{level}", ("estimate", name, level),
                     lambda: fourier.charfn_table_estimate(H, Place.finite(q), depth,
                                                           level=level), check)

    def warm_up(self) -> dict:
        """In some processes the first level solves are several times
        slower while the BLAS thread pool settles, in others not at all;
        repeat charfn_solve(t3, 3, 5) a fixed number of times, so set-up
        does the same work either way, then touch every other entry
        point once."""
        t3 = self.maps["t3"][0]
        times = []
        for _ in range(self.WARM_SOLVES):
            start = time.perf_counter()
            fourier.charfn_solve(t3, 3, 5)
            times.append(time.perf_counter() - start)
        for H, q in self.maps.values():
            fourier.prob_inversion(H, q, 1)
            fourier.prob_empirical(H, q, 1, 8)
            fourier.charfn_table_estimate(H, Place.finite(q), 8, level=1)
        return {"blas_warmup_ms": [round(t * 1e3, 1) for t in times]}


# ---------------------------------------------------------------------------
# certify: exact numen values, word scans, certificates

class Certify(Workload):
    """numen_of_nat batches over 64- to 512-bit naturals, numen_of_rational
    at rationals with periods up to 12, reverse scans of length 10-16 and
    the t3 correspondence on [-1000, 1000]."""

    name = "certify"
    BATCH = 16            # naturals per numen_of_nat batch, each with a child p*n + j
    BITS = (64, 128, 256, 512)    # one t3 batch and one seeded-map batch at each size
    RATIONALS = 4         # numen_of_rational queries per map per round
    # one t3 scan at each length, and two more at length 14, so the
    # slowest tenth of a round is a cluster of similar queries
    SCANS = (("t3", (10, 12, 14, 16)), ("s2", (12, 14)), ("s2b", (14,)))
    DEPTH, POWER = 40, 12     # truncation fold depth, and the q-power it must match
    CURVES = {"numen_of_nat.t3": "numen.numen_of_nat",
              "reverse_scan.t3": "dynamics.reverse_scan"}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.maps = {
            "t3": (hydra.shortened_collatz(3), 3),
            "s2": (maps.seeded_map(self.rng, 2, 5), 5),
            "s2b": (maps.seeded_map(self.rng, 2, 7), 7),
            "s3": (maps.seeded_map(self.rng, 3, 7), 7),
        }
        self.branches = {k: oracle.Branches(H) for k, (H, _) in self.maps.items()}
        names = list(self.maps)
        for r in range(self.pool):
            queries = [self._nat_batch(name, bits) for i, bits in enumerate(self.BITS)
                       for name in ("t3", names[1 + (r + i) % (len(names) - 1)])]
            for name in names:
                queries += [self._rational(name, self._rational_input(name))
                            for _ in range(self.RATIONALS)]
            for name, lengths in self.SCANS:
                queries += [self._scan(name, L) for L in lengths]
            queries.append(self._correspondence((None, 3)[r % 2]))
            self.rounds.append(self._shuffled(queries))

    def _nat_batch(self, name: str, bits: int) -> Query:
        H, _ = self.maps[name]
        br = self.branches[name]
        p = H.modulus
        bases = [self.rng.getrandbits(bits) | (1 << (bits - 1)) for _ in range(self.BATCH)]
        digits = [self.rng.randrange(p) for _ in bases]
        inputs = bases + [p * n + j for n, j in zip(bases, digits)]

        def check(values, peers):
            k = len(bases)
            for n, j, x, child in zip(bases, digits, values[:k], values[k:]):
                if child != br.scales[j] * x + br.shifts[j]:
                    return f"{name}: X({p}*{n} + {j}) breaks the recursion"
            for n, x in zip(bases[:2], values[:2]):
                if x != oracle.numen_nat(br, n):
                    return f"{name}: X({n}) = {x} disagrees with the digit fold"
            return None

        return Query(f"numen_of_nat.{name}.b{bits}", ("nat", name, bits),
                     lambda: [numen.numen_of_nat(H, n) for n in inputs], check)

    def _rational_input(self, name: str) -> Fraction:
        """A p-integral rational whose period has length <= 12 and uses a
        branch divisible by q, with at least q**12 of contraction in its
        first 40 digits, so the depth-40 fold pins the value mod q**12."""
        H, q = self.maps[name]
        br = self.branches[name]
        p = H.modulus
        weight = [oracle.valuation(r, q) for r in br.scales]
        while True:
            k = self.rng.randint(2, 12)
            b = p ** k - 1
            divisors = [d for d in range(2, min(b, 10 ** 4) + 1) if b % d == 0] or [b]
            den = self.rng.choice(divisors)
            x = Fraction(self.rng.randint(-50 * den, 50 * den), den)
            if x.denominator == 1:
                continue
            pre, period = oracle.expansion(x, p)
            first = oracle.digits(x, p, self.DEPTH)
            if any(weight[d] for d in period) and \
                    sum(weight[d] for d in first) >= self.POWER:
                return x

    def _rational(self, name: str, x: Fraction) -> Query:
        H, q = self.maps[name]
        br = self.branches[name]

        def check(value, peers):
            if value != oracle.numen_rational(br, x):
                return f"{name}: X({x}) = {value} disagrees with the closed form"
            folded = oracle.fold(br, oracle.digits(x, H.modulus, self.DEPTH), br.anchor())
            v = oracle.valuation(value - folded, q)
            return _expect(v is None or v >= self.POWER,
                           f"{name}: X({x}) and its depth-{self.DEPTH} fold differ mod {q}**{self.POWER}")

        return Query("numen_of_rational", ("rational", name, x),
                     lambda: numen.numen_of_rational(H, x), check)

    def _scan(self, name: str, length: int) -> Query:
        H, _ = self.maps[name]
        br = self.branches[name]

        def check(report, peers):
            if report.words_scanned != sum(H.modulus ** k for k in range(1, length + 1)):
                return f"reverse_scan({name}, {length}) scanned {report.words_scanned} words"
            if name == "t3" and list(report.integer_values) != T3_SCAN[length]:
                return (f"t3 scan at length {length} found {len(report.integer_values)} "
                        f"integers, not {len(T3_SCAN[length])}")
            for v in report.integer_values:
                if not oracle.is_periodic_point(br, v, length):
                    return f"{v} from reverse_scan({name}, {length}) is not periodic"
            return None

        return Query(f"reverse_scan.{name}.len{length}", ("scan", name, length),
                     lambda: dynamics.reverse_scan(H, length), check)

    def _correspondence(self, prime: int | None) -> Query:
        H, _ = self.maps["t3"]
        place = None if prime is None else Place.finite(prime)

        def check(result, peers):
            cycles = {c.cycle for c in result.certificates}
            if cycles != T3_CYCLES:
                return f"correspondence found {len(cycles)} cycles, not the known five"
            if not all(c.verified for c in result.certificates):
                return "a t3 cycle certificate did not verify"
            return _expect(result.scan_consistent and
                           list(result.scan.integer_values) == T3_SCAN[12],
                           "the length-12 scan does not match the census")

        return Query("correspondence_roundtrip", ("correspond", prime),
                     lambda: dynamics.correspondence_roundtrip(H, place, -1000, 1000),
                     check)

    def warm_up(self) -> dict:
        for name, (H, _) in self.maps.items():
            numen.numen_of_nat(H, 2 ** 70 + 5)
            numen.numen_of_rational(H, self._rational_input(name))
        dynamics.reverse_scan(self.maps["t3"][0], 6)
        dynamics.correspondence_roundtrip(self.maps["t3"][0], None, -20, 20, scan_length=6)
        return {}


# ---------------------------------------------------------------------------
# cli: one fresh `hydra` process per query

@dataclass
class Process:
    returncode: int
    output: str
    maxrss_kb: int


def run_hydra(argv: list[str]) -> Process:
    """Run `hydra argv` in a fresh interpreter through
    hydramaps.cli:console_entry, as the installed script does, and
    collect its exit code, output and peak resident memory."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "from hydramaps.cli import console_entry; console_entry()", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
    try:
        output = proc.stdout.read().decode()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Process(proc.returncode, output, usage.ru_maxrss)


def run_in_process(argv: list[str]) -> tuple[int, str]:
    """The same argv through cli.main in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class Cli(Workload):
    """The seven subcommands at small sizes, on t3 and a seeded p = 3 map
    written as JSON specs.  Sizes do not depend on the seed (only orbit
    starts, window positions and numen inputs do), so every seed asks
    for the same work."""

    name = "cli"
    pool = 6
    COMMANDS = ("analyze", "orbit", "cycles", "numen", "charfn", "dist", "correspond")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.maps = {
            "t3": (hydra.shortened_collatz(3), 3),
            "s3": (maps.seeded_map(self.rng, 3, 7, drift_band=(-0.3, -0.15)), 7),
        }
        self.branches = {k: oracle.Branches(H) for k, (H, _) in self.maps.items()}
        WORK.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for name, (H, _) in self.maps.items():
            path = WORK / f"map-{name}-{seed}.json"
            path.write_text(json.dumps(maps.map_document(H)))
            self.paths[name] = str(path)
        self._expected: dict[tuple, tuple] = {}
        names = list(self.maps)
        for r in range(self.pool):
            queries = [self._query(names[(r + i) % len(names)], command)
                       for i, command in enumerate(self.COMMANDS)]
            self.rounds.append(self._shuffled(queries))

    def argv(self, name: str, command: str) -> list[str]:
        H, q = self.maps[name]
        rng = self.rng
        args = [command, "--map", self.paths[name]]
        if command == "orbit":
            args += ["--start", str(rng.randrange(-10 ** 5, 10 ** 5))]
        elif command == "cycles":
            lo = rng.randrange(-10 ** 4, 10 ** 4)
            args += [f"--range={lo}:{lo + 200}"]
        elif command == "numen":        # a natural on t3, a rational on s3
            if name == "t3":
                args += ["--at", str(rng.getrandbits(64))]
            else:
                args += [f"--at-rational={rng.randint(-50, 50)}/{H.modulus ** 4 - 1}"]
        elif command == "charfn":
            args += ["--place", str(q), "--level", "3"]
        elif command == "dist":
            args += ["--place", str(q), "--exponent", "2", "--compare-empirical",
                     "--depth", "12"]
        elif command == "correspond":
            args += ["--range=-300:300", "--scan-length", "8"]
        return args

    def expected(self, argv: list[str]) -> tuple[int, str]:
        key = tuple(argv)
        if key not in self._expected:
            self._expected[key] = run_in_process(argv)
        return self._expected[key]

    def _query(self, name: str, command: str) -> Query:
        argv = self.argv(name, command)
        br = self.branches[name]

        def check(proc, peers):
            if proc.returncode != 0:
                return f"hydra {' '.join(argv)} exited {proc.returncode}: {proc.output[-300:]}"
            code, text = self.expected(argv)
            if code != 0 or json.loads(proc.output) != json.loads(text):
                return f"hydra {' '.join(argv)} differs from the in-process result"
            return self._library_check(name, br, command, argv, json.loads(text))

        return Query(command, ("cli", tuple(argv)), lambda: run_hydra(argv), check)

    def _library_check(self, name, br, command, argv, report) -> str | None:
        """Spot-check the payload against the benchmark's own arithmetic."""
        results = report["results"]
        if command == "cycles":
            lo, hi = (int(v) for v in argv[-1].split("=", 1)[1].split(":"))
            fate = oracle.census(br, lo, hi)
            got = {tuple(int(v) for v in c["members"]) for c in results["cycles"]}
            return _expect(got == oracle.window_cycles(fate, lo, hi),
                           f"hydra cycles on {name} [{lo}, {hi}] disagrees with the census")
        if command == "numen":
            if results["kind"] == "nat":
                want = oracle.numen_nat(br, int(results["n"]))
            else:
                want = oracle.numen_rational(br, Fraction(results["z"]))
            return _expect(Fraction(results["value"]) == want,
                           f"hydra numen on {name} gives {results['value']}, not {want}")
        if command == "orbit":
            start = int(results["start"])
            fate = oracle.census(br, start, start)[start]
            got = tuple(int(v) for v in results["cycle"]) or None
            return _expect(got == fate, f"hydra orbit from {start} reaches {got}, not {fate}")
        return None

    def warm_up(self) -> dict:
        return {}     # every hydra process pays its own start-up


WORKLOADS = {cls.name: cls for cls in (Census, Spectral, Certify, Cli)}
