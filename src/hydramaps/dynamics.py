"""Integer orbits of hydra maps and the cycle/periodic-point correspondence.

Every step is HydraMap.apply, which stays in integer arithmetic.  orbit
walks one start until a repeat, the magnitude bound, or the step budget;
unresolved orbits are reported as 'escaped', never as divergent.
find_cycles and orbit_class_partition read one memoised pass over the
range: each visited integer records its fate (a canonical cycle reached
in a known number of steps, or the escape through a first value past
the bound), a later start stops at the first recorded value it meets,
and it takes a cycle only when its own steps plus the recorded ones fit
the budget.  Every start therefore gets exactly orbit's fate, and no
orbit is walked twice.  Each integer cycle corresponds to the rational
n / (1 - p**len) built from its branch word, at which the numen takes a
value inside the cycle; correspondence_roundtrip certifies that both
ways and reverse_scan enumerates all short words to recover every
integer periodic point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    ENUMERATION_CAP,
    NotPIntegralError,
    PreconditionError,
    ResourceLimitError,
)
from .exact import Place, _digits, abs_at_place
from .hydra import (DigitString, HydraMap, _word_form, _word_tables,
                    classify, compose_branches, digit_value)
from .numen import find_contracting_place, numen_of_rational

STATUS_PERIODIC = "periodic"
STATUS_PREPERIODIC = "preperiodic"
STATUS_ESCAPED = "escaped"

DEFAULT_MAX_STEPS = 10_000
DEFAULT_ESCAPE_BOUND = 10 ** 18


def _canonical_rotation(cycle: tuple[int, ...]) -> tuple[int, ...]:
    i = cycle.index(min(cycle))
    return cycle[i:] + cycle[:i]


def _check_controls(max_steps: int, escape_bound: int) -> None:
    if max_steps < 1:
        raise ValueError(f"need max_steps >= 1, got {max_steps}")
    if escape_bound < 0:
        raise ValueError(f"need escape_bound >= 0, got {escape_bound}")


@dataclass(frozen=True)
class OrbitReport:
    """Forward orbit of one integer start.

    tail holds the strictly pre-cycle iterates in visit order; cycle is
    rotated to start at its minimum element (the map sends each cycle
    entry to the next, wrapping around).  Escaped orbits carry the full
    bounded prefix in tail and an empty cycle.
    """

    start: int
    status: str
    tail: tuple[int, ...]
    cycle: tuple[int, ...]
    steps: int
    escape_bound: int

    @property
    def elements(self) -> tuple[int, ...]:
        return self.tail + self.cycle


def orbit(
    H: HydraMap,
    start: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    escape_bound: int = DEFAULT_ESCAPE_BOUND,
) -> OrbitReport:
    """Iterate until a repeat, the magnitude bound, or the step budget.

    'escaped' is a bounded-resources statement about this run, not a
    divergence claim.  The start itself is never checked against the
    bound; every iterate is.
    """
    _check_controls(max_steps, escape_bound)
    seen = {start: 0}
    seq = [start]
    v = start
    for step in range(1, max_steps + 1):
        v = H.apply(v)
        if v in seen:
            idx = seen[v]
            status = STATUS_PERIODIC if idx == 0 else STATUS_PREPERIODIC
            return OrbitReport(
                start=start,
                status=status,
                tail=tuple(seq[:idx]),
                cycle=_canonical_rotation(tuple(seq[idx:])),
                steps=step,
                escape_bound=escape_bound,
            )
        if abs(v) > escape_bound:
            return OrbitReport(start, STATUS_ESCAPED, tuple(seq), (),
                               step, escape_bound)
        seen[v] = len(seq)
        seq.append(v)
    return OrbitReport(start, STATUS_ESCAPED, tuple(seq), (),
                       max_steps, escape_bound)


def find_cycles(
    H: HydraMap,
    lo: int,
    hi: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    escape_bound: int = DEFAULT_ESCAPE_BOUND,
) -> set[tuple[int, ...]]:
    """All cycles reached from starts in [lo, hi], canonically rotated.

    The cycles are read off one memoised pass over the range (see
    _orbit_pass), so a start's cycle is the one orbit(H, start,
    max_steps, escape_bound) reports.  Each cycle is re-verified by
    applying the map around it once.
    """
    fates, _ = _orbit_pass(H, lo, hi, max_steps, escape_bound)
    cycles = {cycle for cycle, _ in fates.values() if cycle}
    for cycle in cycles:
        _verify_cycle(H, cycle)
    return cycles


def _orbit_pass(
    H: HydraMap, lo: int, hi: int, max_steps: int, escape_bound: int,
) -> tuple[dict[int, tuple], dict[int, tuple]]:
    """Walk the orbits of [lo, hi] once, sharing what earlier walks found.

    memo[v] = (cycle, n) says that v, taken as a start, closes the
    canonical cycle after exactly n steps with every later iterate inside
    the bound; memo[v] = ((), w) says that v's orbit leaves the bound at
    w before it closes, which no budget can change.  A start's walk stops
    at its first recorded value u, after k steps: it escapes with u, or
    it reaches u's cycle in k + n steps.  Either way the values it walked
    are recorded.  A walk that exhausts the budget records nothing.

    fates[s] is s's (cycle, n) when n <= max_steps; otherwise it is
    ((), w) with the first value w past the bound, or ((), None) when
    the budget alone stopped s.  So fates[s] has the cycle, or the
    escape, of orbit(H, s, max_steps, escape_bound).
    """
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    _check_controls(max_steps, escape_bound)
    step = H.apply
    memo: dict[int, tuple] = {}
    shared: dict[tuple, tuple] = {}
    fates: dict[int, tuple] = {}
    for start in range(lo, hi + 1):
        if start not in memo:
            _walk(step, start, memo, shared, max_steps, escape_bound)
        cycle, n = memo.get(start, ((), None))
        fates[start] = ((), None) if cycle and n > max_steps else (cycle, n)
    return fates, memo


def _walk(step, start: int, memo: dict, shared: dict, max_steps: int,
          escape_bound: int) -> None:
    # A start past the bound does not read the memo: a recorded escape
    # may run through the start itself, which orbit never checks.  When
    # such a start is periodic, the other members of its cycle do escape
    # through it, so only the start is recorded.
    reads = abs(start) <= escape_bound
    seen = {start: 0}           # walked values, in order, to their index
    v = start
    for k in range(1, max_steps + 1):
        v = step(v)
        if v in seen:
            i = seen[v]
            path = list(seen)
            cycle = _canonical_rotation(tuple(path[i:]))
            if i == 0 and not reads:
                path = path[:1]
            for j, u in enumerate(path):
                memo[u] = _shared_entry(shared, cycle, k - j if j < i else k - i)
            return
        if abs(v) > escape_bound:
            entry = ((), v)
            break
        if reads and v in memo:
            cycle, n = entry = memo[v]
            if cycle:
                for j, u in enumerate(seen):
                    memo[u] = _shared_entry(shared, cycle, k - j + n)
                return
            break
        seen[v] = k
    else:
        return
    memo.update(dict.fromkeys(seen, entry))


def _shared_entry(shared: dict, cycle: tuple, n: int) -> tuple:
    # one (cycle, n) tuple per distinct entry, not one per value, keeps
    # the memo no larger than a plain value -> start map
    entry = (cycle, n)
    return shared.setdefault(entry, entry)


def _verify_cycle(H: HydraMap, cycle: tuple[int, ...]) -> None:
    for i, v in enumerate(cycle):
        if H.apply(v) != cycle[(i + 1) % len(cycle)]:
            raise AssertionError(f"not a cycle of the map: {cycle}")


def cycle_string(H: HydraMap, cycle: tuple[int, ...]) -> DigitString:
    """Branch word fixing cycle[0]: residues along the cycle, reversed,
    so the innermost (index-0) entry is the start element's residue.

    Applying the branches innermost-first replays the cycle from
    cycle[0] back to itself.
    """
    _verify_cycle(H, cycle)
    entries = tuple(reversed([v % H.modulus for v in cycle]))
    string = DigitString(H.modulus, entries)
    if compose_branches(H, string)(cycle[0]) != cycle[0]:
        raise AssertionError(f"cycle word does not fix {cycle[0]}")
    return string


@dataclass(frozen=True)
class CorrespondenceCertificate:
    """One cycle's periodic-point witness.

    z = n / (1 - p**len(word)) repeats the cycle's branch word, and the
    numen at z equals the cycle's start element.  verified also demands
    that z be a p-integral rational outside the nonnegative integers.
    The fixed point {0} is reported with a note and exempted from that
    exclusion.
    """

    cycle: tuple[int, ...]
    string: DigitString
    n: int
    z: Fraction
    x_value: Fraction | None
    verified: bool
    place: Place | None
    note: str = ""


@dataclass(frozen=True)
class ScanReport:
    """Result of enumerating all branch words up to a length.

    integer_values are the integer fixed points found, each the numen
    value at the word's repeating rational; words whose composite scale
    is 1 have no unique fixed point and are skipped (skipped counts
    them).  witness_words maps each value, in ascending order, to its
    shortest word, the lexicographically largest among equal lengths.
    """

    max_length: int
    words_scanned: int
    skipped: int
    integer_values: tuple[int, ...]
    witness_words: dict[int, DigitString] = field(compare=False, hash=False,
                                                  default_factory=dict)


def reverse_scan(H: HydraMap, max_length: int) -> ScanReport:
    """Fixed points of every branch word of length <= max_length.

    In the map's integer branch form a word of length n composes to
    x -> (A*x + B) / D**n, so it has the unique fixed point
    B / (D**n - A) unless A = D**n (skipped), and an integer one exactly
    when D**n - A divides B: the cycle criterion of Boehm and Sontacchi.
    Level n joins each outer half u of length n - k to every inner half
    v of length k = ceil(n/2), both read from hydra._word_tables; the
    word's form is A = A_u*A_v and B = A_u*B_v + D**k*B_u.  A depends
    only on which scales the digits carry, so each half table is
    grouped by its A, and each pair of groups (A_u, A_v) is one
    congruence: with N = D**n - A_u*A_v, g = gcd(A_u, N) and
    M = |N|/g, an outer half matches only when g divides D**k*B_u, and
    then exactly the inner halves with
    B_v = -(D**k*B_u/g) * (A_u/g)**-1 (mod M).  The inner group is
    bucketed by B_v mod M, so each outer half costs one lookup and no
    word is tested on its own.  The words of a level are indexed in
    descending order of their entries, and each new value keeps its
    smallest index, so its witness is its lexicographically largest
    shortest word; only the witnesses' entries are decoded.  Refuses
    more than ENUMERATION_CAP words in all.  At p >= 2 a length L has at
    least 2**(L+1) - 2 words, past the power-of-two cap from
    L = ENUMERATION_CAP.bit_length() - 1 (24) on, so such a length is
    refused before the words are counted.
    """
    if max_length < 1:
        raise ValueError(f"need max_length >= 1, got {max_length}")
    if max_length >= ENUMERATION_CAP.bit_length() - 1:
        raise ResourceLimitError(
            f"a length-{max_length} scan has more words than the "
            f"{ENUMERATION_CAP} cap")
    p = H.modulus
    words = sum(p ** n for n in range(1, max_length + 1))
    if words > ENUMERATION_CAP:
        raise ResourceLimitError(
            f"a length-{max_length} scan has {words} words, above the "
            f"{ENUMERATION_CAP} cap")
    D = H._steps[0][2]
    groups = []                 # groups[m]: A -> [(index, B)] of length m
    for table in _word_tables(H, (max_length + 1) // 2):
        by_scale: dict[int, list[tuple[int, int]]] = {}
        for i, (A, B) in enumerate(table):
            by_scale.setdefault(A, []).append((i, B))
        groups.append(by_scale)

    integers: dict[int, DigitString] = {}
    skipped = 0
    for n in range(1, max_length + 1):
        k = (n + 1) // 2
        Dn, Dk, pk = D ** n, D ** k, p ** k
        found: dict[int, int] = {}      # new value -> its smallest index
        for Au, outer in groups[n - k].items():
            prefixes = [(i, Dk * Bu) for i, Bu in outer]
            for Av, inner in groups[k].items():
                N = Dn - Au * Av
                if not N:
                    skipped += len(prefixes) * len(inner)
                    continue
                g = math.gcd(Au, N)
                M = abs(N) // g
                inverse = pow(Au // g, -1, M)
                buckets: dict[int, list[tuple[int, int]]] = {}
                for j, Bv in inner:
                    buckets.setdefault(Bv % M, []).append((j, Bv))
                for i, c in prefixes:
                    q, r = divmod(c, g)
                    if r:
                        continue
                    for j, Bv in buckets.get(-q * inverse % M, ()):
                        v = (Au * Bv + c) // N
                        index = i * pk + j
                        if v not in integers and index < found.get(v, words):
                            found[v] = index
        for v, index in found.items():
            code = _digits(p ** n - 1 - index, p)
            entries = code + [0] * (n - len(code))
            integers[v] = DigitString(p, tuple(entries[::-1]))
    return ScanReport(
        max_length=max_length,
        words_scanned=words,
        skipped=skipped,
        integer_values=tuple(sorted(integers)),
        witness_words=dict(sorted(integers.items())),
    )


@dataclass(frozen=True)
class CorrespondenceResult:
    certificates: tuple[CorrespondenceCertificate, ...]
    scan: ScanReport
    scan_consistent: bool
    stray_values: tuple[int, ...]


def correspondence_roundtrip(
    H: HydraMap,
    place: Place | None,
    lo: int,
    hi: int,
    scan_length: int = 12,
    max_steps: int = DEFAULT_MAX_STEPS,
    escape_bound: int = DEFAULT_ESCAPE_BOUND,
) -> CorrespondenceResult:
    """Certify every cycle found in [lo, hi] and cross-check by scan.

    Requires an integral, proper, centered map.  Each cycle (except the
    fixed point 0, which is its own special case) is certified through
    its branch word as described on CorrespondenceCertificate; the given
    place is tried first for the contraction hypothesis and a suitable
    one is searched when it fails.  The reverse scan then enumerates all
    words up to scan_length; every integer fixed point it finds must lie
    on a discovered cycle, and stray values (integer periodic points
    whose cycles were not reached from [lo, hi]) are reported.  The
    cycles come from find_cycles, so from its memoised pass.
    """
    _check_controls(max_steps, escape_bound)
    props = classify(H)
    if not (props.integral and props.proper and props.centered):
        raise PreconditionError(
            "correspondence requires an integral, proper, centered map; "
            f"got integral={props.integral}, proper={props.proper}, "
            f"centered={props.centered}")

    cycles = sorted(find_cycles(H, lo, hi, max_steps, escape_bound))
    certificates = []
    covered: set[int] = set()
    for cycle in cycles:
        covered.update(cycle)
        certificates.append(_certify(H, cycle, place))

    scan = reverse_scan(H, scan_length)
    stray = tuple(v for v in scan.integer_values if v not in covered)
    return CorrespondenceResult(
        certificates=tuple(certificates),
        scan=scan,
        scan_consistent=not stray,
        stray_values=stray,
    )


def _certify(
    H: HydraMap, cycle: tuple[int, ...], place: Place | None,
) -> CorrespondenceCertificate:
    p = H.modulus
    if cycle == (0,):
        return CorrespondenceCertificate(
            cycle=cycle,
            string=DigitString(p, (0,)),
            n=0,
            z=Fraction(0),
            x_value=Fraction(0),
            verified=True,
            place=None,
            note="fixed point 0: z = 0 lies in the nonnegative integers "
                 "and is exempt from the exclusion",
        )
    string = cycle_string(H, cycle)
    n = digit_value(string)
    z = Fraction(n, 1 - p ** len(string.entries))

    A, B, Dn = _word_form(H, string.entries)
    scale = Fraction(A, Dn)
    chosen = place
    if chosen is None or not abs_at_place(scale, chosen) < 1:
        chosen = find_contracting_place(scale)
    if chosen is None:
        return CorrespondenceCertificate(
            cycle=cycle, string=string, n=n, z=z, x_value=None,
            verified=False, place=None,
            note=f"no place contracts the cycle word (scale {scale})")

    try:
        x = numen_of_rational(H, z, place=chosen)
    except (PreconditionError, NotPIntegralError) as exc:
        return CorrespondenceCertificate(
            cycle=cycle, string=string, n=n, z=z, x_value=None,
            verified=False, place=chosen,
            note=f"numen evaluation failed: {exc}")
    ok = (
        x == Fraction(B, Dn - A)
        and x in cycle
        and not (z.denominator == 1 and z >= 0)
        and math.gcd(z.denominator, p) == 1
    )
    return CorrespondenceCertificate(
        cycle=cycle, string=string, n=n, z=z, x_value=x,
        verified=ok, place=chosen)


@dataclass(frozen=True)
class OrbitClass:
    """One block of the orbit partition.

    label is the canonical cycle the block's orbits reach, or the
    string 'escaped' when they all left the budget unresolved.
    """

    label: tuple[int, ...] | str
    members: tuple[int, ...]


def orbit_class_partition(
    H: HydraMap,
    lo: int,
    hi: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    escape_bound: int = DEFAULT_ESCAPE_BOUND,
) -> list[OrbitClass]:
    """Partition [lo, hi] by the fate of each start's bounded orbit.

    Every member is labelled with its own orbit(H, m, max_steps,
    escape_bound) fate, read off the memoised pass that find_cycles
    uses.  The starts that reach one cycle form one block.  The escaped
    starts are split by shared iterates: two of them land in one block
    when their orbits, up to and including the first value past the
    bound, are linked by a chain of shared elements.  Blocks are sorted
    by minimum member.
    """
    fates, memo = _orbit_pass(H, lo, hi, max_steps, escape_bound)
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        parent[find(a)] = find(b)

    # Escaped orbits that share an element leave the bound at the same
    # first value, so each bound escape is keyed by that value.  A start
    # past the bound is also an element its successors may share, and a
    # start cut off by the budget is linked through its walked iterates.
    for start, (cycle, witness) in fates.items():
        if cycle:
            continue
        if witness is None:
            for x in orbit(H, start, max_steps, escape_bound).elements:
                union(x, start)
                recorded, w = memo.get(x, (None, None))
                if recorded == ():
                    union(x, w)
        elif abs(start) > escape_bound:
            union(start, witness)

    blocks: dict = {}
    for start, (cycle, witness) in fates.items():
        key = cycle or find(start if witness is None else witness)
        blocks.setdefault(key, []).append(start)
    classes = [OrbitClass(key if isinstance(key, tuple) else STATUS_ESCAPED,
                          tuple(members))
               for key, members in blocks.items()]
    classes.sort(key=lambda c: c.members[0])
    return classes
