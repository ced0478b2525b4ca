"""Instance file format, canonical writer, and seeded instance generators.

The format is DIMACS-flavored and line oriented:

    c optional comment
    p bcp <n> <m>
    v <id> <weight>        weight is a positive integer or fraction p/q
    e <u> <v>

Fractional weights are cleared to integers at parse time by multiplying all
weights with the least common multiple of the denominators, so solvers only
ever see positive integers.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import islice

from .errors import ParseError
from .graph import WeightedGraph

FAMILIES = ("random-tree", "tree-plus-edges", "spider", "grid", "star")


# Fraction expands a decimal exponent in full ("1e3000000" is a
# 3,000,001-digit integer) and Python refuses to print an int of more than
# 4,300 digits, so a rational read from input, and the common denominator
# of an instance's weights, are held to this many digits.
MAX_DIGITS = 1000
_DIGITS_CAP = 10**MAX_DIGITS


def parse_rational(token: str) -> Fraction:
    """Fraction(token), also raising ValueError when the token could expand
    to a numerator or denominator of more than MAX_DIGITS digits; the check
    reads the exponent without expanding it."""
    head, _, exponent = token.lower().partition("e")
    if len(head) + (abs(int(exponent)) if exponent else 0) > MAX_DIGITS:
        raise ValueError(f"{token!r} has more than {MAX_DIGITS} digits")
    return Fraction(token)


def _parse_weight(token: str, line_no: int) -> int | Fraction:
    try:
        # Plain digit strings, by far the most common, skip Fraction's regex.
        if token.isdecimal() and len(token) <= MAX_DIGITS:
            value = int(token)
        else:
            value = parse_rational(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad weight {token!r}", line_no) from None
    if value <= 0:
        raise ParseError(f"weight must be positive, got {token}", line_no)
    return value


def parse_instance(text: str) -> WeightedGraph:
    """Parse and validate an instance; raises ParseError with a line number
    on malformed input."""
    n = m = None
    weights: dict[int, int | Fraction] = {}
    edges: dict[tuple[int, int], None] = {}  # insertion-ordered set
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "p":
            if n is not None:
                raise ParseError("duplicate problem line", line_no)
            if len(fields) != 4 or fields[1] != "bcp":
                raise ParseError("problem line must be 'p bcp <n> <m>'", line_no)
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError("problem line counts must be integers", line_no) from None
        elif kind == "v":
            if n is None:
                raise ParseError("vertex line before problem line", line_no)
            if len(fields) != 3:
                raise ParseError("vertex line must be 'v <id> <weight>'", line_no)
            try:
                vid = int(fields[1])
            except ValueError:
                raise ParseError(f"bad vertex id {fields[1]!r}", line_no) from None
            if not 0 <= vid < n:
                raise ParseError(f"vertex id {vid} out of range 0..{n - 1}", line_no)
            if vid in weights:
                raise ParseError(f"duplicate weight for vertex {vid}", line_no)
            weights[vid] = _parse_weight(fields[2], line_no)
        elif kind == "e":
            if n is None:
                raise ParseError("edge line before problem line", line_no)
            if len(fields) != 3:
                raise ParseError("edge line must be 'e <u> <v>'", line_no)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError("edge endpoints must be integers", line_no) from None
            if u == v:
                raise ParseError(f"loop at vertex {u}", line_no)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"edge ({u},{v}) out of range", line_no)
            key = (min(u, v), max(u, v))
            if key in edges:
                raise ParseError(f"duplicate edge ({key[0]},{key[1]})", line_no)
            edges[key] = None
        else:
            raise ParseError(f"unknown line kind {kind!r}", line_no)
    if n is None:
        raise ParseError("missing problem line")
    if m is not None and m != len(edges):
        raise ParseError(f"problem line promises {m} edges, file has {len(edges)}")
    # Ids are distinct and in range, so this scans at most len(weights) + 10 ids.
    missing = list(islice((v for v in range(n) if v not in weights), 10))
    if missing:
        raise ParseError(f"missing weights for {n - len(weights)} vertices, first {missing}")

    lcm = 1
    for d in {w.denominator for w in weights.values()}:
        lcm = lcm * d // math.gcd(lcm, d)
        if lcm >= _DIGITS_CAP:
            raise ParseError(f"weight denominators need more than {MAX_DIGITS} digits")
    cleared = [int(weights[v] * lcm) for v in range(n)]
    try:
        return WeightedGraph.from_edges(n, edges, cleared)
    except Exception as exc:  # connectivity and friends
        raise ParseError(str(exc)) from exc


def write_instance(g: WeightedGraph) -> str:
    """Canonical text form: parse(write(g)) reproduces g exactly."""
    lines = [f"p bcp {g.n} {g.m}"]
    lines.extend(f"v {v} {g.weights[v]}" for v in range(g.n))
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _random_weights(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    return [rng.randint(lo, hi) for _ in range(n)]


def generate(
    family: str, n: int, weight_range: tuple[int, int] = (1, 1), seed: int = 0
) -> WeightedGraph:
    """Seeded generator for the benchmark families; identical arguments give
    identical instances."""
    lo, hi = weight_range
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if not (1 <= lo <= hi):
        raise ValueError(f"bad weight range {weight_range}")
    rng = random.Random((family, n, lo, hi, seed).__repr__())

    def random_tree() -> list[tuple[int, int]]:
        return [(rng.randrange(v), v) for v in range(1, n)]

    if family == "random-tree":
        edges = random_tree()
    elif family == "tree-plus-edges":
        edges = random_tree()  # each edge is (parent, child), parent < child
        # Sample ranks j among the missing pairs (u, v), u < v, taken in
        # lexicographic order, and shift each past the present ranks below it.
        row_start = [u * n - u * (u + 1) // 2 for u in range(n - 1)]
        ranks = sorted(row_start[u] + v - u - 1 for u, v in edges)
        missing_below = [r - i for i, r in enumerate(ranks)]  # nondecreasing
        size = n * (n - 1) // 2 - len(ranks)
        for j in rng.sample(range(size), min(size, max(1, n // 3))):
            rank = j + bisect_right(missing_below, j)
            u = bisect_right(row_start, rank) - 1
            edges.append((u, u + 1 + rank - row_start[u]))
    elif family == "spider":
        legs = min(3, n - 1)
        edges = []
        tips = [0] * legs
        for v in range(1, n):
            leg = (v - 1) % legs
            edges.append((tips[leg], v))
            tips[leg] = v
    elif family == "grid":
        rows = max(r for r in range(1, int(math.isqrt(n)) + 1) if n % r == 0)
        cols = n // rows
        edges = []
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c
                if c + 1 < cols:
                    edges.append((v, v + 1))
                if r + 1 < rows:
                    edges.append((v, v + cols))
    else:  # star
        edges = [(0, v) for v in range(1, n)]

    return WeightedGraph.from_edges(n, edges, _random_weights(rng, n, lo, hi))
