"""Parse what `bcp solve|exact|fpt-maxmin` print and check it.

Checks run outside the timers.  Every output is parsed, its partition goes
through `bcp.partition.validate`, and the printed value is recomputed from
the classes; each command then has its own guarantees to check.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction

# Lines that vary between identical solves: the file path and the timing.
_VOLATILE = ("instance:", "time-ms:")


def normalized(text: str) -> str:
    """The output without its volatile lines; equal across identical solves."""
    return "\n".join(l for l in text.splitlines() if not l.startswith(_VOLATILE))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Report:
    value: int | None = None
    certificate: str | None = None
    bound_kind: str | None = None
    bound: Fraction | None = None
    ratio: Fraction | None = None
    classes: list[frozenset[int]] = field(default_factory=list)


def parse_report(text: str) -> Report:
    rep = Report()
    in_partition = False
    for line in text.splitlines():
        if in_partition and ":" not in line:
            rep.classes.append(frozenset(int(tok) for tok in line.split()))
            continue
        in_partition = False
        key, _, rest = line.partition(":")
        rest = rest.strip()
        if key == "value":
            rep.value = int(rest)
        elif key == "certificate":
            rep.certificate = rest
        elif key.startswith("bound ("):
            rep.bound_kind = key[len("bound ("):-1]
            rep.bound = Fraction(rest)
        elif key == "ratio":
            rep.ratio = Fraction(rest.split()[0])
        elif key == "partition":
            in_partition = True
    return rep


def check(job, rep: Report) -> list[str]:
    """Problems found in one output."""
    from bcp.partition import validate

    g = job.instance.graph
    k = job.k
    problems = [f"invalid partition: {item}" for item in validate(g, rep.classes, k)]
    if rep.value is None:
        return problems + ["no value printed"]
    if problems:
        return problems
    weights = sorted(g.weight(c) for c in rep.classes)
    maxmin = job.command == "fpt-maxmin" or job.objective == "maxmin"
    recomputed = weights[0] if maxmin else weights[-1]
    if recomputed != rep.value:
        problems.append(f"printed value {rep.value} but classes give {recomputed}")
    if job.command == "solve":
        return problems + _check_solve(g, rep, Fraction(g.total_weight, k))
    if job.command == "exact":
        return problems + _check_exact(job, rep)
    return problems + _check_fpt(job, rep)


def _check_solve(g, rep: Report, average: Fraction) -> list[str]:
    problems = []
    if rep.bound is None or rep.ratio is None:
        return ["solve printed no bound or ratio"]
    if rep.ratio != Fraction(rep.value) / rep.bound:
        problems.append(f"ratio {rep.ratio} is not value/bound")
    if rep.bound_kind == "average" and rep.bound != average:
        problems.append(f"average bound {rep.bound} is not w(G)/k = {average}")
    if rep.bound_kind == "cut-vertex" and rep.value != rep.bound:
        problems.append(f"cut-vertex bound {rep.bound} differs from value {rep.value}")
    if rep.certificate == "RatioHalfW" and 2 * rep.value > g.total_weight:
        problems.append(f"RatioHalfW but 2*{rep.value} > w(G) = {g.total_weight}")
    if rep.certificate == "SingletonTop":
        top = max(rep.classes, key=g.weight)
        if len(top) != 1:
            problems.append(f"SingletonTop but the heaviest class has {len(top)} vertices")
    return problems


def _check_exact(job, rep: Report) -> list[str]:
    from bcp.minmax import minmax_bcpk

    if job.objective != "minmax" or job.k < 3:
        return []
    g = job.instance.graph
    approx = max(g.weight(c) for c in minmax_bcpk(g, job.k).classes)
    opt = rep.value
    problems = []
    if not opt <= approx or 2 * approx > job.k * opt:
        problems.append(f"minmax_bcpk value {approx} outside [opt, k/2*opt] for opt {opt}")
    return problems


def _check_fpt(job, rep: Report) -> list[str]:
    from bcp.oracle import exact_maxmin

    g = job.instance.graph
    problems = []
    if rep.value > g.n // job.k:
        problems.append(f"value {rep.value} exceeds n//k = {g.n // job.k}")
    if g.n > 14:
        return problems
    opt, _ = exact_maxmin(g, job.k)
    if opt != rep.value:
        problems.append(f"value {rep.value} but exact_maxmin gives {opt}")
    return problems
