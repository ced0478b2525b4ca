"""Seeded inputs for the four benchmark workloads.

A workload is one *round*: a fixed list of jobs, each a `bcp` command line
over one instance file.  The timed phase repeats whole rounds, so every run
solves the same multiset of jobs and the per-job output digest covers all of
them.  Families, sizes, k and epsilon are fixed per slot so that runs with
different seeds do comparable work.  The solve time of a slot can swing
up to tenfold with the shape of its graph, so each slot's shape is fixed,
and the seed draws the job order and: on minmax-* and oracle-exact, the
weights; on fpt-cover, whose graphs are unweighted, a renumbering of the
vertices outside the cover.  Renumbering all vertices made single oracle
and fpt solves up to five to seven times slower or faster, so it is not
used.

`bcp` is imported inside the round makers, so that the set-up time covers
importing it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# BCP_BUDGET_SECONDS per workload, well clear of every correct solve: the
# slowest oracle jobs take about 0.5 s, the slowest correct fpt jobs about
# 0.35 s, and the fpt blow-up that must fail searches for about 4 s.
BUDGET_S = {"minmax-moves": 1.0, "minmax-large": 1.0, "oracle-exact": 3.0, "fpt-cover": 1.0}


@dataclass(frozen=True)
class Instance:
    name: str
    graph: object  # bcp.graph.WeightedGraph
    cover: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Job:
    id: str
    command: str  # "solve", "exact" or "fpt-maxmin"
    instance: Instance
    k: int
    epsilon: str | None = None
    objective: str | None = None

    def argv(self, path: str) -> list[str]:
        args = [self.command, path, "--k", str(self.k)]
        if self.epsilon is not None:
            args += ["--epsilon", self.epsilon]
        if self.objective is not None:
            args += ["--objective", self.objective]
        if self.instance.cover is not None:
            args += ["--cover", ",".join(str(v) for v in self.instance.cover)]
        return args


def _solve_pair(inst: Instance, k: int, epsilon: str) -> list[Job]:
    """One plain and one scaled solve of the same instance."""
    return [
        Job(f"{inst.name}-k{k}", "solve", inst, k),
        Job(f"{inst.name}-k{k}-eps", "solve", inst, k, epsilon=epsilon),
    ]


def _minmax_moves(rng: random.Random) -> list[Job]:
    # Near-uniform spiders are the generated family on which the merge/pull
    # loop makes about n/6 moves; ranges such as 2-3 or 5-6 sometimes let it
    # stop after 2 moves, so they are not used.  Weighted stars end in the
    # star-center certificate and the cut-vertex bound.  k, epsilon and the
    # weight ranges are fixed per slot: the seed draws the weights.
    from bcp.instances import generate

    # Sizes step evenly so that no few jobs alone set the 90th percentile.
    spider_weights = ((1, 1), (100, 110), (1000, 1001))
    slots = [("spider", n, spider_weights[idx % 3], 3 + idx % 6)
             for idx, n in enumerate(range(300, 1001, 50))]
    slots += [("star", n, (1, 1000), 3 + 2 * idx) for idx, n in enumerate((300, 900, 1500))]
    jobs: list[Job] = []
    for idx, (family, n, weights, k) in enumerate(slots):
        g = generate(family, n, weights, random.Random(f"shape:{family}-{n}").randrange(1 << 30))
        inst = Instance(f"{family}-{n}", g.with_weights([rng.randint(*weights) for _ in range(n)]))
        jobs += _solve_pair(inst, k, ("1/2", "1/4", "1/8")[idx % 3])
    return jobs


def _minmax_large(rng: random.Random) -> list[Job]:
    # Few loop moves: parsing, graph construction, singleton splitting at
    # k=64 and printing large partitions take the time.
    from bcp.instances import generate

    shapes = [("random-tree", n) for n in (2000, 2500, 3000)]
    shapes += [("grid", n) for n in (1000, 1500, 2000)]
    shapes += [("star", n) for n in (1500, 2000)]
    jobs: list[Job] = []
    for idx, (family, n) in enumerate(shapes):
        weights = (1, (9, 100, 1000)[idx % 3])
        g = generate(family, n, weights, random.Random(f"shape:{family}-{n}").randrange(1 << 30))
        inst = Instance(f"{family}-{n}", g.with_weights([rng.randint(*weights) for _ in range(n)]))
        jobs += _solve_pair(inst, (3, 16, 64)[idx % 3], ("1/2", "1/4")[idx % 2])
    return jobs


def _dense_graph(rng: random.Random, n: int, p: float):
    """Random spanning tree plus each other pair with probability p."""
    from bcp.graph import WeightedGraph

    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < p:
                edges.add((u, v))
    return WeightedGraph.from_edges(n, sorted(edges))


def _renumbered(rng: random.Random, inst: Instance) -> Instance:
    """`inst` with its stable vertices, those outside the cover 0..c-1,
    renumbered at random."""
    from bcp.graph import WeightedGraph

    g = inst.graph
    c = len(inst.cover)
    stable = list(range(c, g.n))
    rng.shuffle(stable)
    new = list(range(c)) + stable
    edges = sorted(tuple(sorted((new[u], new[v]))) for u, v in g.edges())
    return Instance(inst.name, WeightedGraph.from_edges(g.n, edges), inst.cover)


# (family, n, k) slots, each solved for both objectives.  Enumeration cost on
# random structures swings up to tenfold at n >= 12 with k >= 3, so the
# random families (random-tree, tree-plus-edges, dense) stay small and get
# two instances per slot, and the largest slots, up to the 14-vertex cap,
# use the fixed spider and grid shapes with one instance each.  Every slot
# stays well below the budget.
ORACLE_SLOTS = (
    ("random-tree", 10, 3), ("random-tree", 10, 5), ("random-tree", 11, 4),
    ("random-tree", 12, 3), ("random-tree", 12, 4),
    ("tree-plus-edges", 10, 3), ("tree-plus-edges", 11, 3), ("tree-plus-edges", 11, 4),
    ("tree-plus-edges", 12, 2), ("tree-plus-edges", 12, 3),
    ("dense", 10, 2), ("dense", 10, 3), ("dense", 11, 2), ("dense", 12, 2),
    ("spider", 10, 5), ("spider", 11, 3), ("spider", 12, 4), ("spider", 13, 3),
    ("spider", 13, 4), ("spider", 14, 2), ("spider", 14, 3), ("spider", 14, 4),
    ("grid", 10, 4), ("grid", 10, 5), ("grid", 12, 3), ("grid", 12, 4), ("grid", 14, 2),
)


def _oracle_exact(rng: random.Random) -> list[Job]:
    from bcp.instances import generate

    jobs: list[Job] = []
    for family, n, k in ORACLE_SLOTS:
        for _ in range(1 if family in ("spider", "grid") else 2):
            name = f"{family}-{n}-{len(jobs) // 2}"
            shape = random.Random(f"shape:{name}")
            if family == "dense":
                g = _dense_graph(shape, n, 0.3)
            else:
                g = generate(family, n, (1, 9), shape.randrange(1 << 30))
            inst = Instance(name, g.with_weights([rng.randint(1, 9) for _ in range(n)]))
            for objective in ("minmax", "maxmin"):
                jobs.append(Job(f"{inst.name}-k{k}-{objective}", "exact", inst, k,
                                objective=objective))
    return jobs


def _cover_graph(rng: random.Random, c: int, stable: int, groups: int) -> Instance:
    """Connected cover 0..c-1 plus `stable` unit vertices split into `groups`
    classes, each class sharing one random neighbourhood in the cover."""
    from bcp.graph import WeightedGraph

    edges = {(rng.randrange(v), v) for v in range(1, c)}
    for _ in range(c // 3):
        u, v = sorted(rng.sample(range(c), 2))
        edges.add((u, v))
    hoods: set[tuple[int, ...]] = set()
    while len(hoods) < groups:
        hoods.add(tuple(sorted(rng.sample(range(c), rng.choice((1, 2, 2, 3))))))
    sizes = [1] * groups
    for _ in range(stable - groups):
        sizes[rng.randrange(groups)] += 1
    v = c
    for hood, size in zip(sorted(hoods), sizes):
        for _ in range(size):
            edges.update((u, v) for u in hood)
            v += 1
    g = WeightedGraph.from_edges(v, sorted(edges))
    return Instance(f"cover{c}-s{stable}-g{groups}", g, tuple(range(c)))


def _ladder(m: int) -> Instance:
    """The 2 x m grid with the alternating vertex cover."""
    from bcp.graph import WeightedGraph

    edges = [(c, c + 1) for c in range(m - 1)]
    edges += [(m + c, m + c + 1) for c in range(m - 1)]
    edges += [(c, m + c) for c in range(m)]
    cover = tuple(r * m + c for r in range(2) for c in range(m) if (r + c) % 2 == 0)
    return Instance(f"ladder-2x{m}", WeightedGraph.from_edges(2 * m, edges), cover)


def _fpt_cover(rng: random.Random) -> list[Job]:
    # Random covers stay at 6-7 vertices: from 8 up, correct solves reach
    # the one-second budget, so which solves fail would differ between runs.
    # Two fixed instances carry the known blow-ups and fail every time: a
    # 9-vertex cover at k=5, whose search runs about 4 s and is caught by the
    # budget, and the 2x10 ladder at k=4, which never leaves _distribute and
    # is hard-stopped.  The 2x7 ladder is left out because the exact_maxmin
    # cross-check of its 14 vertices takes about 13 s.
    jobs: list[Job] = []
    for idx in range(128):
        # Cover size, stable count, group count and k cycle through fixed
        # values; each slot's shape is fixed too.
        c, k = 6 + idx % 2, 2 + idx % 4
        stable, groups = (60, 150, 300, 600)[idx // 2 % 4], 3 + idx // 8 % 6
        inst = _cover_graph(random.Random(f"shape:cover:{idx}"), c, stable, groups)
        inst = _renumbered(rng, Instance(f"{inst.name}-{idx}", inst.graph, inst.cover))
        jobs.append(Job(f"{inst.name}-k{k}", "fpt-maxmin", inst, k))
    for m in (3, 4, 5, 6, 8):
        inst = _ladder(m)
        for k in range(2, 6):
            jobs.append(Job(f"{inst.name}-k{k}", "fpt-maxmin", inst, k))
    search = _cover_graph(random.Random("blow-up-2"), 9, 250, 4)
    jobs.append(Job(f"{search.name}-k5", "fpt-maxmin", search, 5))
    jobs.append(Job("ladder-2x10-k4", "fpt-maxmin", _ladder(10), 4))
    return jobs


ROUND_MAKERS: dict[str, Callable[[random.Random], list[Job]]] = {
    "minmax-moves": _minmax_moves,
    "minmax-large": _minmax_large,
    "oracle-exact": _oracle_exact,
    "fpt-cover": _fpt_cover,
}


WORKLOADS = tuple(ROUND_MAKERS)


def build(workload: str, seed: int) -> list[Job]:
    """The round of jobs for one workload; identical for identical seeds."""
    jobs = ROUND_MAKERS[workload](random.Random(f"{workload}:{seed}"))
    random.Random(f"order:{workload}:{seed}").shuffle(jobs)
    return jobs
