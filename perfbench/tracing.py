"""Per-layer spans recorded from outside `bcp`.

`Tracer.install` replaces the traced functions in every `bcp` module that
binds them (`from .graph import components` binds the name separately in
`minmax`, `partition` and `fpt`) with wrappers that open a span around the
call.  Spans live in flat arrays: name, parent, start and end.  A layer is
named after the module that defines the function; a span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

TRACED = {
    "cli": ("run_cli",),
    "instances": ("parse_instance",),
    "graph": ("is_connected", "components", "boundary_neighbors", "split_two",
              "non_cut_vertex"),
    "partition": ("validate", "order3", "cut_vertex_bound"),
    "minmax": ("minmax_bcpk", "initial_3partition", "merge", "pull_check", "pull",
               "star_center_certificate", "split_off_singletons"),
    "scaling": ("scale", "eps_minmax_bcpk"),
    "oracle": ("exact_minmax", "exact_maxmin"),
    "fpt": ("solve_fpt_maxmin", "decompose", "separate", "build_hypergraph",
            "reconstruct", "_distribute", "_max_flow"),
}
FROM_EDGES = "graph.from_edges"
ENUMERATE = "oracle.enumerate"


def _count_result(name: str, counter: Counter, result) -> None:
    """Counters read from a traced function's return value."""
    if name == "minmax.minmax_bcpk":
        counter["minmax.iterations"] += result.iterations
    elif name == "minmax.pull_check":
        counter["minmax.pull_check.hits"] += result is not None
    elif name == "fpt.solve_fpt_maxmin":
        counter["fpt.nodes"] += result.nodes
        counter["fpt.cuts"] += result.cuts_added
    elif name == "fpt.separate":
        counter["fpt.separate.connected"] += not result
    elif name == "fpt._max_flow":
        counter["fpt._max_flow.feasible"] += result is not None


def span_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
    return names + [FROM_EDGES, ENUMERATE]


class Tracer:
    """Spans and counters of the traced functions.  Wrappers record only
    while `active` is set; `counter` holds one solve's counters and `totals`
    those of the solves of a round that ran to the end."""

    def __init__(self) -> None:
        self.names = span_names()
        self.active = False
        self.counter: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self.clear()

    def clear(self) -> None:
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.totals: Counter = Counter()

    def __len__(self) -> int:
        return len(self.start)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        nid = self.names.index(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            _count_result(name, tracer.counter, result)
            return result

        return traced

    def _wrap_enumerate(self, fn):
        nid = self.names.index(ENUMERATE)
        tracer = self

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.active:
                return gen
            tracer.counter[ENUMERATE + ".calls"] += 1
            return tracer._timed_next(gen, nid)

        return traced

    def _timed_next(self, gen, nid: int):
        """Re-yield gen, with one span per `next`."""
        while True:
            idx = self._open(nid)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(idx)
            self.counter[ENUMERATE + ".yielded"] += 1
            yield item

    def install(self) -> None:
        """Wrap every traced function wherever a `bcp` module binds it."""
        import bcp.graph
        import bcp.oracle

        modules = [m for key, m in sys.modules.items() if key == "bcp" or key.startswith("bcp.")]
        replacements = {}
        for layer, fns in TRACED.items():
            home = sys.modules[f"bcp.{layer}"]
            for fn_name in fns:
                fn = getattr(home, fn_name)
                replacements[id(fn)] = (fn, self._wrap(f"{layer}.{fn_name}", fn))
        enum = bcp.oracle.enumerate_connected_kpartitions
        replacements[id(enum)] = (enum, self._wrap_enumerate(enum))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and replacements[id(value)][0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacements[id(value)][1])
        cls = bcp.graph.WeightedGraph
        original = cls.__dict__["from_edges"]
        self._restore.append((cls, "from_edges", original))
        cls.from_edges = classmethod(self._wrap(FROM_EDGES, original.__func__))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def recover(self, when: float) -> None:
        """Repair the arrays after a hard stop, which may interrupt `_open`
        or `_close` between two appends; spans left open end at `when`."""
        n = min(len(self.name), len(self.parent), len(self.start), len(self.end))
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[n:]
        for idx in self._stack:
            if idx < n and self.end[idx] == 0.0:
                self.end[idx] = when
        self._stack.clear()

    def self_times(self) -> list[float]:
        """Self time of every span, in seconds."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            out.write("id\tparent\tname\tstart_us\tend_us\n")
            t0 = self.start[0] if len(self) else 0.0
            for idx in range(len(self)):
                out.write(
                    f"{idx}\t{self.parent[idx]}\t{self.names[self.name[idx]]}\t"
                    f"{(self.start[idx] - t0) * 1e6:.1f}\t{(self.end[idx] - t0) * 1e6:.1f}\n"
                )
