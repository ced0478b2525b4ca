import csv
import gc
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bcp.cli
import bcp.fpt
import bcp.graph
import bcp.minmax
import bcp.oracle
import bcp.scaling
from bcp.cli import run_cli
from bcp.instances import generate, parse_instance, write_instance
from bcp.partition import sort_classes

from .conftest import connected_graphs, grid_graph, path_graph, star_graph


@pytest.fixture
def star5(tmp_path):
    path = tmp_path / "star5.bcp"
    path.write_text(write_instance(star_graph(5)))
    return str(path)


@pytest.fixture
def path5(tmp_path):
    path = tmp_path / "p5.bcp"
    path.write_text(write_instance(path_graph(5)))
    return str(path)


@pytest.fixture
def path4(tmp_path):
    path = tmp_path / "p4.bcp"
    path.write_text(write_instance(path_graph(4)))
    return str(path)


def lines_of(capsys):
    return capsys.readouterr().out.splitlines()


class TestSolve:
    def test_star_k3(self, star5, capsys):
        assert run_cli(["solve", star5, "--k", "3"]) == 0
        out = lines_of(capsys)
        assert "value: 3" in out
        assert "certificate: StarOptimal" in out
        assert "ratio: 1/1 (1.000000)" in out

    def test_p5_k3(self, path5, capsys):
        assert run_cli(["solve", path5, "--k", "3"]) == 0
        out = lines_of(capsys)
        assert "value: 2" in out
        assert "certificate: RatioHalfW" in out

    def test_partition_lines_cover_graph(self, path5, capsys):
        run_cli(["solve", path5, "--k", "3"])
        out = lines_of(capsys)
        start = out.index("partition:") + 1
        classes = [set(map(int, line.split())) for line in out[start:start + 3]]
        assert set().union(*classes) == set(range(5))

    @pytest.mark.parametrize("extra", [[], ["--epsilon", "1/2"]])
    def test_invalid_k_partition_fails_instead_of_printing(
        self, path5, star5, capsys, monkeypatch, extra
    ):
        # Every ending goes through the one split and the one check: P5 at
        # k=4 ends in RatioHalfW after a split, the 5-star at k=3 in
        # StarOptimal after none.  The first class is disconnected.
        for instance, k, broken, match in [
            (path5, 4, ({0, 2}, {1}, {3}, {4}), r"class 0 \(\[0, 2\]\) is disconnected"),
            (star5, 3, ({1, 2}, {0}, {3, 4}), r"class 0 \(\[1, 2\]\) is disconnected"),
        ]:
            classes = tuple(map(frozenset, broken))
            monkeypatch.setattr(
                "bcp.minmax.split_off_singletons", lambda g, p, q, classes=classes: classes
            )
            assert run_cli(["solve", instance, "--k", str(k), *extra]) == 4
            out, err = capsys.readouterr()
            assert "partition:" not in out
            [line] = err.splitlines()
            assert line.startswith("internal error: minmax_bcpk() built an invalid partition: ")
            assert re.search(match, line)

    def test_star_solve_walks_g_minus_u_once(self, tmp_path, capsys, monkeypatch):
        # The star certificate walks G - u once; the cut-vertex bound and the
        # CLI read its components.
        path = tmp_path / "star2000.bcp"
        path.write_text(write_instance(generate("star", 2000, (1, 1000), 1)))
        original = bcp.graph.components
        calls = []

        def counted(g, s):
            calls.append(len(s))
            return original(g, s)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "bcp" and getattr(module, "components", None) is original:
                monkeypatch.setattr(module, "components", counted)
        assert run_cli(["solve", str(path), "--k", "16"]) == 0
        out = lines_of(capsys)
        assert "certificate: StarOptimal" in out
        assert "bound (cut-vertex): 1000359" in out
        assert calls == [1999]

    def test_k2_is_input_error(self, path5, capsys):
        assert run_cli(["solve", path5, "--k", "2"]) == 2

    def test_epsilon_solve_checks_k_itself(self, path5, capsys):
        # eps_minmax_bcpk rejects k before it divides epsilon by k/2.
        assert run_cli(["solve", path5, "--k", "0", "--epsilon", "1/2"]) == 2
        assert "k must be in [3, 5], got 0" in capsys.readouterr().err

    def test_epsilon(self, star5, capsys):
        assert run_cli(["solve", star5, "--k", "3", "--epsilon", "1/2"]) == 0
        out = lines_of(capsys)
        assert "epsilon: 1/2" in out
        assert "value: 3" in out

    def test_bad_epsilon(self, star5):
        assert run_cli(["solve", star5, "--k", "3", "--epsilon", "zero"]) == 2

    def test_empty_epsilon(self, star5):
        assert run_cli(["solve", star5, "--k", "3", "--epsilon", ""]) == 2

    def test_missing_file(self, tmp_path):
        assert run_cli(["solve", str(tmp_path / "nope.bcp"), "--k", "3"]) == 2


class TestExact:
    def test_maxmin_p4(self, path4, capsys):
        assert run_cli(["exact", path4, "--objective", "maxmin", "--k", "2"]) == 0
        out = lines_of(capsys)
        assert "value: 2" in out

    def test_minmax_star(self, star5, capsys):
        assert run_cli(["exact", star5, "--objective", "minmax", "--k", "3"]) == 0
        assert "value: 3" in lines_of(capsys)

    def test_budget_env(self, tmp_path, capsys, monkeypatch):
        big = tmp_path / "big.bcp"
        big.write_text(write_instance(path_graph(14)))
        monkeypatch.setenv("BCP_BUDGET_SECONDS", "0.0")
        assert run_cli(["exact", str(big), "--objective", "minmax", "--k", "4"]) == 3

    @pytest.mark.parametrize("raw", ["nan", "-1", "soon"])
    def test_bad_budget_env(self, path5, capsys, monkeypatch, raw):
        monkeypatch.setenv("BCP_BUDGET_SECONDS", raw)
        assert run_cli(["exact", path5, "--objective", "minmax", "--k", "3"]) == 2
        assert "BCP_BUDGET_SECONDS" in capsys.readouterr().err

    def test_parser_is_reused_after_a_bad_call(self, path5, capsys):
        argv = ["exact", path5, "--objective", "maxmin", "--k", "3"]
        assert bcp.cli.build_parser() is bcp.cli.build_parser()
        assert run_cli(["exact", path5, "--objective", "sideways", "--k", "3"]) == 2
        capsys.readouterr()
        assert run_cli(argv) == 0
        here = capsys.readouterr().out
        src = Path(bcp.__file__).resolve().parent.parent
        fresh = subprocess.run(
            [sys.executable, "-m", "bcp", *argv],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
        )
        assert fresh.returncode == 0, fresh.stderr

        def timeless(out):
            return [line for line in out.splitlines() if not line.startswith("time-ms:")]

        assert timeless(here) == timeless(fresh.stdout)

    def test_oversize_instance_is_budget_error(self, tmp_path):
        big = tmp_path / "big.bcp"
        big.write_text(write_instance(path_graph(20)))
        assert run_cli(["exact", str(big), "--objective", "minmax", "--k", "3"]) == 3


class TestFptMaxmin:
    def test_p4(self, path4, capsys):
        assert run_cli(["fpt-maxmin", path4, "--k", "2", "--cover", "1,2"]) == 0
        out = lines_of(capsys)
        assert "value: 2" in out

    def test_dump_model(self, path4, tmp_path, capsys):
        dump = tmp_path / "model.txt"
        assert (
            run_cli(
                ["fpt-maxmin", path4, "--k", "2", "--cover", "1,2", "--dump-model", str(dump)]
            )
            == 0
        )
        text = dump.read_text()
        assert "cover X = [1, 2]" in text
        assert "cut pool" in text

    def test_bad_cover(self, path4):
        assert run_cli(["fpt-maxmin", path4, "--k", "2", "--cover", "0,3"]) == 2

    def test_cover_vertex_out_of_range(self, path4, capsys):
        assert run_cli(["fpt-maxmin", path4, "--k", "2", "--cover", "0,99"]) == 2
        assert "error: cover vertex 99 out of range" in capsys.readouterr().err

    def test_empty_cover(self, path4):
        assert run_cli(["fpt-maxmin", path4, "--k", "2", "--cover", ""]) == 2

    def test_non_integer_cover(self, path4, capsys):
        assert run_cli(["fpt-maxmin", path4, "--k", "2", "--cover", "0,x"]) == 2
        assert "bad cover list '0,x'" in capsys.readouterr().err

    def test_zero_budget_stops_k_above_cover(self, star5, monkeypatch):
        # The star's cover is its centre, so k=2 takes the shortcut that
        # builds a witness without searching.
        assert run_cli(["fpt-maxmin", star5, "--k", "2"]) == 0
        monkeypatch.setenv("BCP_BUDGET_SECONDS", "0")
        assert run_cli(["fpt-maxmin", star5, "--k", "2"]) == 3

    def test_zero_budget_stops_a_certified_ladder(self, tmp_path, monkeypatch, capsys):
        # The split of the 2x10 ladder's DFS tree reaches n // k = 5, so the
        # solve searches no node; a zero budget still stops it.
        inst = tmp_path / "ladder.bcp"
        inst.write_text(write_instance(grid_graph(2, 10)))
        assert run_cli(["fpt-maxmin", str(inst), "--k", "4"]) == 0
        out = lines_of(capsys)
        assert "value: 5" in out and "nodes: 0" in out and "cuts: 0" in out
        monkeypatch.setenv("BCP_BUDGET_SECONDS", "0")
        assert run_cli(["fpt-maxmin", str(inst), "--k", "4"]) == 3

    def test_weighted_rejected(self, tmp_path):
        inst = tmp_path / "w.bcp"
        inst.write_text(write_instance(path_graph(4, [1, 2, 1, 1])))
        assert run_cli(["fpt-maxmin", str(inst), "--k", "2"]) == 2


@pytest.mark.parametrize(
    "algorithm, k, epsilon",
    [
        ("minmax-bcpk", 3, None),
        ("eps-minmax-bcpk", 3, Fraction(1, 2)),
        ("exact-minmax", 2, None),
        ("exact-maxmin", 2, None),
        ("fpt-maxmin", 2, None),
    ],
)
def test_every_run_report_holds_sort_classes_order(algorithm, k, epsilon):
    """On the path 5-1-1-1 at k=2 both oracles' witness is ({0}, {1, 2, 3}),
    heaviest first; the report holds it lightest first, as it is printed.
    fpt-maxmin reads the same path at unit weights."""
    weights = None if algorithm == "fpt-maxmin" else [5, 1, 1, 1]
    g = path_graph(4, weights)
    report = bcp.cli._run(g, k, algorithm, epsilon)
    assert report.classes == sort_classes(g, report.classes)
    if algorithm.startswith("exact-"):
        assert report.classes == (frozenset({1, 2, 3}), frozenset({0}))


class TestGenValidate:
    def test_gen_writes_parseable_file(self, tmp_path, capsys):
        out = tmp_path / "g.bcp"
        assert (
            run_cli(
                ["gen", "--family", "grid", "--n", "6", "--weights", "1:4",
                 "--seed", "7", "--out", str(out)]
            )
            == 0
        )
        assert run_cli(["exact", str(out), "--objective", "minmax", "--k", "2"]) == 0

    def test_gen_stdout(self, capsys):
        assert run_cli(["gen", "--family", "star", "--n", "4"]) == 0
        assert capsys.readouterr().out.startswith("p bcp 4 3")

    @pytest.mark.parametrize(
        "args, message",
        [(["--weights", "a:b"], "weights must look like LO:HI, got 'a:b'"),
         (["--weights", "5:1"], "bad weight range (5, 1)"),
         (["--n", "2"], "need n >= 3, got 2")],
        ids=["weights-not-integers", "weights-reversed", "n-too-small"],
    )
    def test_gen_bad_arguments(self, args, message, capsys):
        argv = ["gen", "--family", "star", "--n", "5", *args]
        assert run_cli(argv) == 2
        assert message in capsys.readouterr().err

    def test_validate_missing_partition_file(self, path5, tmp_path, capsys):
        assert run_cli(["validate", path5, str(tmp_path / "none.txt")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_validate_good(self, path5, tmp_path, capsys):
        part = tmp_path / "part.txt"
        part.write_text("0 1\n2 3 4\n")
        assert run_cli(["validate", path5, str(part)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_skips_comment_and_blank_lines(self, path5, tmp_path, capsys):
        part = tmp_path / "part.txt"
        part.write_text("c two classes\n0 1\n\n2 3 4\n")
        assert run_cli(["validate", path5, str(part)]) == 0
        assert lines_of(capsys) == ["valid connected 2-partition; class weights [2, 3]"]

    def test_validate_bad(self, path5, tmp_path, capsys):
        part = tmp_path / "part.txt"
        part.write_text("0 2\n1 3 4\n")
        assert run_cli(["validate", path5, str(part)]) == 2
        assert "disconnected" in capsys.readouterr().out

    def test_validate_reports_unknown_ids_beside_overlaps(self, star5, tmp_path, capsys):
        part = tmp_path / "part.txt"
        part.write_text("0 1 99\n0 2\n3\n4\n")
        assert run_cli(["validate", star5, str(part)]) == 2
        assert lines_of(capsys) == [
            "invalid: class 0 has unknown vertices [99]",
            "invalid: class 1 overlaps earlier classes on [0]",
        ]

    def test_validate_rejects_repeated_vertex(self, tmp_path, capsys):
        inst = tmp_path / "p3.bcp"
        inst.write_text(write_instance(path_graph(3)))
        part = tmp_path / "part.txt"
        part.write_text("0 0 1\n2\n")
        assert run_cli(["validate", str(inst), str(part)]) == 2
        assert "line 1:" in capsys.readouterr().err


class TestBench:
    def suite(self, tmp_path):
        plan = {
            "entries": [
                {"family": "star", "n": 5, "k": 3, "algorithm": "minmax-bcpk"},
                {"family": "random-tree", "n": 7, "weights": [1, 9], "seed": 3,
                 "k": 3, "algorithm": "eps-minmax-bcpk", "epsilon": "1/10"},
                {"family": "grid", "n": 6, "k": 2, "algorithm": "exact-maxmin"},
                {"family": "star", "n": 6, "k": 2, "algorithm": "fpt-maxmin"},
                {"family": "random-tree", "n": 6, "weights": [1, 5], "seed": 1,
                 "k": 2, "algorithm": "exact-minmax"},
            ]
        }
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(plan))
        return str(path)

    def test_schema_and_determinism(self, tmp_path, capsys):
        suite = self.suite(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["bench", "--suite", suite, "--out", str(out1)]) == 0
        assert run_cli(["bench", "--suite", suite, "--out", str(out2)]) == 0
        rows1 = list(csv.reader(out1.read_text().splitlines()))
        rows2 = list(csv.reader(out2.read_text().splitlines()))
        assert rows1[0] == [
            "instance_id", "n", "m", "k", "algorithm", "value",
            "bound_kind", "bound", "ratio", "iterations", "cuts", "wall_ms",
        ]
        assert len(rows1) == 6
        drop_time = lambda rows: [row[:-1] for row in rows]
        assert drop_time(rows1) == drop_time(rows2)

    def test_ratio_column(self, tmp_path):
        suite = self.suite(tmp_path)
        out = tmp_path / "r.csv"
        run_cli(["bench", "--suite", suite, "--out", str(out)])
        rows = list(csv.DictReader(out.read_text().splitlines()))
        star = rows[0]
        assert star["algorithm"] == "minmax-bcpk"
        assert star["bound_kind"] == "cut-vertex"
        assert star["ratio"] == "1.000000"

    def test_solver_rows_match_solve(self, tmp_path, capsys):
        """Each row carries what the matching command prints: `solve` for
        the min-max rows, `exact` for the oracle rows and `fpt-maxmin`,
        whose nodes and cuts fill the iterations and cuts columns."""
        suite = self.suite(tmp_path)
        out = tmp_path / "s.csv"
        assert run_cli(["bench", "--suite", suite, "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        entries = json.loads((tmp_path / "suite.json").read_text())["entries"]
        commands = {
            "minmax-bcpk": ["solve"],
            "eps-minmax-bcpk": ["solve"],
            "exact-minmax": ["exact", "--objective", "minmax"],
            "exact-maxmin": ["exact", "--objective", "maxmin"],
            "fpt-maxmin": ["fpt-maxmin"],
        }
        checked = 0
        for entry, row in zip(entries, rows):
            lo, hi = entry.get("weights", [1, 1])
            g = generate(entry["family"], entry["n"], (lo, hi), entry.get("seed", 0))
            inst = tmp_path / f"{row['instance_id']}.bcp"
            inst.write_text(write_instance(g))
            command, *options = commands[entry["algorithm"]]
            argv = [command, str(inst), *options, "--k", str(entry["k"])]
            if "epsilon" in entry:
                argv += ["--epsilon", entry["epsilon"]]
            capsys.readouterr()
            assert run_cli(argv) == 0
            printed = dict(line.split(": ", 1) for line in lines_of(capsys) if ": " in line)
            assert row["value"] == printed["value"]
            if command == "solve":
                bound_key = next(key for key in printed if key.startswith("bound ("))
                assert row["bound_kind"] == bound_key[len("bound ("):-1]
                assert row["bound"] == printed[bound_key]
                assert row["ratio"] == printed["ratio"].split("(")[1].rstrip(")")
                assert (row["iterations"], row["cuts"]) == (printed["iterations"], "0")
            else:
                assert (row["bound_kind"], row["bound"]) == ("oracle", printed["value"])
                assert row["ratio"] == "1.000000"
                expected = ("0", "0")
                if command == "fpt-maxmin":
                    expected = (printed["nodes"], printed["cuts"])
                assert (row["iterations"], row["cuts"]) == expected
            checked += 1
        assert checked == 5

    def test_bad_suite(self, tmp_path, capsys):
        good = {"family": "random-tree", "n": 8, "k": 3, "algorithm": "minmax-bcpk"}
        suites = [
            ({}, "'entries' list"),
            ([good], "'entries' list"),
            ({"entries": [good, {**good, "n": "eight"}]}, "suite entry 1:"),
            ({"entries": [{**good, "k": None}]}, "suite entry 0:"),
            ({"entries": [{**good, "seed": "x"}]}, "suite entry 0:"),
            ({"entries": [{**good, "weights": 5}]}, "suite entry 0:"),
            ({"entries": [{**good, "n": 8.9}]}, "suite entry 0:"),
            ({"entries": [{**good, "n": True}]}, "suite entry 0:"),
            ({"entries": [{**good, "seed": 1.5}]}, "suite entry 0:"),
            ({"entries": [good, {**good, "weights": "19"}]}, "suite entry 1:"),
            ({"entries": [good, "tree"]}, "suite entry 1 must be an object"),
            ({"entries": [{**good, "id": {"a": [1, 2]}}]}, "suite entry 0: id"),
            ({"entries": [{"family": "star", "n": 5, "k": 3}]}, "misses 'algorithm'"),
            ({"entries": [{**good, "algorithm": "magic"}]}, "unknown algorithm 'magic'"),
            ({"entries": [{**good, "family": "blob"}]}, "unknown family 'blob'"),
        ]
        bad = tmp_path / "bad.json"
        for suite, message in suites:
            bad.write_text(json.dumps(suite))
            assert run_cli(["bench", "--suite", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
            assert message in capsys.readouterr().err

    def test_unreadable_suite(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert run_cli(["bench", "--suite", str(tmp_path / "none.json"), "--out", out]) == 2
        assert "cannot read" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{entries")
        assert run_cli(["bench", "--suite", str(bad), "--out", out]) == 2
        assert "suite is not valid JSON" in capsys.readouterr().err
        bad.write_bytes(b'{"entries": [{"family": "star\xff"}]}')
        assert run_cli(["bench", "--suite", str(bad), "--out", out]) == 2
        assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen", "bench", "fpt-maxmin"])
def test_unwritable_output_is_exit_2(command, path4, tmp_path, capsys, monkeypatch):
    """A missing directory or a directory as the output path; bench and
    fpt-maxmin refuse it before they solve."""
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(
        {"entries": [{"family": "star", "n": 5, "k": 3, "algorithm": "minmax-bcpk"}]}
    ))
    monkeypatch.setattr(bcp.cli, "_run", lambda *args, **kwargs: pytest.fail("solved first"))
    for target in (str(tmp_path / "missing" / "out.txt"), str(tmp_path)):
        argv = {
            "gen": ["gen", "--family", "star", "--n", "5", "--out", target],
            "bench": ["bench", "--suite", str(suite), "--out", target],
            "fpt-maxmin": [
                "fpt-maxmin", path4, "--k", "2", "--cover", "1,2", "--dump-model", target,
            ],
        }[command]
        assert run_cli(argv) == 2
        assert f"error: cannot write {target}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "exact", "fpt-maxmin", "bench"])
def test_malformed_budget_rejected_by_every_solving_command(
    command, path5, tmp_path, capsys, monkeypatch
):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(
        {"entries": [{"family": "star", "n": 5, "k": 3, "algorithm": "minmax-bcpk"}]}
    ))
    argv = {
        "solve": ["solve", path5, "--k", "3"],
        "exact": ["exact", path5, "--objective", "minmax", "--k", "3"],
        "fpt-maxmin": ["fpt-maxmin", path5, "--k", "2"],
        "bench": ["bench", "--suite", str(suite), "--out", str(tmp_path / "b.csv")],
    }[command]
    monkeypatch.setenv("BCP_BUDGET_SECONDS", "nan")
    assert run_cli(argv) == 2
    assert "BCP_BUDGET_SECONDS" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["bcp", "bcp.cli"])
def test_python_m_runs_the_cli(module, tmp_path):
    src = Path(bcp.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = tmp_path / "g.bcp"
    proc = subprocess.run(
        [sys.executable, "-m", module, "gen", "--family", "star", "--n", "5", "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert parse_instance(out.read_text()).n == 5


def test_output_pipe_closed_early_is_exit_1_without_traceback(tmp_path):
    """A reader that stops after one line, as `| head -n 1` does: the
    partition of a 20,000-vertex spider at k=400 is over 100 KB, more than
    a pipe holds, so a write meets the closed pipe."""
    src = Path(bcp.__file__).resolve().parent.parent
    instance = tmp_path / "spider.bcp"
    instance.write_text(write_instance(generate("spider", 20000)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bcp", "solve", str(instance), "--k", "400"],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"instance:")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""


def _tree_split_fault(monkeypatch):
    broken = [frozenset({0}), frozenset({1, 2}), frozenset({3, 4})]
    monkeypatch.setattr(bcp.fpt, "split_at_least", lambda g, k, bound: broken)
    return star_graph(5), ["fpt-maxmin", "--k", "3", "--cover", "0"]


def _search_witness_fault(monkeypatch):
    monkeypatch.setattr(bcp.fpt, "separate", lambda dec, class_masks, alloc: [])
    return generate("random-tree", 20, (1, 1), 2), ["fpt-maxmin", "--k", "3"]


def _over_allocation_fault(monkeypatch):
    distribute = bcp.fpt._distribute

    def one_unit_too_many(*args, **kwargs):
        found = distribute(*args, **kwargs)
        if found is not None:
            found[1][0][0] += 1
        return found

    monkeypatch.setattr(bcp.fpt, "_distribute", one_unit_too_many)
    return generate("random-tree", 20, (1, 1), 2), ["fpt-maxmin", "--k", "3"]


def _oracle_search_fault(*found):
    """The exact search on the unit 5-path at k=3 yields only `found`,
    each a (class weights, partition) pair."""

    def fault(monkeypatch):
        monkeypatch.setattr(bcp.oracle, "_search", lambda g, k, max_seconds, window: iter(found))
        return path_graph(5), ["exact", "--objective", "minmax", "--k", "3"]

    return fault


def _min_max_move_fault(monkeypatch):
    monkeypatch.setattr(bcp.minmax, "merge", lambda g, state: state)
    return path_graph(7), ["solve", "--k", "3"]


def _disconnected_pull_fault(monkeypatch):
    # On the 7-star the two light leaves are not adjacent, so the first
    # move is a pull; this one puts two leaves in each light class.
    center, pair, other = frozenset({0}), frozenset({1, 2}), frozenset({5, 6})
    broken = ((pair, 2, center), (other, 2, center), (frozenset({0, 3, 4}), 3, pair | other))
    monkeypatch.setattr(bcp.minmax, "pull", lambda g, state, i: broken)
    return star_graph(7), ["solve", "--k", "3"]


def _stalled_loop_fault(monkeypatch):
    # With no move applied, the starting partition reaches the star
    # certificate, whose light classes touch.
    monkeypatch.setattr(bcp.minmax, "merge", lambda g, state: None)
    monkeypatch.setattr(bcp.minmax, "pull_check", lambda g, state, i: None)
    return generate("spider", 40), ["solve", "--k", "3"]


@pytest.mark.parametrize(
    "fault, message",
    [
        (_tree_split_fault, r"answer is not a connected partition: class 1 \(\[1, 2\]\)"),
        (_search_witness_fault, r"answer is not a connected partition: class 0 "),
        (_min_max_move_fault, r"heaviest class weight did not decrease$"),
        (
            _disconnected_pull_fault,
            r"minmax_bcpk\(\) broke a step's contract: order3\(\) needs a valid "
            r"3-partition: class 0 \(\[1, 2\]\) is disconnected; class 1 ",
        ),
        (
            _stalled_loop_fault,
            r"minmax_bcpk\(\) broke a step's contract: V1 and V2 must not be adjacent$",
        ),
        (
            _over_allocation_fault,
            r"allocation broke reconstruct's contract: "
            r"neighborhood \[1, 4, 11\] distributes \[2, 0, 0\] of 1$",
        ),
        (
            _oracle_search_fault(((2, 1, 2), ({0, 2}, {1}, {3, 4}))),
            r"witness of value 2 is wrong: class 0 \(\[0, 2\]\) is disconnected$",
        ),
        (
            _oracle_search_fault(((1, 1, 1), ({0, 1}, {2}, {3, 4}))),
            r"witness of value 1 is wrong: its class weights' max differs$",
        ),
        (_oracle_search_fault(), r"search found no connected partition$"),
    ],
    ids=[
        "tree-split", "search-witness", "min-max-move", "min-max-pull", "min-max-stall",
        "fpt-allocation", "oracle-witness", "oracle-value", "oracle-none",
    ],
)
def test_solver_fault_is_exit_4_with_one_line(fault, message, tmp_path, capsys, monkeypatch):
    """A broken solver invariant is a bug, not bad input: exit 4 with one
    `internal error:` line on stderr and no partition printed."""
    g, argv = fault(monkeypatch)
    instance = tmp_path / "g.bcp"
    instance.write_text(write_instance(g))
    assert run_cli([argv[0], str(instance), *argv[1:]]) == 4
    out, err = capsys.readouterr()
    assert "partition:" not in out
    [line] = err.splitlines()
    assert re.match("internal error: " + message, line)


_GRID12 = generate("grid", 12, (1, 9), 1)


@pytest.mark.parametrize(
    "solve, g, nodes",
    [
        (lambda g: bcp.minmax.minmax_bcpk(g, 3), _GRID12, None),
        (lambda g: bcp.scaling.eps_minmax_bcpk(g, 3, Fraction(1, 4)), _GRID12, None),
        (lambda g: bcp.oracle.exact_minmax(g, 3), _GRID12, None),
        (lambda g: bcp.oracle.exact_maxmin(g, 3), _GRID12, None),
        (lambda g: bcp.fpt.solve_fpt_maxmin(g, 3), generate("grid", 12, (1, 1), 1), 0),
        (lambda g: bcp.fpt.solve_fpt_maxmin(g, 3), generate("random-tree", 16, (1, 1), 0), 537),
    ],
    ids=["minmax", "eps-minmax", "exact-minmax", "exact-maxmin", "fpt-split", "fpt-search"],
)
def test_a_returning_solve_leaves_no_reference_cycle(solve, g, nodes):
    """A solve that returns leaves nothing for the cycle collector: its
    search state and the graph are freed as soon as it is done."""
    gc.collect()
    gc.disable()
    try:
        result = solve(g)
        assert gc.collect() == 0
    finally:
        gc.enable()
    if nodes is not None:
        assert result.nodes == nodes


def test_no_command_is_exit_2():
    assert run_cli([]) == 2


_EXPONENTS = st.builds(
    "{}{}{}".format,
    st.sampled_from(["1", "2.5", "-1", "1/2", ""]),
    st.sampled_from(["e", "E"]),
    st.one_of(st.integers(-5, 5), st.integers(-(10**7), 10**7)),
)
_TOKENS = st.one_of(
    st.sampled_from(
        ["0", "1", "2", "3", "5", "-1", "12", "1/2", "1/0", "2.5", "007", "bcp", "x", ""]
    ),
    _EXPONENTS,
)
_LINES = st.one_of(
    st.builds(
        lambda kind, rest: " ".join([kind, *rest]),
        st.sampled_from(["p bcp", "p", "v", "e", "c", "q"]),
        st.lists(_TOKENS, max_size=3),
    ),
    st.text(max_size=10),
)


@st.composite
def instance_texts(draw):
    """A valid instance's text with a few lines deleted or inserted."""
    lines = write_instance(draw(connected_graphs(min_n=1, max_n=7))).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        if at < len(lines) and draw(st.booleans()):
            del lines[at]
        else:
            lines.insert(at, draw(_LINES))
    return "\n".join(lines)


def _or_raw_bytes(texts):
    """The texts' UTF-8 encodings, or raw bytes, mostly not valid UTF-8."""
    return st.one_of(texts.map(str.encode), st.binary(max_size=40))


@given(
    _or_raw_bytes(instance_texts()),
    _or_raw_bytes(
        st.lists(st.lists(_TOKENS, max_size=4).map(" ".join), max_size=5).map("\n".join)
    ),
)
@example(b"p bcp 1 0\nv 0 \xff\n", b"0\n")
@example(b"p bcp 1 0\nv 0 1\n", b"0\xff\n")
@settings(max_examples=60, deadline=None)
def test_fuzzed_files_exit_0_or_2(instance, partition):
    with tempfile.TemporaryDirectory() as tmp:
        inst, part = Path(tmp, "g.bcp"), Path(tmp, "p.txt")
        inst.write_bytes(instance)
        part.write_bytes(partition)
        assert run_cli(["solve", str(inst), "--k", "3"]) in (0, 2)
        assert run_cli(["validate", str(inst), str(part)]) in (0, 2)


_HUGE = st.sampled_from(["1e5000", "1e-100000", "1e999", "1e-999", "3e-1000", "9" * 1001])


@given(st.one_of(_TOKENS, _HUGE), st.one_of(_TOKENS, _HUGE))
@settings(max_examples=60, deadline=None)
def test_fuzzed_weight_and_epsilon_exit_0_or_2(weight, epsilon):
    with tempfile.TemporaryDirectory() as tmp:
        inst = Path(tmp, "g.bcp")
        inst.write_text(f"p bcp 4 3\nv 0 {weight}\nv 1 1\nv 2 3\nv 3 1\ne 0 1\ne 1 2\ne 2 3\n")
        assert run_cli(["solve", str(inst), "--k", "3"]) in (0, 2)
        assert run_cli(["solve", str(inst), "--k", "3", "--epsilon", epsilon]) in (0, 2)
