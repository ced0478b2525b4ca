"""Seeded benchmark of the `bcp` command line, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload minmax-moves --seed 1 --seconds 20 --trace 0

One client in one process runs a closed loop: each job is a `bcp.cli.run_cli`
call on an instance file written at set-up, with stdout captured, and the
next job starts when it returns.  The timed phase repeats whole rounds of
the workload's jobs until it has run for `--seconds` and has at least 100
correct solves, so the 90th percentile has ten samples beyond it.  Every
output is checked outside the timers (see checks.py).  A solve fails on a
nonzero exit code (3: BCP_BUDGET_SECONDS exceeded), a hard stop by SIGALRM
one second after the budget, or a failed check.

`setup_s` is the median of seven set-ups, each in a fresh interpreter: this
process's own, and six children that only set up.

On a shared 2-vCPU Xeon VM the CPU's speed drifts by 20-50 % within seconds
to minutes, for every program alike: a fixed loop took 8 ms in some spells
and 13 ms in others, and bcp's solve times moved with it.  So a fixed
pure-Python loop (`calibrate`) runs between solves and around the set-ups,
and the end-to-end times are scaled by CALIBRATION_REFERENCE_S / its
duration: they read as on a machine on which the loop takes that long.  On
that VM this cut the quartile spread of the time metrics over ten seeds from
up to 0.24 of the median to at most 0.054 (STEADINESS.md).  The unscaled
figures and the loop's median duration go to the result file.

`--trace 1` runs untraced and traced rounds in turn, twice, and reports
per-layer metrics from the spans of the traced rounds (see tracing.py)
instead of end-to-end ones.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A fuller record, with the output digest, goes to
perfbench/out/<workload>/result-seed<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HARD_STOP_AFTER_BUDGET_S = 1.0  # SIGALRM stops a solve that ignores its budget
MIN_SOLVES = 100
PHASE_LIMIT_S = 120  # start no round past this, so a run ends in time
SETUP_SAMPLES = 7
CALIBRATION_REFERENCE_S = 0.0035  # calibrate() in the slower spells of the VM above


class HardStop(BaseException):
    """Raised by the SIGALRM handler; a BaseException so that no handler in
    `bcp` swallows it."""


def _hard_stop(signum, frame):
    raise HardStop()


@dataclass
class Record:
    job: workloads.Job
    seconds: float
    status: str  # ok, budget, hard-stop, exit-<code>, check-failed
    digest: str | None = None
    ratio: Fraction | None = None
    spans: tuple[int, int] = (0, 0)
    scale: float = 1.0  # machine-speed factor, see calibrate()

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def stopped(self) -> bool:
        return self.status in ("budget", "hard-stop")


def calibrate() -> float:
    """Seconds taken by a fixed loop of dict, set and sort work."""
    start = time.perf_counter()
    table = {}
    seen = set()
    for i in range(15000):
        table[i] = i * 7 % 1000
        seen.add(table[i])
    sorted(table.values())
    return time.perf_counter() - start


class Runner:
    """Runs jobs through `bcp.cli.run_cli` and checks each distinct output."""

    def __init__(self, paths: dict[str, str], budget_s: float,
                 tracer: tracing.Tracer | None = None):
        self.paths = paths
        self.budget_s = budget_s
        self.tracer = tracer
        self.verdicts: dict[tuple[str, str], tuple[list[str], Fraction | None]] = {}
        self.first_digest: dict[str, str] = {}
        self.problems: list[str] = []

    def run(self, job: workloads.Job) -> Record:
        import bcp.cli

        argv = job.argv(self.paths[job.instance.name])
        tracer = self.tracer
        lo = len(tracer) if tracer is not None else 0
        if tracer is not None:
            tracer.counter.clear()
            tracer.active = True
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, _ = io.StringIO(), io.StringIO()
        signal.setitimer(signal.ITIMER_REAL, self.budget_s + HARD_STOP_AFTER_BUDGET_S)
        start = time.perf_counter()
        try:
            code = bcp.cli.run_cli(argv)
        except HardStop:
            code = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - start
            sys.stdout, sys.stderr = saved
        status = {None: "hard-stop", 0: "ok", 3: "budget"}.get(code, f"exit-{code}")
        rec = Record(job, seconds, status)
        if tracer is not None:
            tracer.active = False
            if code is None:
                tracer.recover(start + seconds)
            rec.spans = (lo, len(tracer))
            if not rec.stopped:
                tracer.totals.update(tracer.counter)
        if rec.ok:
            self._check(rec, out.getvalue())
        return rec

    def _check(self, rec: Record, text: str) -> None:
        norm = checks.normalized(text)
        rec.digest = checks.digest(norm)
        key = (rec.job.id, rec.digest)
        if key not in self.verdicts:
            first = self.first_digest.setdefault(rec.job.id, rec.digest)
            report = checks.parse_report(norm)
            problems = checks.check(rec.job, report)
            if first != rec.digest:
                problems.append(f"output differs from the first solve ({first})")
            self.verdicts[key] = problems, report.ratio
            self.problems += [f"{rec.job.id}: {p}" for p in problems]
        problems, rec.ratio = self.verdicts[key]
        if problems:
            rec.status = "check-failed"


def set_up(workload: str, seed: int, inst_dir: Path):
    """Import `bcp`, build the round and write its instance files; returns
    the jobs, their files and the time taken."""
    shutil.rmtree(inst_dir, ignore_errors=True)
    inst_dir.mkdir(parents=True)
    start = time.perf_counter()
    import bcp.cli  # noqa: F401
    from bcp.instances import write_instance

    jobs = workloads.build(workload, seed)
    paths = {}
    for job in jobs:
        name = job.instance.name
        if name not in paths:
            paths[name] = str(inst_dir / f"{name}.txt")
            Path(paths[name]).write_text(write_instance(job.instance.graph))
    return jobs, paths, time.perf_counter() - start


def setup_samples(workload: str, seed: int, out_dir: Path, count: int,
                  calibration: list[float]) -> list[float]:
    """Set-up times of `count` child interpreters that only set up; each
    child is followed by three calibration loops."""
    samples = []
    for idx in range(count):
        inst_dir = out_dir / f"setup-{idx}"
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
             "--seconds", "0", "--setup-only", str(inst_dir)],
            capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(child.stdout.split()[-1]))
        shutil.rmtree(inst_dir)
        calibration += [calibrate() for _ in range(3)]
    return samples


def timed_phase(runner: Runner, jobs, seconds: float,
                calibration: list[float]) -> tuple[list[Record], int]:
    """Whole rounds until the solves took `seconds` and MIN_SOLVES were
    correct, or no round may start any more; the wall time is the sum of the
    solve times, checks excluded.  A calibration loop runs between solves,
    and each solve that no timer stopped is scaled by the mean of the loops
    before and after it: a stopped solve's time is set by the timer."""
    records: list[Record] = []
    start = time.monotonic()
    rounds = 0
    while time.monotonic() - start < PHASE_LIMIT_S:
        before = calibrate()
        calibration.append(before)
        for job in jobs:
            rec = runner.run(job)
            after = calibrate()
            calibration.append(after)
            if not rec.stopped:
                rec.scale = 2 * CALIBRATION_REFERENCE_S / (before + after)
            before = after
            records.append(rec)
        rounds += 1
        correct = sum(r.ok for r in records)
        if sum(r.seconds for r in records) >= seconds and correct >= MIN_SOLVES:
            break
    if correct < MIN_SOLVES:
        runner.problems.append(f"timed phase cut at {PHASE_LIMIT_S} s after {rounds} rounds "
                               f"with {correct} correct solves")
    return records, rounds


def round_digest(records: list[Record], jobs) -> tuple[str, dict[str, str]]:
    """Digest over the jobs of a round of each one's first normalized output
    (or its failure)."""
    per_job = {}
    for rec in records:
        per_job.setdefault(rec.job.id, rec.digest if rec.ok else "failed")
    lines = [f"{job.id} {per_job[job.id]}" for job in jobs]
    return checks.digest("\n".join(lines)), per_job


def end_to_end(records: list[Record], setup_s: float, scaled: bool = True) -> dict[str, float]:
    """Times are scaled to the reference speed unless `scaled` is false."""
    seconds = [r.seconds * r.scale if scaled else r.seconds for r in records]
    ms = [1000 * t for t, r in zip(seconds, records) if r.ok]
    # exact and fpt-maxmin print no ratio: their figure is a fixed 1.
    ratios = [r.ratio for r in records if r.ok and r.ratio is not None]
    return {
        "setup_s": setup_s,
        "solves_per_s": len(ms) / sum(seconds),
        "solve_ms_p50": statistics.median(ms) if ms else 0.0,
        "solve_ms_p90": statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else 0.0,
        "success_ratio": len(ms) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "approx_ratio_mean": float(sum(ratios) / len(ratios)) if ratios else 1.0,
    }


def failure_counts(records: list[Record], budget_s: float) -> dict[str, float]:
    fpt = [r for r in records if r.job.command == "fpt-maxmin"]
    overshoot = [r.seconds - budget_s for r in records if r.status == "budget"]
    return {
        "fpt.budget_exceeded": sum(r.status == "budget" for r in fpt),
        "fpt.hard_stopped": sum(r.status == "hard-stop" for r in fpt),
        "fpt.budget_overshoot_max_ms": max(overshoot, default=0.0) * 1000,
    }


def layer_metrics(tracer: tracing.Tracer, records: list[Record]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced round, and the counts among them.

    Calls and counters come from solves that ran to the end, so they repeat
    exactly; self time also covers stopped solves.
    """
    own = tracer.self_times()
    counted = bytearray(len(tracer))
    for rec in records:
        if not rec.stopped:
            counted[rec.spans[0]:rec.spans[1]] = b"\x01" * (rec.spans[1] - rec.spans[0])
    calls = [0] * len(tracer.names)
    self_s = [0.0] * len(tracer.names)
    for idx, nid in enumerate(tracer.name):
        self_s[nid] += own[idx]
        calls[nid] += counted[idx]
    counter = tracer.totals
    calls[tracer.names.index(tracing.ENUMERATE)] = counter[tracing.ENUMERATE + ".calls"]
    counts = {f"{name}.calls": calls[i] for i, name in enumerate(tracer.names)}
    counts.update({
        "minmax.iterations": counter["minmax.iterations"],
        "oracle.enumerate.yielded": counter["oracle.enumerate.yielded"],
        "fpt.nodes": counter["fpt.nodes"],
        "fpt.cuts": counter["fpt.cuts"],
    })

    def share(hits: str, name: str) -> float:
        n = calls[tracer.names.index(name)]
        return counter[hits] / n if n else 0.0

    metrics = dict(counts)
    metrics.update({f"{name}.self_ms": self_s[i] * 1000 for i, name in enumerate(tracer.names)})
    metrics["minmax.pull_check.hit_ratio"] = share("minmax.pull_check.hits", "minmax.pull_check")
    metrics["fpt.separate.connected_ratio"] = share("fpt.separate.connected", "fpt.separate")
    metrics["fpt._max_flow.feasible_ratio"] = share("fpt._max_flow.feasible", "fpt._max_flow")
    # Self times partition the root spans; the rest of the measured solve
    # time is the client's own work around run_cli.
    metrics["trace.self_coverage"] = sum(own) / sum(r.seconds for r in records)
    return metrics, counts


def traced_run(paths: dict[str, str], jobs, budget_s: float, spans_path: Path):
    """Untraced and traced rounds in turn, twice; the two traced rounds'
    counts must agree."""
    tracer = tracing.Tracer()
    runner = Runner(paths, budget_s, tracer)
    untraced, traced = [], []
    for attempt in range(2):
        untraced.append([runner.run(job) for job in jobs])
        tracer.clear()
        tracer.install()
        try:
            batch = [runner.run(job) for job in jobs]
        finally:
            tracer.uninstall()
        traced.append((batch, *layer_metrics(tracer, batch)))
        if attempt == 0:
            tracer.write(spans_path)
    (batch, layer, counts), (batch2, _, counts2) = traced
    # Stopped solves take a fixed time, so the overhead is measured over the
    # solves that ran to the end in all four rounds.
    rounds = [untraced[0], batch, untraced[1], batch2]
    done = [all(not r[i].stopped for r in rounds) for i in range(len(jobs))]
    wall_ms = [sum(r.seconds for r, ok in zip(rnd, done) if ok) * 1000 for rnd in rounds]
    layer["trace.untraced_wall_ms"] = wall_ms[0] + wall_ms[2]
    layer["trace.traced_wall_ms"] = wall_ms[1] + wall_ms[3]
    layer["trace.overhead_ratio"] = layer["trace.traced_wall_ms"] / layer["trace.untraced_wall_ms"]
    layer.update(failure_counts(batch, budget_s))
    differing = sorted(k for k in counts if counts[k] != counts2[k])
    if differing:
        runner.problems.append(f"per-layer counts differ between traced rounds: {differing}")
    if not 0.97 <= layer["trace.self_coverage"] <= 1 + 1e-9:
        runner.problems.append(f"self times cover {layer['trace.self_coverage']:.6f} of the traced wall")
    return runner, [r for rnd in rounds for r in rnd], layer


def _input_sizes(jobs) -> dict:
    graphs = list({job.instance.name: job.instance.graph for job in jobs}.values())
    return {
        "jobs_per_round": len(jobs),
        "instances": len(graphs),
        "n_range": [min(g.n for g in graphs), max(g.n for g in graphs)],
        "m_range": [min(g.m for g in graphs), max(g.m for g in graphs)],
        "weight_range": [min(min(g.weights) for g in graphs), max(max(g.weights) for g in graphs)],
        "k_range": [min(j.k for j in jobs), max(j.k for j in jobs)],
        "commands": sorted({j.command + (" --epsilon" if j.epsilon else "") for j in jobs}),
    }


def _job_ms(records: list[Record]) -> dict[str, float]:
    times: dict[str, list[float]] = {}
    for rec in records:
        times.setdefault(rec.job.id, []).append(rec.seconds * 1000)
    return {job: round(statistics.median(ms), 3) for job, ms in times.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "bcp" / "__init__.py").is_file():
        print(f"perfbench: {src}/bcp not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.chdir(ROOT)
    budget_s = workloads.BUDGET_S[args.workload]
    os.environ["BCP_BUDGET_SECONDS"] = str(budget_s)
    signal.signal(signal.SIGALRM, _hard_stop)
    out_dir = Path("perfbench") / "out" / args.workload
    if args.setup_only:
        print(set_up(args.workload, args.seed, Path(args.setup_only))[2])
        return 0

    calibration = [calibrate() for _ in range(3)]
    jobs, paths, own_setup_s = set_up(args.workload, args.seed, out_dir / "instances")
    calibration += [calibrate() for _ in range(3)]
    setups = [own_setup_s] + setup_samples(
        args.workload, args.seed, out_dir, SETUP_SAMPLES - 1, calibration)
    raw_setup_s = statistics.median(setups)
    setup_scale = CALIBRATION_REFERENCE_S / statistics.median(calibration)
    import bcp

    if Path(bcp.__file__).resolve().parent != (src / "bcp").resolve():
        print(f"perfbench: imported bcp from {bcp.__file__}, not {src}", file=sys.stderr)
        return 2

    spec = json.loads(Path("BENCHMARK.json").read_text())
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "budget_s": budget_s, "hard_stop_s": budget_s + HARD_STOP_AFTER_BUDGET_S,
        "inputs": _input_sizes(jobs),
        "setup_samples_s": setups,
    }
    if args.trace:
        runner, records, metrics = traced_run(
            paths, jobs, budget_s, out_dir / f"spans-seed{args.seed}.tsv")
    else:
        runner = Runner(paths, budget_s)
        timed_calibration: list[float] = []
        records, rounds = timed_phase(runner, jobs, args.seconds, timed_calibration)
        metrics = end_to_end(records, raw_setup_s * setup_scale)
        result["unscaled"] = end_to_end(records, raw_setup_s, scaled=False)
        result["calibration_ms_median"] = {
            "reference": CALIBRATION_REFERENCE_S * 1000,
            "setup": statistics.median(calibration) * 1000,
            "timed": statistics.median(timed_calibration) * 1000,
        }
        result["rounds"] = rounds
        result["fail_ratio"] = 1 - metrics["success_ratio"]
        result["correct_solves"] = sum(r.ok for r in records)
        result["failures"] = failure_counts(records, budget_s)

    digest, per_job = round_digest(records, jobs)
    failed = sum(not r.ok for r in records)
    correct = not runner.problems
    statuses = dict(Counter(r.status for r in records))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result.update({
        "attempted": len(records), "failed": failed, "correct": correct,
        "statuses": statuses, "problems": runner.problems[:50],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "digest": digest, "job_digests": per_job, "job_ms_median": _job_ms(records),
    })
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")

    for problem in runner.problems[:20]:
        print(f"CHECK FAILED {problem}")
    print(f"workload {args.workload}, seed {args.seed}: {len(records)} solves, {failed} failed "
          f"{statuses}, {sum(r.ok for r in records)} correct samples; digest {digest}")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
