"""Benchmark for srrealize: seeded workloads through check, construct, verify.

Run from the root of a checkout:

    python3 bench/run.py --workload small --seed 3 --seconds 30 --trace 0

The package is imported from `src/` of the same checkout and driven
in-process through `srrealize.cli.main`, one complex at a time in a closed
loop from a single thread: `check`, then, when the verdict carries a
partition, `construct -o <file>` and `verify --diagram <file>`.  Inputs come
from `workloads.py` as JSON text on stdin.  The loop runs whole rounds until
`--seconds` of loop time have passed; loop time is the sum, over complexes,
of the interval from the start of `check` to the end of the last command.
Output checks run after each complex, outside that interval.

`--trace 0` prints the end-to-end metrics.  `--trace 1` takes the first
TRACE_ROUNDS rounds of the workload (a fixed set, so counts repeat exactly
for a seed, and `--seconds` is not used), runs each complex untraced and
under the tracer of `tracer.py`, and prints the per-layer metrics and the
tracing overhead; its spans are written to `.bench_work/spans/`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The lines before it give the same
numbers for reading, with the tail percentile and the sample counts.

`--record-digests` rewrites `digests.json`: the exit code and output bytes of
every operation in the first round of each workload at the digest seed.  A
run at that seed compares against it.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType

from tracer import Tracer
from workloads import NO_PARTITION, PARTITION, REALIZABLE, WORKLOADS, Case, rounds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
DIGEST_SEED = 1
SETUP_RUNS = 11
TRACE_ROUNDS = 2
WALL_LIMIT_FACTOR = 4  # stop mid-round once wall time passes this many --seconds
TAIL_SAMPLES = 10  # the tail percentile keeps at least this many samples beyond it
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)

README_EXAMPLE = json.dumps({
    "vertices": [
        {"id": "x4", "degree": 4},
        {"id": "x6", "degree": 6},
        {"id": "x8", "degree": 8},
    ],
    "facets": [["x4", "x6"], ["x4", "x8"]],
})

VERDICT_EXIT = {
    "Realizable": 0, "SufficientOnly": 10, "NotRealizable": 20,
    "Unknown": 30, "HypothesisViolated": 40,
}

SETUP_CODE = (
    "import io, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from srrealize.cli import main\n"
    "sys.stdin = io.StringIO(sys.argv[2])\n"
    "sys.exit(main(['check']))\n"
)

END_TO_END_UNITS = {
    "check_p50_s": "s", "check_tail_s": "s",
    "construct_p50_s": "s", "construct_tail_s": "s",
    "verify_p50_s": "s", "verify_tail_s": "s",
    "throughput_cps": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
}
OPS = ("check", "construct", "verify")


def load_cli() -> ModuleType:
    """Import srrealize.cli from this checkout's sources, never from
    anywhere else on the path."""
    if not (SRC / "srrealize" / "cli.py").is_file():
        raise SystemExit(f"error: no srrealize sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import srrealize.cli

    if Path(srrealize.cli.__file__).resolve().parent != SRC / "srrealize":
        raise SystemExit(f"error: srrealize imported from {srrealize.cli.__file__}")
    return srrealize.cli


@dataclass
class OpResult:
    op: str
    code: int | None
    stdout: str
    seconds: float
    error: str = ""


@dataclass
class Tally:
    latencies: dict[str, list[float]] = field(
        default_factory=lambda: {op: [] for op in OPS}
    )
    attempted: int = 0
    failed: int = 0
    complexes: int = 0
    loop_s: float = 0.0
    failures: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)


class CliRunner:
    """Runs CLI operations in-process and checks what they print."""

    def __init__(self, cli: ModuleType, workdir: Path,
                 digests: list[list[str | None]] | None) -> None:
        self.cli = cli  # main is looked up per call, so the tracer can wrap it
        self.diagram = workdir / "diagram.json"
        self.digests = digests

    def call(self, argv: list[str], text: str) -> OpResult:
        out, err = io.StringIO(), io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = self.cli.main(argv)
                except SystemExit as e:
                    code = e.code if isinstance(e.code, int) else 1
                # a crash is a failed operation, not the end of the run
                except Exception as e:
                    end = time.perf_counter()
                    return OpResult(argv[0], None, out.getvalue(), end - start, repr(e))
                end = time.perf_counter()
        finally:
            sys.stdin = stdin
        return OpResult(argv[0], code, out.getvalue(), end - start)

    def run_case(self, case: Case) -> tuple[list[OpResult], float, bytes]:
        """check, then construct and verify when the verdict carries a
        partition.  Returns the results, the loop time and the diagram."""
        self.diagram.unlink(missing_ok=True)
        start = time.perf_counter()
        results = [self.call(["check"], case.text)]
        if results[0].code in (0, 10):
            results.append(self.call(["construct", "-o", str(self.diagram)], case.text))
            results.append(self.call(["verify", "--diagram", str(self.diagram)], case.text))
        busy = time.perf_counter() - start
        diagram = self.diagram.read_bytes() if self.diagram.exists() else b""
        return results, busy, diagram

    def problems(self, case: Case, results: list[OpResult], diagram: bytes,
                 index: int | None) -> list[str | None]:
        """One entry per operation: None when its output is right, else why."""
        found = [f"{r.op} raised {r.error}" if r.code is None else None for r in results]
        if found[0] is None:
            found[0] = check_verdict(case, results[0])
        if len(results) == 3:
            construct, verify = results[1], results[2]
            wrote = construct.code == 0 and not construct.stdout and diagram
            if found[1] is None and not wrote:
                found[1] = f"construct exit {construct.code}, no diagram written"
            if found[2] is None:
                found[2] = check_report(verify)
        if self.digests is not None and index is not None and index < len(self.digests):
            if digest_ops(results, diagram) != self.digests[index]:
                found[-1] = found[-1] or "output differs from the recorded digest"
        return found


def check_verdict(case: Case, r: OpResult) -> str | None:
    try:
        verdict = json.loads(r.stdout)
        name = verdict["verdict"]
    except (ValueError, KeyError, TypeError):
        return f"check printed no verdict (exit {r.code})"
    if VERDICT_EXIT.get(name) != r.code:
        return f"check exit {r.code} does not match verdict {name}"
    if ("partition" in verdict) != (r.code in (0, 10)):
        return f"verdict {name} and its partition disagree"
    expected = {
        REALIZABLE: name == "Realizable",
        PARTITION: "partition" in verdict,
        NO_PARTITION: "partition" not in verdict,
        None: True,
    }[case.expect]
    return None if expected else f"verdict {name}, expected {case.expect}"


def check_report(r: OpResult) -> str | None:
    try:
        passed = json.loads(r.stdout)["passed"]
    except (ValueError, KeyError, TypeError):
        return f"verify printed no report (exit {r.code})"
    return None if r.code == 0 and passed is True else f"verify failed (exit {r.code})"


def digest_ops(results: list[OpResult], diagram: bytes) -> list[str | None]:
    out: list[str | None] = []
    for r in results:
        h = hashlib.sha256(f"{r.code}\n".encode() + r.stdout.encode())
        if r.op == "construct":
            h.update(diagram)
        out.append(h.hexdigest()[:16])
    return out + [None] * (len(OPS) - len(out))


def run_cases(runner: CliRunner, cases: list[Case], tally: Tally,
              first_index: int, deadline: float) -> bool:
    """Run and check each case; False when the wall-clock deadline cut the
    list short."""
    for i, case in enumerate(cases):
        if time.perf_counter() > deadline:
            return False
        results, busy, diagram = runner.run_case(case)
        tally.complexes += 1
        tally.loop_s += busy
        problems = runner.problems(case, results, diagram, first_index + i)
        for r, problem in zip(results, problems):
            tally.attempted += 1
            tally.latencies[r.op].append(r.seconds)
            if problem:
                tally.fail(problem)
    return True


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_percentile(preferred: float, counts: list[int]) -> float:
    """The preferred percentile, or the next lower one on the ladder that
    leaves at least TAIL_SAMPLES samples beyond it for every operation."""
    n = min(counts)
    for pct in TAIL_LADDER:
        if pct <= preferred and n - math.ceil(pct / 100 * n) >= TAIL_SAMPLES:
            return pct
    return 50.0


def measure_setup(tally: Tally, expected: str) -> float:
    """Median wall time of a fresh interpreter importing srrealize.cli and
    running `check` on the README example."""
    times = []
    for k in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), README_EXAMPLE],
            capture_output=True, text=True, cwd=ROOT, timeout=60,
        )
        elapsed = time.perf_counter() - start
        tally.attempted += 1
        if proc.returncode != 0 or proc.stdout != expected:
            tally.fail(f"set-up check exit {proc.returncode}: {proc.stderr[-200:]}")
        if k:  # the first run may compile bytecode; it is not timed
            times.append(elapsed)
    return statistics.median(times)


def load_digests(workload: str, seed: int) -> list[list[str | None]] | None:
    if seed != DIGEST_SEED:
        return None
    return json.loads(DIGESTS.read_text())["workloads"][workload]


def record_digests(cli: ModuleType, workdir: Path) -> None:
    runner = CliRunner(cli, workdir, None)
    table = {}
    for name in WORKLOADS:
        cases = next(rounds(name, DIGEST_SEED))
        rows = []
        for case in cases:
            results, _, diagram = runner.run_case(case)
            bad = [p for p in runner.problems(case, results, diagram, None) if p]
            if bad:
                raise SystemExit(f"error: {name} output check failed: {bad[0]}")
            rows.append(digest_ops(results, diagram))
        table[name] = rows
    DIGESTS.write_text(json.dumps(
        {"seed": DIGEST_SEED, "workloads": table}, indent=1) + "\n")


def end_to_end(args: argparse.Namespace, runner: CliRunner, tally: Tally,
               readme_check: str) -> dict[str, float]:
    setup_s = measure_setup(tally, readme_check)
    started = time.perf_counter()
    deadline = started + WALL_LIMIT_FACTOR * args.seconds
    gen = rounds(args.workload, args.seed)
    index = 0
    nrounds = 0
    while tally.loop_s < args.seconds:
        cases = next(gen)
        if not run_cases(runner, cases, tally, index, deadline):
            print(f"# wall-clock limit reached inside round {nrounds + 1}")
            break
        index += len(cases)
        nrounds += 1
    lat = tally.latencies
    pct = tail_percentile(WORKLOADS[args.workload].tail_pct, [len(lat[op]) for op in OPS])
    print(f"# workload {args.workload} seed {args.seed}: {nrounds} rounds, "
          f"{tally.complexes} complexes, loop {tally.loop_s:.3f} s, "
          f"wall {time.perf_counter() - started:.3f} s")
    print(f"# tail percentile p{pct:g}; samples " + ", ".join(
        f"{op} {len(lat[op])}" for op in OPS))
    metrics: dict[str, float] = {}
    for op in OPS:
        metrics[f"{op}_p50_s"] = percentile(lat[op], 50)
        metrics[f"{op}_tail_s"] = percentile(lat[op], pct)
    metrics["throughput_cps"] = tally.complexes / tally.loop_s
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def traced(args: argparse.Namespace, runner: CliRunner,
           tally: Tally) -> dict[str, tuple[float, str]]:
    """Run each case of the first rounds untraced and traced, in turn and
    in alternating order, so that drift in machine speed cancels out of the
    overhead."""
    gen = rounds(args.workload, args.seed)
    cases = [c for _ in range(TRACE_ROUNDS) for c in next(gen)]
    tracer = Tracer()
    loop_s = {False: 0.0, True: 0.0}
    for i, case in enumerate(cases):
        for on in (False, True) if i % 2 == 0 else (True, False):
            before = tally.loop_s
            with tracer.installed() if on else contextlib.nullcontext():
                run_cases(runner, [case], tally, i, math.inf)
            loop_s[on] += tally.loop_s - before
    spans = WORK / "spans" / f"{args.workload}-seed{args.seed}.tsv"
    tracer.write(spans)
    print(f"# workload {args.workload} seed {args.seed}: {len(cases)} complexes, "
          f"untraced {loop_s[False]:.3f} s, traced {loop_s[True]:.3f} s, "
          f"{len(tracer.spans)} spans in {spans.relative_to(ROOT)}")
    if tracer.missing:
        print("# missing (renamed or removed): " + ", ".join(tracer.missing))
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (loop_s[True] / loop_s[False] - 1, "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="small")
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    cli = load_cli()
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.record_digests:
            record_digests(cli, workdir)
            return 0
        runner = CliRunner(cli, workdir, load_digests(args.workload, args.seed))
        tally = Tally()
        warm = runner.call(["check"], README_EXAMPLE)
        tally.attempted += 1
        problem = check_verdict(Case(README_EXAMPLE, REALIZABLE), warm)
        if problem:
            tally.fail(f"warm-up {problem}")
        if args.trace:
            values = traced(args, runner, tally)
        else:
            values = {
                k: (v, END_TO_END_UNITS[k])
                for k, v in end_to_end(args, runner, tally, warm.stdout).items()
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in values.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# error_rate = {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for what in tally.failures:
        print(f"# failed: {what}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
