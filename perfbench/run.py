"""Benchmark of nervelim: end-to-end and per-layer figures of three workloads.

    python3 perfbench/run.py --workload presets-check --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  A run has two phases:

* set-up, timed ``SETUP_REPEATS`` times: a fresh interpreter imports
  nervelim and generates the workload's seeded inputs;
* a closed loop: one client runs the workload's operations one after
  another, one ``nervelim`` process each, with no threads.  It passes over
  the whole list at least once, and starts another pass only while one as
  long as the longest so far still ends within ``--seconds``.

Every operation's output is checked by its gate, and after the last pass
one operation is repeated with the same seed to check that its output
directory is byte-identical.

Operation times are given in calibration units ("cal").  The client and
every operation run on one CPU.  Between any two operations the client
times a fixed pure-Python loop there (``calibrate``), and each operation's
wall and CPU time is divided by the mean of the loop's wall and CPU time
just before and just after it.  The speed a CPU of a shared machine gives
drifts by a fifth and more over minutes; the ratio follows the work, not
the drift.  A change to nervelim moves the ratio as it moves the seconds,
since the loop runs none of its code.  Work that nervelim ran in parallel
would gain no wall time here, as everything shares the one CPU.  Set-up
time is calibrated the same way and reported in reference seconds: its
calibration units times ``CALIBRATION_REFERENCE_S``, the loop's time on a
quiet CPU of the machine the benchmark was written on.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics: the time of one pass is the sum of each operation's
median over the passes, so that a slow spell during a few passes does not
move it either.  With ``--trace 1`` the operations run with spans around
each layer's functions, and the line holds the per-layer metrics instead,
as medians over the passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layertrace import LAYERS, MAX_COUNTS, derive  # noqa: E402
from workloads import WORKLOADS, Op, Workload  # noqa: E402

SETUP_REPEATS = 11
# every operation must have ended this long after the run started
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "wall_cal": "cal",
    "setup_s": "s",
    "cpu_cal": "cal",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "ground.load_s": "s",
    "ground.partition_tables_s": "s",
    "ground.checks_s": "s",
    "complexes.build_vertices_s": "s",
    "complexes.tuples_scanned": "count",
    "complexes.vertices": "count",
    "complexes.vertex_yield": "ratio",
    "complexes.build_flag_s": "s",
    "complexes.build_nerve_s": "s",
    "complexes.simplices": "count",
    "complexes.max_fiber": "count",
    "complexes.verify_s": "s",
    "complexes.verify_images": "count",
    "complexes.serialize_s": "s",
    "report.dump_json_s": "s",
    "report.bytes_written": "bytes",
    "systems.build_system_s": "s",
    "systems.build_system_self_s": "s",
    "systems.check_homotopy_s": "s",
    "systems.canonical_map_s": "s",
    "systems.canonical_map_calls": "count",
    "systems.homotopy_accept_ratio": "ratio",
    "systems.structural_checks_s": "s",
    "cells.cauchy_sweep_s": "s",
    "cells.converge_s": "s",
    "cells.net_candidates": "count",
    "cells.nets_kept": "count",
    "cells.net_accept_ratio": "ratio",
    "cells.build_graph_system_s": "s",
    "cells.quotient_s": "s",
    "cells.equivalence_classes_calls": "count",
    "homology.betti_s": "s",
    "homology.boundary_matrix_s": "s",
    "homology.gf2_rank_s": "s",
    "homology.boundary_columns": "count",
    "cli.self_s": "s",
    "trace.overhead": "ratio",
}


class SetupError(Exception):
    """The checkout cannot run the workload; no result is printed."""


@dataclass
class OpRun:
    name: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list[str]
    digest: str
    bytes_written: int
    # wall and CPU time in calibration units
    wall_cal: float = 0.0
    cpu_cal: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)


CALIBRATION_ROUNDS = 5
# seconds per calibration loop that ``setup_s`` is scaled to (Intel Xeon
# vCPU, Python 3.11)
CALIBRATION_REFERENCE_S = 0.010


def _calibration_loop() -> int:
    """Fixed work of the kinds nervelim does: tuples, hashing, frozensets,
    dicts, sorting and XOR of big integers."""
    acc = 0
    table = {}
    for i in range(6000):
        key = (i % 97, i % 89, i)
        table[key] = frozenset(key)
        acc ^= hash(key) ^ (1 << (i % 512))
    return acc ^ len(sorted(table, key=lambda k: (k[1], k[0])))


def calibrate() -> tuple[float, float]:
    """Median wall and CPU seconds of ``CALIBRATION_ROUNDS`` runs of the
    calibration loop."""
    walls, cpus = [], []
    for _ in range(CALIBRATION_ROUNDS):
        wall, cpu = time.perf_counter(), time.process_time()
        _calibration_loop()
        walls.append(time.perf_counter() - wall)
        cpus.append(time.process_time() - cpu)
    return statistics.median(walls), statistics.median(cpus)


def spawn(argv: list[str], log: Path, deadline: float) -> tuple[int, float, float]:
    """Run ``argv`` with stdout and stderr to ``log``; returns exit code,
    wall seconds and CPU seconds.  A process still running at ``deadline``
    is killed."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, dict(os.environ), file_actions=actions)
    try:
        # sleep until the process ends or the deadline passes, without polling
        pidfd = os.pidfd_open(pid)
        try:
            ended, _, _ = select.select([pidfd], [], [], max(0.0, deadline - start))
        finally:
            os.close(pidfd)
        if not ended:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    return code, wall, usage.ru_utime + usage.ru_stime


def digest(out: Path) -> tuple[str, int]:
    """SHA-256 over the names and bytes of every file, and the byte total."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        h.update(f"{path.relative_to(out)}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest(), total


class Runner:
    def __init__(self, workload: Workload, seed: int, work: Path, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.inputs = work / "inputs"
        self.deadline = deadline
        self.spans = work / "spans"
        # the calibration taken after the last process the client ran
        self.calibration = (0.0, 0.0)

    def setup(self) -> list[float]:
        """Set-up times in reference seconds."""
        times = []
        self.calibration = calibrate()
        argv = [
            sys.executable,
            str(HERE / "inputs.py"),
            "--families",
            ",".join(self.workload.families),
            "--seed",
            str(self.seed),
            "--out",
            str(self.inputs),
        ]
        for i in range(SETUP_REPEATS):
            log = self.work / f"setup-{i}.log"
            before = self.calibration
            code, wall, _ = spawn(argv, log, self.deadline)
            self.calibration = after = calibrate()
            if code != 0:
                raise SetupError(f"set-up failed with exit code {code}:\n{log.read_text()}")
            times.append(wall / ((before[0] + after[0]) / 2) * CALIBRATION_REFERENCE_S)
        return times

    def run_op(self, op: Op, tag: str, traced: bool) -> OpRun:
        out = self.work / tag
        # relative to the checkout, so that no output depends on where it is
        inputs = os.path.relpath(self.inputs)
        args = [a.format(**{"in": inputs, "seed": self.seed}) for a in op.args]
        rss_path = self.work / f"{tag}.rss"
        argv = [sys.executable, str(HERE / "op.py"), "--rss", str(rss_path)]
        spans_path = self.spans / f"{tag}.json"
        if traced:
            self.spans.mkdir(exist_ok=True)
            argv += ["--spans", str(spans_path)]
        argv += ["--", *args, "--out", str(out)]
        before = self.calibration
        code, wall, cpu = spawn(argv, self.work / f"{tag}.log", self.deadline)
        self.calibration = after = calibrate()
        try:
            problems = op.gate(out, code)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        try:
            rss = int(rss_path.read_text()) / 1024
        except (OSError, ValueError):
            rss = 0.0
            problems.append("no peak RSS written")
        sha, size = digest(out) if out.exists() else ("", 0)
        run = OpRun(op.name, wall, cpu, rss, problems, sha, size)
        run.wall_cal = wall / ((before[0] + after[0]) / 2)
        run.cpu_cal = cpu / ((before[1] + after[1]) / 2)
        if traced:
            if spans_path.exists():
                run.layers = derive(json.loads(spans_path.read_text())["spans"])
            else:
                run.problems.append("no spans written")
        shutil.rmtree(out, ignore_errors=True)
        return run

    def run_pass(self, index: int, traced: bool) -> list[OpRun]:
        return [self.run_op(op, f"p{index}-{op.name}", traced) for op in self.workload.ops]

    def run_repeat(self, first: OpRun) -> OpRun:
        """The repeated operation, untraced; ``first`` is its run in the
        first pass."""
        op = self.workload.ops[self.workload.repeat]
        again = self.run_op(op, f"{op.name}-again", False)
        if again.digest != first.digest:
            again.problems.append(f"output digest differs from the first {op.name} run")
        return again


def layer_totals(runs: list[OpRun]) -> dict[str, float]:
    """Totals of the traced operations of one pass: the per-layer metrics,
    every layer's self time, and the pass's traced wall time."""
    total: dict[str, float] = {}
    for r in runs:
        for key, value in r.layers.items():
            old = total.get(key, 0)
            total[key] = max(old, value) if key in MAX_COUNTS else old + value
    total["wall_s"] = sum(r.wall_s for r in runs)
    # whatever no other layer's span covers: cli.main itself, interpreter
    # start, imports and exit
    total["cli.self_s"] = total["wall_s"] - sum(
        total.get(f"{layer}.self_s", 0.0) for layer in LAYERS if layer != "cli"
    )
    total["report.bytes_written"] = sum(r.bytes_written for r in runs)
    for name, num, den in (
        ("complexes.vertex_yield", "complexes.vertices", "complexes.tuples_scanned"),
        ("systems.homotopy_accept_ratio", "systems.homotopy_kept", "systems.homotopy_drawn"),
        ("cells.net_accept_ratio", "cells.nets_kept", "cells.net_candidates"),
    ):
        total[name] = total.get(num, 0) / total[den] if total.get(den) else 0.0
    return total


def run(workload: Workload, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    # the client, the calibration loop and every operation share one CPU,
    # so that the calibration sees the speed the operations get
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    started = time.perf_counter()
    work.mkdir(parents=True)
    runner = Runner(workload, seed, work, started + RUN_DEADLINE_S)
    setup = runner.setup()
    passes: list[list[OpRun]] = []
    loop_start = time.perf_counter()
    longest = 0.0
    while not passes or time.perf_counter() - loop_start + longest <= seconds:
        pass_start = time.perf_counter()
        passes.append(runner.run_pass(len(passes), traced))
        longest = max(longest, time.perf_counter() - pass_start)
        if time.perf_counter() > runner.deadline:
            break
    again = runner.run_repeat(passes[0][workload.repeat])
    all_runs = [r for p in passes for r in p] + [again]
    for r in all_runs:
        status = "ok" if not r.problems else "FAIL " + "; ".join(r.problems)
        print(
            f"{r.name:<18} wall {r.wall_s:7.3f} s {r.wall_cal:6.1f} cal  "
            f"cpu {r.cpu_s:7.3f} s {r.cpu_cal:6.1f} cal  rss {r.rss_mb:6.1f} MB  {status}"
        )
    failed = sum(1 for r in all_runs if r.problems)
    # each operation at its median over the passes
    per_op = list(zip(*passes))
    if traced:
        totals = [layer_totals(p) for p in passes]
        last = totals[-1]
        print(f"traced wall {last['wall_s']:.3f} s, by layer self time:")
        for layer in LAYERS:
            print(f"  {layer:<10} {last[f'{layer}.self_s']:9.3f} s")
        if last.get("trace.count_errors"):
            print(f"warning: {last['trace.count_errors']:.0f} work counts could not be taken")
        metrics = {
            name: {"value": float(statistics.median(t.get(name, 0) for t in totals)), "unit": unit}
            for name, unit in PER_LAYER.items()
            if name != "trace.overhead"
        }
        # the repeat is the same operation as the traced one it follows
        traced_cal = statistics.median(r.wall_cal for r in per_op[workload.repeat])
        metrics["trace.overhead"] = {"value": traced_cal / again.wall_cal - 1, "unit": "ratio"}
        kept = work.parent / f"spans-{workload.name}-seed{seed}"
        shutil.rmtree(kept, ignore_errors=True)
        runner.spans.rename(kept)
    else:
        values = {
            "wall_cal": sum(statistics.median(r.wall_cal for r in op) for op in per_op),
            "setup_s": statistics.median(setup),
            "cpu_cal": sum(statistics.median(r.cpu_cal for r in op) for op in per_op),
            "peak_rss_mb": max(r.rss_mb for r in all_runs),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {
        "correct": failed == 0,
        "attempted": len(all_runs),
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "nervelim" / "cli.py").is_file():
        print(f"no nervelim source tree under {ROOT}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    except SetupError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
