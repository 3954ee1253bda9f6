"""Benchmark of the lexmap CLI on three workloads, with an optional traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it uses the ``src/`` of the checkout it sits in. A run
builds the workload's inputs with lexmap three times (set-up), each time
followed by one run of the workload's ``lexmap`` command, then runs the
command again until ``--seconds`` have passed since the first set-up. One
process runs at a time. The outputs are checked against numpy.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before it
records the environment. The full result, with every sample, goes to
``perfbench/results/<workload>-seed<N>-trace<T>.json``; traced runs also
leave their span files there. Inputs live in ``perfbench/work/`` and are
removed when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# One BLAS thread for every process the benchmark starts, so that each lexmap
# process is one busy thread and its CPU time is its work: a second OpenBLAS
# thread spins, and a diagnose run that took 6.4 s of CPU with one thread took
# 8.8 s with two, for 5 % less wall time. README.md has the measurements.
BLAS_THREADS = 1
# set-ups per run, and the least number of timed runs
REPEATS = 3
# A run must end within 180 s: no round starts that would end after DEADLINE_S,
# and every process is killed after PROCESS_TIMEOUT_S or at RUN_LIMIT_S.
DEADLINE_S = 100.0
PROCESS_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
        PYTHONHASHSEED="0",
    )
    return env


class Usage(NamedTuple):
    wall_s: float
    cpu_s: float  # user + system time of the process and the children it reaped
    rss_mb: float
    code: int


def timed(cmd: list[str], stdout: Path, stderr: Path, timeout: float) -> Usage:
    """Run one process to its end, or kill it after `timeout` seconds, and measure it."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return Usage(wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode)


def command(kind: str, args: list[str], span_file: Path | None) -> list[str]:
    """The process for a CLI call or an atlas build, traced when span_file is set."""
    if span_file is not None:
        return [sys.executable, str(BENCH / "traced.py"), str(span_file), kind, *args]
    if kind == "atlas":
        return [sys.executable, str(BENCH / "build_atlas.py"), *args]
    return [sys.executable, "-m", "lexmap.cli", *args]


def digest(paths: list[Path], skip: tuple[str, ...] = ()) -> str:
    """Hash of the files under the paths, by name below each path and content."""
    h = hashlib.sha256()
    for base in paths:
        files = sorted(p for p in base.rglob("*") if p.is_file()) if base.is_dir() else [base]
        for p in files:
            if p.name not in skip:
                h.update(str(p.relative_to(base) if base.is_dir() else p.name).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    """Recorded facts about the machine and the code; not metrics."""
    probe = subprocess.run(
        [sys.executable, str(BENCH / "envinfo.py")], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=30, check=True,
    )
    env = json.loads(probe.stdout)
    env["nproc"] = len(os.sched_getaffinity(0))
    env["blas_threads_set"] = BLAS_THREADS
    env["git_commit"] = git_commit()
    env["src_lines"] = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return env


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Bench:
    """One benchmark run of one workload: set-ups, timed runs, checks."""

    def __init__(self, workload, seed: int, seconds: float, work: Path, results: Path):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.results = results
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.span_files: list[str] = []
        self._start = time.perf_counter()
        self._reference: str | None = None
        self._failed_per_run = 0

    def _process(self, kind: str, args: list[str], logs: Path, span_file: Path | None) -> Usage:
        timeout = min(PROCESS_TIMEOUT_S, RUN_LIMIT_S - (time.perf_counter() - self._start))
        usage = timed(command(kind, args, span_file), logs / "stdout.txt", logs / "stderr.txt", timeout)
        if usage.code != 0:
            err = (logs / "stderr.txt").read_text(encoding="utf-8", errors="replace").strip()
            self.problems.append(f"{kind} {args[0]} exited {usage.code}: {err[-500:]}")
        return usage

    def setup(self, rep: int, span_file: Path | None = None) -> Usage:
        """Build the inputs once; the first set-up's inputs are kept and checked."""
        inputs = self.work / f"inputs{rep}"
        inputs.mkdir(parents=True)
        kind, args = self.w.setup(inputs, self.seed)
        usage = self._process(kind, args, self.work, span_file)
        if rep == 0:
            if usage.code != 0:
                raise RuntimeError(self.problems[-1])
            self.inputs = inputs
            self.problems += self.w.prepare(inputs, self.seed)
            self._setup_digest = digest(sorted(inputs.iterdir()), skip=("config.json", "queries.txt"))
        else:
            if digest(sorted(inputs.iterdir()), skip=("config.json",)) != self._setup_digest:
                self.problems.append(f"set-up {rep} wrote other inputs than set-up 0 for the same seed")
            shutil.rmtree(inputs)
        return usage

    def run_once(self, index: int, span_file: Path | None = None) -> tuple[Usage, Path]:
        """One timed lexmap process; the first one's outputs are checked in full."""
        out = self.work / f"out{index}"
        out.mkdir()
        usage = self._process("cli", self.w.run_args(self.inputs, out), out, span_file)
        self.attempted += self.w.operations
        if usage.code != 0:
            self.failed += self.w.operations
            return usage, out
        (out / "stderr.txt").unlink()
        # every run writes to its own directory, so the path in config.json differs
        fingerprint = digest([out], skip=("config.json",))
        if self._reference is None:
            self._reference = fingerprint
            self._failed_per_run, problems = self.w.check(self.inputs, out)
            self.problems += problems
        elif fingerprint != self._reference:
            self.problems.append(f"run {index} wrote other outputs than run 0")
            failed, problems = self.w.check(self.inputs, out)
            self.problems += problems
            self.failed += failed
            return usage, out
        self.failed += self._failed_per_run
        return usage, out

    def more(self, done: int, last: float, least: int) -> bool:
        """Whether to start another round: `least` rounds, then more while one fits in --seconds.

        `last` is how long the previous round took, the guess for the next.
        """
        elapsed = time.perf_counter() - self._measure_start
        if done and time.perf_counter() - self._start + last > DEADLINE_S:
            return False
        return done < least or elapsed + last <= self.seconds

    def _sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def measure(self) -> dict:
        """End-to-end metrics: medians over set-ups and timed runs.

        Set-ups and runs alternate, so both kinds of sample spread over the
        whole run: this machine's CPU speed drifts by tens of percent within
        a minute, and a median of samples taken close together follows it.
        """
        self._measure_start = time.perf_counter()
        index, last = 0, 0.0
        while self.more(index, last, REPEATS):
            if index < REPEATS:
                usage = self.setup(index)
                self._sample("setup_s", usage.cpu_s)
                self._sample("setup_wall_s", usage.wall_s)
            usage, out = self.run_once(index)
            shutil.rmtree(out)
            self._sample("run_cpu_s", usage.cpu_s)
            self._sample("run_wall_s", usage.wall_s)
            self._sample("peak_rss_mb", usage.rss_mb)
            last = usage.wall_s  # rounds after the set-ups are runs alone
            index += 1
        units = {"setup_s": "s", "run_cpu_s": "s", "peak_rss_mb": "MB"}
        return {
            name: {"value": statistics.median(self.samples[name]), "unit": unit}
            for name, unit in units.items()
        }

    def trace(self) -> dict:
        """Per-layer metrics from a traced set-up and the median traced run."""
        stem = f"{self.w.name}-seed{self.seed}"
        setup_spans = self.results / f"{stem}-setup.spans.json"
        self._measure_start = time.perf_counter()
        plain_setup = self.setup(0)
        traced_setup = self.setup(1, setup_spans)
        plain, traced = [], []
        index, last = 0, 0.0
        while self.more(index, last, 1):
            usage, out = self.run_once(2 * index)
            shutil.rmtree(out)
            plain.append(usage)
            span_file = self.results / f"{stem}-run{index}.spans.json"
            usage, out = self.run_once(2 * index + 1, span_file)
            traced.append((usage, span_file, workloads.sgd_steps(out)))
            shutil.rmtree(out)
            last = plain[-1].wall_s + usage.wall_s
            index += 1
        traced.sort(key=lambda t: t[0].cpu_s)
        run, run_spans, steps = traced[(len(traced) - 1) // 2]
        for name, usages in (("plain_setup", [plain_setup]), ("traced_setup", [traced_setup]),
                             ("plain_run", plain), ("traced_run", [t[0] for t in traced])):
            for usage in usages:
                self._sample(f"{name}_cpu_s", usage.cpu_s)
                self._sample(f"{name}_wall_s", usage.wall_s)
        self.span_files = [str(p.relative_to(ROOT)) for p in (setup_spans, run_spans)]
        # CPU time, like the end-to-end metrics: wall time also counts host steal
        overhead = (traced_setup.cpu_s + run.cpu_s
                    - plain_setup.cpu_s - statistics.median(u.cpu_s for u in plain))
        wall = traced_setup.wall_s + run.wall_s
        return layer_metrics(spans.summarize([setup_spans, run_spans]), wall, overhead, steps)


def layer_metrics(summary: dict, wall: float, overhead: float, sgd_steps: int) -> dict:
    """Per-layer metrics; the *_s self times plus cli.other_s add up to trace.wall_s."""
    layers, counters = summary["layers"], summary["counters"]
    metrics = {f"{name}_s": (layer["self_s"], "s") for name, layer in layers.items()}

    def ratio(num: float, den: float, scale: float) -> float:
        return num / den * scale if den else 0.0

    precision = layers["analysis.precision"]
    dispatch = layers["translate.dispatch"]
    metrics.update({
        "embeddings.load_rows": (layers["embeddings.load"]["size"], "count"),
        "embeddings.topk_calls": (layers["embeddings.topk"]["calls"], "count"),
        "embeddings.cosines_calls": (counters["embeddings.cosines"], "count"),
        "neighborhoods.members": (layers["neighborhoods.scan"]["size"], "count"),
        "mapper.sgd_steps": (sgd_steps, "count"),
        "mapper.sgd_step_us": (ratio(layers["mapper.maxmargin"]["self_s"], sgd_steps, 1e6), "us"),
        "analysis.precision_queries": (precision["size"], "count"),
        "analysis.precision_query_ms": (ratio(precision["self_s"], precision["size"], 1e3), "ms"),
        "translate.dispatch_query_us": (ratio(dispatch["self_s"], dispatch["calls"], 1e6), "us"),
        "cli.other_s": (wall - sum(layer["self_s"] for layer in layers.values()), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (overhead, "s"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lexmap" / "cli.py").is_file():
        print(f"error: no lexmap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(workloads.WORKLOADS[args.workload](), args.seed, args.seconds, args.trace)
    except RuntimeError as exc:  # no inputs to measure on
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result["environment"]))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run(workload, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; also writes the full result to perfbench/results/."""
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    work = BENCH / "work" / f"{workload.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(workload, seed, seconds, work, results)
    try:
        env = environment()
        metrics = bench.trace() if trace else bench.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "samples": bench.samples,
        "span_files": bench.span_files, "problems": bench.problems,
        "correct": not bench.problems, "attempted": bench.attempted, "failed": bench.failed,
        "metrics": metrics,
    }
    path = results / f"{workload.name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


if __name__ == "__main__":
    sys.exit(main())
