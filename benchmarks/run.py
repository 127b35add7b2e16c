"""Benchmark of the localhom command line on seeded, generated inputs.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload homology-ladder --seed 1 --seconds 30 --trace 0

One process, one thread.  Set-up imports the package from ``src/``, loads
the builtin complexes it needs (with their self-checks), generates the
workload's corpus from the seed and writes it as ``.scx`` files; it is
repeated and its median reported as ``setup_s``.  The workload then runs
as a closed loop: each job is a real CLI command, ``localhom.cli.main``
called in-process with its output captured, its ``--json`` parsed and
checked against the answer known from the construction.  Whole passes
over the job list run until another pass would end after ``--seconds``,
and at least two run.  End-to-end times are reported at a reference
host speed (see ``REF_SECONDS``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
plain and traced passes (after a traced set-up) and reports per-layer
metrics from the traced set-up plus the first traced pass; spans are
written to ``benchmarks/_run/``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

A job whose wrong answer is a documented defect (``corpus.KNOWN_DEFECTS``)
counts as failed but does not make the run incorrect.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from itertools import combinations
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_run"
SETUP_REPEATS = 7
MIN_PASSES = 2  # even when one pass outlasts --seconds, so every median has two samples
# A shared host's speed drifts by some 20% over minutes, for every process alike.
# End-to-end times are therefore reported at a reference speed: each measured
# time is multiplied by REF_SECONDS over the time of a fixed calibration
# kernel run just before and just after it.  REF_SECONDS is the kernel's
# typical time on the machine the bounds were set on, so reported values stay
# close to measured seconds there.  The host's speed factor and the raw
# median pass time are printed as well.
REF_SECONDS = 0.012
_CALIBRATION_MATRIX = [[(i * j + i + 2 * j) % 7 - 3 for j in range(48)] for i in range(48)]

import answers  # noqa: E402  (siblings of this file)
import corpus  # noqa: E402
import tracing  # noqa: E402


def fresh_import():
    """Import the package from this checkout's ``src/``, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "localhom" or n.startswith("localhom.")]:
        del sys.modules[name]
    lh = importlib.import_module("localhom")
    importlib.import_module("localhom.cli")
    if SRC.resolve() not in Path(lh.__file__).resolve().parents:
        raise ImportError(f"localhom was imported from {lh.__file__}, not from {SRC}")
    return lh


def set_up(workload: str, seed: int, directory: Path):
    """Import, builtin loads, corpus generation and writing; returns (seconds, lh, jobs, largest)."""
    if directory.exists():
        shutil.rmtree(directory)
    start = perf_counter()
    lh = fresh_import()
    jobs, largest = corpus.build(lh, workload, seed, directory)
    return perf_counter() - start, lh, jobs, largest


def run_job(lh, job: corpus.Job) -> tuple[float, list[str]]:
    """Run one CLI command in-process; returns (seconds, differences from the answer).

    Garbage left by earlier jobs is collected first, untimed: a real CLI
    command starts in a fresh process and never pays for it.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = lh.cli.main(list(job.argv))
            finally:
                elapsed = perf_counter() - start
    except SystemExit as exc:
        return elapsed, [f"exited with {exc.code}: {err.getvalue().strip()}"]
    except Exception:  # a job that raises is a failed job; the loop goes on
        return elapsed, [traceback.format_exc(limit=3).strip()]
    if code != 0:
        return elapsed, [f"exit code {code}: {err.getvalue().strip()}"]
    try:
        return elapsed, answers.diff(job.kind, job.expected, json.loads(out.getvalue()))
    except (ValueError, KeyError, TypeError) as exc:
        return elapsed, [f"unreadable output: {exc!r}"]


def calibrate() -> float:
    """Seconds for a fixed pure-Python kernel: an integer matrix product, a set of tuples, a sort.

    The kernel never touches the package, so it measures only the host's
    current speed; collection is off so the program's heap cannot slow it.
    """
    a = _CALIBRATION_MATRIX
    gc.disable()
    try:
        start = perf_counter()
        columns = list(zip(*a))
        product = [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in a]
        faces = set()
        for s in combinations(range(14), 5):
            faces.update(combinations(s, 4))
        sorted(faces, reverse=True)
        elapsed = perf_counter() - start
    finally:
        gc.enable()
    del product
    return elapsed


def run_pass(lh, jobs, tracer=None, label="", calibration=None) -> list[tuple[str, float, list[str]]]:
    """Run every job once.  With a ``calibration`` list, the kernel's time is
    appended before each job and after the last one."""
    results = []
    for job in jobs:
        if calibration is not None:
            calibration.append(calibrate())
        if tracer is not None:
            tracer.job = f"{label}:{job.name}"
        elapsed, diffs = run_job(lh, job)
        results.append((job.name, elapsed, diffs))
    if calibration is not None:
        calibration.append(calibrate())
    return results


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    return seconds * 2 * REF_SECONDS / (before + after)


class Loop:
    """Closed loop over whole passes, bounded by the run's measuring time."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = perf_counter()
        self.failures: dict[str, list[str]] = {}
        self.attempted = 0
        self.failed = 0

    def another(self, last_round: float) -> bool:
        return perf_counter() - self.start + last_round <= self.seconds

    def record(self, results) -> float:
        for name, _, diffs in results:
            self.attempted += 1
            if diffs:
                self.failed += 1
                self.failures.setdefault(name, diffs)
        return sum(elapsed for _, elapsed, _ in results)

    @property
    def correct(self) -> bool:
        return all(name in corpus.KNOWN_DEFECTS for name in self.failures)

    def report_failures(self) -> None:
        for name, diffs in self.failures.items():
            note = f" (known defect: {corpus.KNOWN_DEFECTS[name]})" if name in corpus.KNOWN_DEFECTS else ""
            print(f"FAILED {name}{note}")
            for line in diffs:
                print(f"    {line}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload: str, seed: int, seconds: float, directory: Path) -> tuple[Loop, dict]:
    setups, refs = [], [calibrate()]
    for _ in range(SETUP_REPEATS):
        elapsed, lh, jobs, largest = set_up(workload, seed, directory)
        refs.append(calibrate())
        setups.append(at_reference_speed(elapsed, refs[-2], refs[-1]))
    gc.collect()
    gc.freeze()  # set-up objects stay alive all run; keep them out of the jobs' collections
    loop = Loop(seconds)
    pass_times, raw_pass_times, per_job = [], [], {job.name: [] for job in jobs}
    while True:
        began = perf_counter()
        pass_refs = []
        results = run_pass(lh, jobs, calibration=pass_refs)
        refs += pass_refs
        raw_pass_times.append(loop.record(results))
        scaled = [at_reference_speed(t, pass_refs[i], pass_refs[i + 1])
                  for i, (_, t, _) in enumerate(results)]
        pass_times.append(sum(scaled))
        for (name, _, _), t in zip(results, scaled):
            per_job[name].append(t)
        if len(pass_times) >= MIN_PASSES and not loop.another(perf_counter() - began):
            break
    job_medians = [statistics.median(times) for times in per_job.values()]
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "pass_s": (statistics.median(pass_times), "s", len(pass_times)),
        "largest_job_s": (statistics.median(per_job[largest]), "s", len(per_job[largest])),
        "job_p50_ms": (1000 * statistics.median(job_medians), "ms", len(jobs) * len(pass_times)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        "success_rate": ((loop.attempted - loop.failed) / loop.attempted, "ratio", loop.attempted),
    }
    speed = REF_SECONDS / statistics.median(refs)
    print(f"workload {workload}, seed {seed}: {len(jobs)} jobs per pass, largest job {largest}")
    print(f"  host speed {speed:.4g} x reference ({len(refs)} calibrations); "
          f"raw pass_s {statistics.median(raw_pass_times):.6g} s")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<14} {value:.6g} {unit}  (n={samples})")
    print(f"  error_rate     {loop.failed / loop.attempted:.6g} ({loop.failed}/{loop.attempted})")
    return loop, {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()}


def traced(workload: str, seed: int, seconds: float, directory: Path) -> tuple[Loop, dict]:
    lh = fresh_import()
    tracer = tracing.Tracer()
    tracer.install()
    tracer.job = "setup"
    jobs, _ = corpus.build(lh, workload, seed, directory)
    tracer.uninstall()
    gc.collect()
    gc.freeze()
    loop = Loop(seconds)
    plain, timed, counts = [], [], []
    while True:
        began = perf_counter()
        plain.append(loop.record(run_pass(lh, jobs)))
        label = f"pass{len(timed)}"
        tracer.install()
        timed.append(loop.record(run_pass(lh, jobs, tracer, label)))
        tracer.uninstall()
        counts.append(tracing.LayerTotals(tracer.spans, {f"{label}:{j.name}" for j in jobs}).counts())
        if not loop.another(perf_counter() - began):
            break
    WORK.mkdir(parents=True, exist_ok=True)
    tracer.write(WORK / f"spans-{workload}-seed{seed}.json")
    if any(c != counts[0] for c in counts):
        print("note: traced passes disagree on call counts or sizes")
    first = {"setup"} | {f"pass0:{j.name}" for j in jobs}
    overhead = statistics.median(timed) / statistics.median(plain) - 1
    metrics = tracing.layer_metrics(tracing.LayerTotals(tracer.spans, first), overhead)
    print(f"workload {workload}, seed {seed}: traced set-up plus one traced pass "
          f"({len(timed)} traced and {len(plain)} plain passes run)")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    return loop, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "localhom" / "__init__.py").is_file():
        print(f"error: no localhom package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    measure = traced if args.trace else end_to_end
    directory = WORK / f"corpus-{os.getpid()}"
    try:
        loop, metrics = measure(args.workload, args.seed, args.seconds, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    loop.report_failures()
    print(json.dumps({
        "correct": loop.correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
