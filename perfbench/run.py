"""Benchmark of the ``ordalg`` command line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload audit|con|decompose|search \\
        --seed N --seconds S --trace 0|1

Each job is one ``ordalg`` command in a fresh process, run one at a time, on
input files generated from the seed into ``.perfbench_work/``.  Every output
is checked against the golden invariants (``golden.py``).

``--trace 0`` runs the job list repeatedly for about ``--seconds`` and prints
the end-to-end metrics.  ``--trace 1`` runs the list once untraced and once
traced (``trace_job.py``) and prints the per-layer metrics, including the
tracing overhead.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import golden  # noqa: E402
import inputs  # noqa: E402
from layers import per_layer_metrics  # noqa: E402

WORKLOADS = ("audit", "con", "decompose", "search")
JOB_TIMEOUT_S = 60.0
RUN_BUDGET_S = 150.0  # a run must end within 180 s; jobs past this are not started
SETUP_STARTS = 8  # before the passes, and as many after them
SLOWEST_SAMPLES = 3  # the slowest job runs at least this often per run
# The unit counted by each workload's work_per_s.
WORK_UNIT = {
    "audit": "assignments_per_s",
    "con": "congruences_per_s",
    "decompose": "congruences_per_s",
    "search": "posets_per_s",
}


@dataclass
class Result:
    job: inputs.Job
    wall_s: float
    cpu_s: float
    rss_mb: float
    error: str | None
    out: dict | None = None


def run_process(argv: list[str], cwd: Path, env: dict, stdout_path: Path,
                timeout: float = JOB_TIMEOUT_S) -> tuple[float, float, float, int, bool]:
    """Run to completion; wall s, user+sys CPU s, max-RSS MiB, exit code, timed out.

    ``os.wait4`` gives this child's own rusage, so RSS and CPU are per job
    (``RUSAGE_CHILDREN`` would be a running maximum over all children).
    """
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killed = threading.Event()
        timer = threading.Timer(timeout, lambda: (killed.set(), proc.kill()))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    # reaped here, so tell Popen; it would otherwise try to reap it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode, killed.is_set()


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.root = root
        self.workload = workload
        self.work = root / ".perfbench_work" / f"{workload}-{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.jobs, self.files, self.algs = inputs.build_workload(workload, seed, self.work / "in")
        self.digest = inputs.inputs_digest(self.files, self.jobs)
        self.goldens = golden.load_goldens()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.env.pop("ORDALG_BUDGET", None)

    def cli(self, args, traced_to: Path | None = None) -> list[str]:
        if traced_to is None:
            return [sys.executable, "-m", "ordalg", *args]
        return [sys.executable, str(HERE / "trace_job.py"), str(traced_to), *args]

    def setup_times(self, starts: int) -> list[float]:
        """Cold starts of ``ordalg fixtures --json``: interpreter, import, corpus parse."""
        times = []
        for i in range(starts):
            wall, _, _, code, _ = run_process(self.cli(["fixtures", "--json"]), self.work / "in",
                                              self.env, self.work / f"setup{i}.out")
            if code != 0:
                raise SystemExit(f"error: 'ordalg fixtures --json' exited with {code}")
            times.append(wall)
        return times

    def run_pass(self, tag: str, traced: bool = False, only: int | None = None) -> tuple[float, list[Result]]:
        """Run every job (or job ``only``) once, back to back; check outputs after the pass."""
        raw = []
        t0 = time.perf_counter()
        for i, job in enumerate(self.jobs):
            if only is not None and i != only:
                continue
            stem = self.work / f"{tag}-{i:02d}"
            argv = self.cli(job.argv, stem.with_suffix(".spans") if traced else None)
            left = self.deadline - time.perf_counter()
            if left <= 0:
                raw.append((job, stem, None))
                continue
            timeout = min(JOB_TIMEOUT_S, left)
            raw.append((job, stem, run_process(argv, self.work / "in", self.env, stem.with_suffix(".out"), timeout)))
        pass_wall = time.perf_counter() - t0
        results = []
        for job, stem, measured in raw:
            if measured is None:
                results.append(Result(job, 0.0, 0.0, 0.0, "not started: run budget used up"))
                continue
            wall, cpu, rss, code, timed_out = measured
            result = Result(job, wall, cpu, rss, None)
            if timed_out:
                result.error = f"killed after {wall:.0f} s"
            elif code != 0:
                result.error = f"exit code {code}: {stem.with_suffix('.err').read_text()[-300:]}"
            else:
                try:
                    result.out = json.loads(stem.with_suffix(".out").read_text(encoding="utf-8"))
                    golden.check(job, result.out, self.goldens.get(job.id), self.algs)
                except (ValueError, KeyError, TypeError, golden.Mismatch) as e:
                    result.error = f"{type(e).__name__}: {e}"
            results.append(result)
        return pass_wall, results

    def work_rate(self, results: list[Result]) -> float:
        units = busy = 0.0
        for r in results:
            n = golden.work_units(r.job, r.out, self.goldens.get(r.job.id)) if r.out else 0
            if n:
                units += n
                busy += r.wall_s
        return units / busy if busy else 0.0


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[Result]]:
    bench.setup_times(1)  # first start compiles bytecode; users pay that once
    setup = bench.setup_times(SETUP_STARTS)
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(bench.run_pass(f"p{len(passes)}"))
        elapsed = time.perf_counter() - t0
        if elapsed + passes[-1][0] > seconds:
            break
    # per-job medians over passes, so the maxima below do not grow with the pass count
    per_job = [statistics.median(res[i].wall_s for _, res in passes) for i in range(len(bench.jobs))]
    per_job_rss = [statistics.median(res[i].rss_mb for _, res in passes) for i in range(len(bench.jobs))]
    slowest = max(range(len(bench.jobs)), key=per_job.__getitem__)
    reruns = [bench.run_pass(f"x{k}", only=slowest)[1][0]
              for k in range(SLOWEST_SAMPLES - len(passes))]
    slowest_times = [res[slowest].wall_s for _, res in passes] + [r.wall_s for r in reruns]
    setup += bench.setup_times(SETUP_STARTS)
    every = [r for _, results in passes for r in results] + reruns
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(w for w, _ in passes), "s"),
        "job_max_s": (statistics.median(slowest_times), "s"),
        "cpu_s": (statistics.median(sum(r.cpu_s for r in res) for _, res in passes), "s"),
        "peak_rss_mb": (max(per_job_rss), "MiB"),
        "ok_frac": (sum(r.error is None for r in every) / len(every), "frac"),
        "work_per_s": (statistics.median(bench.work_rate(res) for _, res in passes), "1/s"),
    }
    print(f"# {len(passes)} pass(es) of {len(bench.jobs)} jobs; slowest job {bench.jobs[slowest].id} "
          f"run {len(slowest_times)} times; setup from {len(setup)} starts")
    print(f"# work_per_s counts {WORK_UNIT[bench.workload]}")
    for i, job in enumerate(bench.jobs):
        print(f"#   {job.id:26s} median {per_job[i]:7.3f} s")
    return metrics, every


def traced_run(bench: Bench) -> tuple[dict, list[Result]]:
    bench.setup_times(1)
    plain_wall, plain = bench.run_pass("plain")
    traced_wall, traced = bench.run_pass("traced", traced=True)
    spans = []
    for i in range(len(bench.jobs)):
        path = bench.work / f"traced-{i:02d}.spans"
        if path.exists():
            spans.append(json.loads(path.read_text(encoding="utf-8")))
    hits = sum(len(r.out["hits"]) for r in traced if r.out and r.job.argv[0] == "search")
    metrics = per_layer_metrics(spans)
    metrics["search.hits"] = (hits, "count")
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    print(f"# tracing overhead {traced_wall - plain_wall:+.3f} s "
          f"({traced_wall:.3f} s traced vs {plain_wall:.3f} s untraced)")
    return metrics, plain + traced


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ordalg" / "__init__.py").is_file():
        print(f"error: no ordalg sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed)
    print(f"# workload {args.workload}, seed {args.seed}, inputs sha256 prefix {bench.digest}")
    for job in bench.jobs:
        print(f"#   {job.id}: {job.why}")
    if args.trace:
        metrics, results = traced_run(bench)
    else:
        metrics, results = end_to_end(bench, args.seconds)
    failed = [r for r in results if r.error]
    for r in failed:
        print(f"# FAILED {r.job.id}: {r.error}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
