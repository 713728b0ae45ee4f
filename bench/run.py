"""Benchmark of the ``nts`` CLI: seeded workloads, end-to-end timings, and an
outside-in per-layer trace.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload closed_form --seed 1 --seconds 40 --trace 0

Each task is one CLI command (``nts.cli.run_command``, in-process) on one
generated config, written to a fresh temporary directory under
``.bench_work/``.  Tasks run back to back, a closed loop with one client.  A
pass runs the whole seeded task list; passes repeat while another one fits in
``--seconds`` (at least one pass).  Every task's exit code and outputs are
checked, and the outputs of each pass are folded into a sha256 digest.

A task's time is the median of its times over the passes; ``wall_s`` is the
sum of those medians.  Host speed on a shared machine drifts by a quarter
within seconds, and the median over passes run at different moments keeps
one slow stretch from moving the result.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
untraced and one traced, and prints the per-layer metrics with the tracing
overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results with the run
environment, and the spans of traced runs, go to ``.bench_out/``.
"""

from __future__ import annotations

import os
import sys

# Pin the run environment before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("NTS_THREADS", None)

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("closed_form", "types_exact", "nts_adapt")
# Random instances per workload, besides the fixed anchors.
INSTANCES = {"closed_form": 8, "types_exact": 2, "nts_adapt": 36}
# Extra interpreters started to time set-up; ``setup_s`` is the median of
# these and the run's own set-up.
SETUP_REPEATS = 4
# Tasks that must lie beyond the tail percentile.
TAIL_BEYOND = 10


def setup(workload: str, seed: int):
    """Import ``nts`` from the checkout and generate the task list."""
    if not (SRC / "nts" / "__init__.py").is_file():
        raise FileNotFoundError(f"no nts package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import nts.cli  # noqa: F401
    import workloads

    loaded = Path(sys.modules["nts"].__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise ImportError(f"nts was imported from {loaded}, not from {SRC}")
    return workloads.make_tasks(workload, seed, INSTANCES[workload])


@dataclass
class PassResult:
    wall_s: float = 0.0
    task_s: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    digest: str = ""
    out_bytes: int = 0


def run_pass(tasks, tracer=None) -> PassResult:
    """Run every task once; time each ``run_command`` call and check its output."""
    import nts.cli
    from checks import check_task, new_digest, output_bytes, update_digest

    result = PassResult()
    digest = new_digest()
    for index, task in enumerate(tasks):
        tmp = tempfile.mkdtemp(dir=WORK_DIR)
        try:
            config = os.path.join(tmp, "config.json")
            out = os.path.join(tmp, "out")
            with open(config, "w") as fh:
                json.dump(task.config, fh)
            argv = [task.command, "--config", config, "--out-dir", out]
            err = io.StringIO()
            if tracer is not None:
                tracer.task_id = index
            start = time.perf_counter()
            try:
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = nts.cli.run_command(argv)
            except Exception as e:  # a traceback is a failed task, not a failed benchmark
                code = None
                err.write(f"uncaught {e!r}")
            elapsed = time.perf_counter() - start
            problems = check_task(task, out, code, err.getvalue())
            files = output_bytes(out)
            update_digest(digest, index, files)
            if os.path.isdir(out):
                result.out_bytes += sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        result.task_s.append(elapsed)
        result.wall_s += elapsed
        if problems:
            result.failures.append((index, task.command, task.label, problems))
    result.digest = digest.hexdigest()
    return result


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh interpreters, each importing ``nts`` and
    generating the task list."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=str(ROOT),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def environment() -> dict:
    import numpy
    import scipy

    import nts

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nts": nts.__version__,
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND values beyond it; the median when there are too few values."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(passes: list[PassResult], setup_times: list[float]) -> tuple[dict, list[str]]:
    per_task = [statistics.median(times) for times in zip(*(p.task_s for p in passes))]
    tail_value, tail_pct = tail(per_task)
    values = {
        "wall_s": sum(per_task),
        "task_s.p50": statistics.median(per_task),
        "task_s.tail": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    notes = [f"task_s.tail is p{tail_pct:.1f} of N={len(per_task)} per-task medians over {len(passes)} pass(es)"]
    return values, notes


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        tasks = setup(args.workload, args.seed)
    except (FileNotFoundError, ImportError) as e:
        print(f"bench: cannot set up: {e}", file=sys.stderr)
        return 2
    own_setup = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    WORK_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    env = environment()
    passes: list[PassResult] = []
    tracer = None
    start = time.perf_counter()
    if args.trace:
        from tracer import Tracer

        passes.append(run_pass(tasks))
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(run_pass(tasks, tracer))
        finally:
            tracer.uninstall()
    else:
        while True:
            passes.append(run_pass(tasks))
            if time.perf_counter() - start + passes[-1].wall_s > args.seconds:
                break

    digests = {p.digest for p in passes}
    attempted = len(tasks) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    lines = [
        f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(tasks)} tasks x {len(passes)} pass(es)",
        "environment " + json.dumps(env, sort_keys=True),
        f"digest {passes[0].digest}" + ("" if len(digests) == 1 else f" (passes disagree: {sorted(digests)})"),
        f"failed_frac {failed}/{attempted} = {failed / attempted:.4f}",
    ]
    for index, command, label, problems in passes[0].failures:
        lines.append(f"FAILED task {index} {command} {label}: {'; '.join(problems)[:500]}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        untraced, traced = passes
        values = tracer.metrics()
        values["cli.out_bytes"] = traced.out_bytes
        values["trace.overhead_s"] = traced.wall_s - untraced.wall_s
        values["trace.overhead_frac"] = (traced.wall_s - untraced.wall_s) / untraced.wall_s
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared["per_layer"]}
        lines.append(f"tracing overhead: traced wall_s {traced.wall_s:.3f} s - untraced {untraced.wall_s:.3f} s")
        layers = tracer.layer_self_s()
        lines.append("layer self time: " + ", ".join(
            f"{layer} {seconds:.3f} s ({seconds / traced.wall_s:.0%})" for layer, seconds in layers.items()))
        tracer.save(str(OUT_DIR / f"spans-{args.workload}.npz"))
    else:
        setup_times = [own_setup] + measure_setup(args.workload, args.seed)
        values, notes = end_to_end(passes, setup_times)
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared["end_to_end"]}
        lines += notes
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} {value:.6g} {unit}")

    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {**result, "workload": args.workload, "seed": args.seed, "environment": env,
              "digest": passes[0].digest, "pass_wall_s": [p.wall_s for p in passes],
              "tasks": [f"{t.command} {t.label}" for t in tasks], "task_s": [p.task_s for p in passes]}
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
