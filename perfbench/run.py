"""pseudolearn benchmark: one workload per run, metrics printed as JSON.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim_kernel_cv --seed 1 --seconds 22 --trace 0

``--trace 0`` times ops untraced and prints the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` runs a fixed set of ops with the
outside-in tracer and prints the per-layer metrics.  ``--workload all``
runs the four workloads in turn.  Every op's outputs
are checked (see workload.py).  The last line of standard output is the
result object; ``--report PATH`` also writes everything measured,
spans included, as JSON.  ``--size tiny`` shrinks the inputs for the
self-test.

Each workload runs in fresh interpreters: ``SETUP_SAMPLES - 1``
processes that only import pseudolearn and generate the inputs, then one
that also runs the ops.  Set-up time is the median of all samples.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim_kernel_cv", "sim_knn_oracle", "sim_forest_10d", "cli_csv")
SETUP_SAMPLES = 3
BLAS_THREADS = 1
TIME_LIMIT_S = 170.0


def src_line_counts() -> dict:
    counts = {
        p.stem: len(p.read_text().splitlines())
        for p in sorted((ROOT / "src" / "pseudolearn").glob("*.py"))
    }
    counts["total"] = sum(counts.values())
    return counts


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, mode: str, workdir: Path, deadline: float) -> dict:
    result = workdir / "result.json"
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--size", args.size,
        "--workdir", str(workdir), "--result", str(result),
    ]
    subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr, check=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    out = json.loads(result.read_text())
    shutil.rmtree(workdir)
    return out


def end_to_end(setups: list, run: dict) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": run["ops_per_s"],
        "op_s_p50": run["op_s_p50"],
        "peak_rss_mb": run["peak_rss_mb"],
        "ok_frac": 1.0 - run["failed"] / run["attempted"],
    }


def per_layer(run: dict, spec: list) -> dict:
    special = {
        "trace.overhead_s": run["traced_wall_s"] - run["untraced_wall_s"],
        "trace.wall_s": run["traced_wall_s"],
    }
    values = {}
    for m in spec:
        name = m["name"]
        if name in special:
            values[name] = special[name]
        elif m["unit"] == "s":
            layer = name[: -len(".self_s")] if name.endswith(".self_s") else name[:-2]
            values[name] = run["self_times"].get(layer, 0.0)
        else:
            values[name] = run["counts"].get(name, 0)
    return values


def bench_one(args, workload: str, spec: list):
    """Run one workload; print its text report; return (result, report) or None."""
    deadline = time.monotonic() + TIME_LIMIT_S
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    child = argparse.Namespace(**vars(args) | {"workload": workload})
    try:
        if args.trace:
            run = run_child(child, "trace", work / "trace", deadline)
            metrics = per_layer(run, spec)
            setups = [run["setup_s"]]
        else:
            setups = [
                run_child(child, "setup", work / f"setup{i}", deadline)["setup_s"]
                for i in range(SETUP_SAMPLES - 1)
            ]
            run = run_child(child, "measure", work / "measure", deadline)
            setups.append(run["setup_s"])
            metrics = end_to_end(setups, run)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"error: workload process failed: {e}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    env = dict(run["env"], src_lines=src_line_counts())
    if args.trace:
        ops = f"{run['traced_ops']} ops traced"
    else:
        ops = (f"{len(run['op_seconds'])} ops timed; unscaled ops_per_s "
               f"{run['raw_ops_per_s']!r}, op_s_p50 {run['raw_op_s_p50']!r}; "
               f"speed probe median {statistics.median(run['probe_seconds'])!r} s")
    print(f"workload {workload} seed {args.seed} size {args.size}: "
          f"sizes {json.dumps(run['sizes'])}, {ops}")
    print(f"checks: attempted {run['attempted']}, failed {run['failed']}, "
          f"failed_frac {run['failed'] / run['attempted']}, "
          f"reference checked {run['reference_checked']}, "
          f"byte-identical to reference {run['byte_identical']}")
    for problem in run["problems"]:
        print(f"  problem: {problem}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    for m in spec:
        print(f"  {m['name']:<42} {metrics[m['name']]!r:>24} {m['unit']}")
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec
        },
    }
    report = {"workload": workload, "seed": args.seed, "size": args.size, "env": env,
              "setup_samples": setups, "metrics": metrics, "run": run}
    return result, report


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", default="full", choices=("full", "tiny"))
    p.add_argument("--report", type=Path, default=None)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (ROOT / "src" / "pseudolearn" / "__init__.py").is_file():
        print(f"error: no pseudolearn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, reports = {}, {}
    for name in names:
        done = bench_one(args, name, spec)
        if done is None:
            return 1
        results[name], reports[name] = done
    if args.report is not None:
        blob = reports if args.workload == "all" else reports[args.workload]
        args.report.write_text(json.dumps(blob, indent=1))
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
