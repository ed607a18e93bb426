"""Self-test of the benchmark at tiny input sizes (about a minute).

    python3 perfbench/selftest.py

Not part of the repository's test suite.  Checks that:

* every metric of BENCHMARK.json is printed by name with its unit;
* span self times sum to no more than the traced wall time;
* per-layer counts repeat exactly across two traced runs;
* the tracer changes no output, and restores every function it wrapped;
* without the package sources the benchmark exits non-zero and prints
  no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work" / "selftest"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int, report: Path | None = None, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    if report is not None:
        cmd += ["--report", str(report)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics(workload: str, trace: int, proc) -> None:
    spec = BENCH["per_layer" if trace else "end_to_end"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(proc.returncode == 0 and result["correct"], f"{workload} trace={trace}: correct")
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{workload} trace={trace}: result keys")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == {m["name"]: m["unit"] for m in spec},
           f"{workload} trace={trace}: every metric with its unit in the result")
    printed = {tuple(line.split()[::2]) for line in lines[:-1] if len(line.split()) == 3}
    expect(all((m["name"], m["unit"]) in printed for m in spec),
           f"{workload} trace={trace}: every metric printed as 'name value unit'")


def check_trace(workload: str) -> None:
    runs = []
    for k in range(2):
        report = WORK / f"{workload}-{k}.json"
        check_metrics(workload, 1, bench(workload, 1, report))
        runs.append(json.loads(report.read_text())["run"])
    first = runs[0]
    expect(first["tracer_outputs_equal"], f"{workload}: traced outputs equal untraced")
    expect(first["span_self_sum_s"] <= first["traced_wall_s"],
           f"{workload}: span self times {first['span_self_sum_s']:.4f} s "
           f"<= traced wall {first['traced_wall_s']:.4f} s")
    expect(abs(sum(first["self_times"].values()) - first["span_self_sum_s"]) < 1e-6
           and min(first["self_times"].values()) > -1e-9,
           f"{workload}: self times are non-negative and sum to the root spans")
    expect(runs[0]["counts"] == runs[1]["counts"],
           f"{workload}: counts repeat exactly across two traced runs")


def check_tracer_in_process() -> None:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import pseudolearn
    import pseudolearn.cli  # noqa: F401

    import workload as wl
    from tracer import ENTRY_POINTS, Tracer

    def snapshot():
        return {(name, attr): mod.__dict__.get(attr)
                for name, mod in sys.modules.items() if name.startswith("pseudolearn")
                for _, attr, _ in ENTRY_POINTS}

    before = snapshot()
    for name in wl.SIZES:
        d = WORK / f"inproc-{name}"
        (d / "in").mkdir(parents=True)
        (d / "out").mkdir()
        inputs = wl.make_inputs(name, 5, wl.SIZES[name]["tiny"], d / "in")
        plain = wl.run_op(name, inputs, 7, d / "out")
        tracer = Tracer()
        with tracer:
            traced = wl.run_op(name, inputs, 7, d / "out")
        expect(plain == traced and tracer.spans, f"{name}: in-process traced op equals untraced")
    expect(snapshot() == before, "tracer restores every wrapped function")
    expect(pseudolearn.fit_learner.__module__ == "pseudolearn.learners"
           and not hasattr(pseudolearn.fit_learner, "__wrapped__"), "public API unwrapped")


def check_bare_directory() -> None:
    bare = WORK / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("sim_kernel_cv", 0, cwd=bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and not last[0].startswith("{"),
           "without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        for name in (w["name"] for w in BENCH["workloads"]):
            check_metrics(name, 0, bench(name, 0))
            check_trace(name)
        check_tracer_in_process()
        check_bare_directory()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        if not any(WORK.parent.iterdir()):
            WORK.parent.rmdir()
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
