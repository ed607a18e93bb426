"""One benchmark workload, run in a fresh interpreter started by run.py.

Modes:

``setup``    import pseudolearn and generate the inputs, report the time.
``measure``  set up, run one untimed warm-up op, then time ops until
             ``--seconds`` have passed, each after a SpeedProbe; check
             every op's outputs.
``trace``    set up, run one untimed warm-up op, then run each of the
             first ``TRACE_OPS`` ops untraced and again traced; report
             per-layer self times and counts of the traced ops.

An op reads inputs generated from ``--seed`` and writes CSV outputs.
Op ``i`` uses input ``i % POOL`` of the run's seed.  Outputs are checked
against the stored reference (``reference/<workload>.json.gz``, made for
``DEFAULT_SEED`` at full size); on any other seed or size they are
checked for invariants instead: exit code 0, finite numbers, and
byte-identical output whenever an input repeats.

The only output of this process is the JSON file named by ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gzip
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
POOL = 8
TRACE_OPS = 2
REL_TOL = 1e-12
PROBE_REF_S = 0.1  # reference speed: the machine on which SpeedProbe takes 0.1 s
PROPENSITY_EXPR = "0.1 + 0.8*(x[0] > 0)"
CLI_WORKLOADS = ("sim_knn_oracle", "cli_csv")

_CV_KERNEL = {
    "crossfit": {
        "outcome_spec": {"kind": "kernel"},
        "propensity_spec": {"kind": "kernel"},
        "n_folds": 5,
    },
    "second_stage": {"kind": "kernel"},
}
_KNN = {
    "crossfit": {
        "outcome_spec": {"kind": "knn", "k": 20},
        "propensity_spec": {"kind": "mean"},
        "n_folds": 5,
    },
    "second_stage": {"kind": "knn", "k": 100},
}
_FIXED_KERNEL = {
    "crossfit": {
        "outcome_spec": {"kind": "kernel", "bandwidth": 0.1},
        "propensity_spec": {"kind": "kernel", "bandwidth": 0.1},
        "n_folds": 5,
    },
    "second_stage": {"kind": "kernel", "bandwidth": 0.1},
}


def _forest(n_trees: int) -> dict:
    spec = {"kind": "forest", "n_trees": n_trees, "min_leaf": 10}
    return {
        "crossfit": {"outcome_spec": spec, "propensity_spec": spec, "n_folds": 5},
        "second_stage": spec,
    }


# Input sizes per workload and size class.
SIZES = {
    "sim_kernel_cv": {"full": {"n": 2000, "n_test": 1000}, "tiny": {"n": 200, "n_test": 100}},
    "sim_knn_oracle": {"full": {"n": 5000, "n_test": 1000}, "tiny": {"n": 500, "n_test": 100}},
    "sim_forest_10d": {
        "full": {"n": 2000, "n_test": 1000, "n_trees": 10},
        "tiny": {"n": 200, "n_test": 100, "n_trees": 3},
    },
    "cli_csv": {"full": {"rows": 10000, "queries": 500}, "tiny": {"rows": 400, "queries": 50}},
}


def experiment(workload: str, size: dict) -> dict:
    """The simulate config (JSON form) of a simulation workload."""
    if workload == "sim_kernel_cv":
        dgp = {"kind": "1d", "propensity": "strong_selection"}
        methods = [
            {"name": "if", "kind": "if_learner", "use_known_propensity": True,
             "if_config": _CV_KERNEL},
            {"name": "plugin", "kind": "plugin", "if_config": _CV_KERNEL},
            {"name": "group_eif", "kind": "group_if_learner", "use_known_propensity": True,
             "if_config": _CV_KERNEL,
             "group": {"n_groups": 5, "first_stage": "plugin",
                       "second_stage_estimator": "eif"}},
        ]
    elif workload == "sim_knn_oracle":
        dgp = {"kind": "1d", "propensity": "constant_half"}
        methods = [
            {"name": "if", "kind": "if_learner", "use_known_propensity": True,
             "if_config": _KNN},
            {"name": "oracle", "kind": "oracle", "if_config": _KNN},
        ]
    else:
        forest = _forest(size["n_trees"])
        dgp = {"kind": "10d", "confounded": True, "effect": "xi_product"}
        methods = [
            {"name": "if", "kind": "if_learner", "if_config": forest},
            {"name": "plugin", "kind": "plugin", "if_config": forest},
        ]
    return {
        "experiment_id": workload,
        "dgp": dgp,
        "methods": methods,
        "n_grid": [size["n"]],
        "replications": 1,
        "n_test": size["n_test"],
        "seed": 0,
    }


def op_seed(seed: int, i: int) -> int:
    return seed * 1000 + i % POOL


# -- inputs --------------------------------------------------------------


def _write_csv(path: Path, header, columns) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in zip(*columns):
            w.writerow([format(float(v), ".17g") for v in row])


def make_inputs(workload: str, seed: int, size: dict, indir: Path) -> dict:
    """Generate the run's inputs from ``seed``; return what the ops need."""
    if workload.startswith("sim_"):
        cfg = indir / "experiment.json"
        cfg.write_text(json.dumps(experiment(workload, size), indent=1))
        return {"config": cfg}
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(seed))
    n, m = size["rows"], size["queries"]
    x = rng.uniform(-1.0, 1.0, size=n)
    pi = 0.1 + 0.8 * (x > 0.0)
    w = (rng.uniform(size=n) < pi).astype(float)
    y = np.sin(3.0 * x) + 0.5 * w * x + rng.normal(scale=0.3, size=n)
    data = indir / "observations.csv"
    _write_csv(data, ["x", "y", "w"], [x, y, w])
    query = indir / "query.csv"
    _write_csv(query, ["x"], [rng.uniform(-1.0, 1.0, size=m)])
    columns = {"covariates": ["x"], "outcome": "y", "treatment": "w"}
    fit_cfg = indir / "fit.json"
    fit_cfg.write_text(json.dumps({"columns": columns, "if_config": _FIXED_KERNEL}))
    group_cfg = indir / "group.json"
    group_cfg.write_text(json.dumps({
        "columns": columns,
        "group": {"n_groups": 5, "first_stage": "plugin", "if_config": _FIXED_KERNEL},
    }))
    return {"data": data, "query": query, "fit_config": fit_cfg, "group_config": group_cfg}


# -- ops -----------------------------------------------------------------


def _cli(argv) -> None:
    import pseudolearn.cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = pseudolearn.cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"pseudolearn {argv[0]} exited with code {code}")


def run_op(workload: str, inputs: dict, seed: int, outdir: Path) -> dict:
    """Run one op; return {output file name: text}.  Manifests are checked, not returned."""
    if workload == "sim_knn_oracle":
        out = outdir / "results.csv"
        _cli(["simulate", "--config", inputs["config"], "--seed", seed,
              "--jobs", 1, "--out", out])
        names = ["results.csv"]
    elif workload.startswith("sim_"):
        import dataclasses

        import pseudolearn.simulate as simulate

        blob = json.loads(inputs["config"].read_text())
        exp = dataclasses.replace(simulate.ExperimentConfig.from_dict(blob), seed=seed)
        simulate.run_replications(exp, R=1).to_csv(outdir / "results.csv")
        return {"results.csv": (outdir / "results.csv").read_text()}
    else:
        common = ["--data", inputs["data"], "--known-propensity", PROPENSITY_EXPR,
                  "--seed", seed]
        _cli(["fit", "--config", inputs["fit_config"], "--query", inputs["query"],
              "--out", outdir / "predictions.csv", *common])
        _cli(["group", "--config", inputs["group_config"],
              "--out", outdir / "groups.csv", *common])
        names = ["predictions.csv", "groups.csv"]
    outputs = {}
    for name in names:
        outputs[name] = (outdir / name).read_text()
        json.loads((outdir / f"{name}.manifest.json").read_text())
    return outputs


def output_bytes(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())


# -- checks --------------------------------------------------------------


def _cells(text: str):
    return [cell for row in csv.reader(io.StringIO(text)) for cell in row]


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def check(outputs: dict, reference: dict | None, previous: dict | None) -> list[str]:
    """Problems with one op's outputs (empty when correct)."""
    problems = []
    for name, text in outputs.items():
        cells = _cells(text)
        nums = [v for v in map(_number, cells) if v is not None]
        if not nums:
            problems.append(f"{name}: no numbers")
        if not all(math.isfinite(v) for v in nums):
            problems.append(f"{name}: non-finite value")
    if previous is not None and previous != outputs:
        problems.append("repeated input gave different output")
    if reference is not None:
        if sorted(reference) != sorted(outputs):
            return problems + [f"files {sorted(outputs)} != reference {sorted(reference)}"]
        for name, text in outputs.items():
            got, want = _cells(text), _cells(reference[name])
            if len(got) != len(want):
                problems.append(f"{name}: {len(got)} cells, reference has {len(want)}")
                continue
            for a, b in zip(got, want):
                va, vb = _number(a), _number(b)
                if va is None or vb is None:
                    ok = a == b
                else:
                    ok = abs(va - vb) <= REL_TOL * max(abs(va), abs(vb))
                if not ok:
                    problems.append(f"{name}: {a} differs from reference {b}")
                    break
    return problems


def load_reference(workload: str) -> list[dict]:
    with gzip.open(HERE / "reference" / f"{workload}.json.gz", "rt") as f:
        return json.load(f)["ops"]


# -- environment ---------------------------------------------------------


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# -- main ----------------------------------------------------------------


class Checker:
    """Checks each op against the reference or invariants; keeps the tally."""

    def __init__(self, workload: str, seed: int, size: str):
        use_ref = seed == DEFAULT_SEED and size == "full"
        self.reference = load_reference(workload) if use_ref else None
        self.seen: dict[int, dict] = {}
        self.attempted = self.failed = self.byte_identical = 0
        self.problems: list[str] = []

    def __call__(self, i: int, outputs: dict | None, error: str | None = None) -> None:
        self.attempted += 1
        k = i % POOL
        if outputs is None:
            problems = [error]
        else:
            ref = self.reference[k] if self.reference is not None else None
            problems = check(outputs, ref, self.seen.get(k))
            self.seen.setdefault(k, outputs)
            if ref is not None and ref == outputs:
                self.byte_identical += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"op {i}: {p}" for p in problems)

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "reference_checked": self.reference is not None,
            "byte_identical": self.byte_identical,
            "problems": self.problems[:20],
        }


def _probe_server(cpu: int) -> int:
    """Serve SpeedProbe: one timing per line read from stdin."""
    os.sched_setaffinity(0, {cpu})
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(0))
    small = rng.uniform(size=300)
    big = rng.uniform(size=2_000_000)
    for _ in sys.stdin:
        t0 = time.perf_counter()
        for _ in range(1500):
            c = np.cumsum(small[np.argsort(small, kind="stable")])
            (c[:-1] ** 2 / 3.0).argmax()
        for _ in range(4):
            np.exp(-big * big).sum()
        print(time.perf_counter() - t0, flush=True)
    return 0


class SpeedProbe:
    """Times a fixed CPU and memory workload that runs no pseudolearn code.

    On a shared machine the speed available to one process swings by
    20-40 % over tens of seconds.  The probe runs just before each timed
    op, on the same CPU, so both see the same machine; scaling the op's
    time by ``PROBE_REF_S / probe`` reports it at a fixed reference
    speed.  The probe mixes small-array interpreter work (like tree
    growing) with streaming over 16 MB arrays (like dense m x n
    prediction).  It runs in its own process so that its memory does not
    count in this process's peak RSS.
    """

    def __enter__(self):
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self._proc = subprocess.Popen(
            [sys.executable, __file__, "--probe-server", str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __call__(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        return False


def _timed_op(workload, inputs, seed, i, outdir, checker, tracer=None):
    """Run op ``i``; return (seconds, outputs or None)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            outputs = run_op(workload, inputs, op_seed(seed, i), outdir)
        else:
            with tracer:
                outputs = run_op(workload, inputs, op_seed(seed, i), outdir)
        error = None
    except Exception as e:  # an op that raises is a failed op, not a crash
        outputs, error = None, f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - t0
    checker(i, outputs, error)
    return seconds, outputs


def main() -> int:
    if sys.argv[1:2] == ["--probe-server"]:
        return _probe_server(int(sys.argv[2]))
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(SIZES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    p.add_argument("--size", default="full", choices=("full", "tiny"))
    p.add_argument("--workdir", required=True, type=Path)
    p.add_argument("--result", required=True, type=Path)
    args = p.parse_args()
    indir, outdir = args.workdir / "in", args.workdir / "out"
    indir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(parents=True, exist_ok=True)
    size = SIZES[args.workload][args.size]

    t0 = time.perf_counter()
    import pseudolearn  # noqa: F401  (part of the set-up being timed)
    import pseudolearn.cli  # noqa: F401

    inputs = make_inputs(args.workload, args.seed, size, indir)
    result = {"setup_s": time.perf_counter() - t0}
    if args.mode == "setup":
        args.result.write_text(json.dumps(result))
        return 0
    if not Path(pseudolearn.__file__).resolve().is_relative_to(Path.cwd().resolve()):
        raise SystemExit(f"pseudolearn imported from outside the checkout: {pseudolearn.__file__}")
    result["env"] = environment()
    result["sizes"] = size
    checker = Checker(args.workload, args.seed, args.size)
    run = (args.workload, inputs, args.seed)

    _timed_op(*run, 0, outdir, checker)  # warm-up: lazy imports, caches
    if args.mode == "measure":
        seconds, probes = [], []
        with SpeedProbe() as probe:
            start = time.perf_counter()
            i = 0
            # stop when the next op would end past the budget more likely than not
            while not seconds or time.perf_counter() - start + seconds[-1] / 2 < args.seconds:
                probes.append(probe())
                seconds.append(_timed_op(*run, i, outdir, checker)[0])
                i += 1
        scaled = [t * PROBE_REF_S / p for t, p in zip(seconds, probes)]
        result.update(
            op_seconds=seconds,
            probe_seconds=probes,
            ops_per_s=len(scaled) / sum(scaled),
            op_s_p50=statistics.median(scaled),
            raw_ops_per_s=len(seconds) / sum(seconds),
            raw_op_s_p50=statistics.median(seconds),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    else:
        tracer = Tracer()
        untraced = traced = 0.0
        equal = True
        for i in range(TRACE_OPS):
            t_u, out_u = _timed_op(*run, i, outdir, checker)
            for f in outdir.iterdir():
                f.unlink()
            t_t, out_t = _timed_op(*run, i, outdir, checker, tracer)
            if args.workload in CLI_WORKLOADS:
                tracer.counts["cli.output_bytes"] += output_bytes(outdir)
            untraced += t_u
            traced += t_t
            equal = equal and out_u is not None and out_u == out_t
        result.update(
            traced_ops=TRACE_OPS,
            tracer_outputs_equal=equal,
            untraced_wall_s=untraced,
            traced_wall_s=traced,
            span_self_sum_s=tracer.root_seconds(),
            self_times=tracer.self_times(),
            counts=dict(tracer.counts),
            spans=tracer.spans,
        )
        if not equal:
            checker.problems.append("traced outputs differ from untraced outputs")
            checker.failed += 1
    result.update(checker.summary())
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
