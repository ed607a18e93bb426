"""Regenerate the stored reference outputs under perfbench/reference/.

    python3 perfbench/make_reference.py [workload ...]

Runs ops 0 .. POOL-1 of each workload at full size for DEFAULT_SEED and
stores their output files.  Run it only on a commit whose outputs are
known good: the benchmark compares every later run at that seed with it.
"""

import gzip
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workload as wl  # noqa: E402


def main(names) -> None:
    for name in names or sorted(wl.SIZES):
        work = ROOT / ".perfbench_work" / f"reference-{name}"
        (work / "in").mkdir(parents=True, exist_ok=True)
        (work / "out").mkdir(exist_ok=True)
        inputs = wl.make_inputs(name, wl.DEFAULT_SEED, wl.SIZES[name]["full"], work / "in")
        ops = [
            wl.run_op(name, inputs, wl.op_seed(wl.DEFAULT_SEED, i), work / "out")
            for i in range(wl.POOL)
        ]
        shutil.rmtree(work)
        (HERE / "reference").mkdir(exist_ok=True)
        path = HERE / "reference" / f"{name}.json.gz"
        blob = {"workload": name, "seed": wl.DEFAULT_SEED, "ops": ops}
        with gzip.GzipFile(path, "wb", mtime=0) as f:
            f.write(json.dumps(blob, indent=1, sort_keys=True).encode())
        print(f"wrote {path.relative_to(ROOT)} ({len(ops)} ops)")


if __name__ == "__main__":
    main(sys.argv[1:])
