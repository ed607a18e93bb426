"""Outside-in tracer for pseudolearn.

The package imports its functions with ``from .x import y``, so every
module that calls ``y`` holds its own reference to it.  ``Tracer``
replaces that reference in every loaded ``pseudolearn`` module with a
wrapper that records a span (name, start, end, parent) and counts, and
wraps the ``predict`` / ``predict_oob`` of every model a learner fit
returns.  Nothing inside ``src/`` changes; leaving the ``with`` block
restores every original reference.

Spans and counts are kept in memory.  ``self_times`` derives each
span's self time (its duration minus its children's durations).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (defining module, function name, span name); span name None means the
# name is chosen per call (learner fits are named by learner kind).
ENTRY_POINTS = (
    ("pseudolearn.learners", "fit_learner", None),
    ("pseudolearn.learners", "fit_probability", "learners.fit_probability"),
    ("pseudolearn.data", "make_folds", "data.make_folds"),
    ("pseudolearn.data", "load_csv", "data.load_csv"),
    ("pseudolearn.crossfit", "crossfit_nuisances", "crossfit.crossfit_nuisances"),
    ("pseudolearn.crossfit", "oob_nuisances", "crossfit.oob_nuisances"),
    ("pseudolearn.crossfit", "evaluate_propensity", "crossfit.evaluate_propensity"),
    ("pseudolearn.pseudo", "build_pseudo_outcomes", "pseudo.build_pseudo_outcomes"),
    ("pseudolearn.iflearner", "fit_if_learner", "iflearner.fit_if_learner"),
    ("pseudolearn.iflearner", "fit_plugin_learner", "iflearner.fit_plugin_learner"),
    ("pseudolearn.iflearner", "fit_oracle_learner", "iflearner.fit_oracle_learner"),
    ("pseudolearn.grouplearner", "fit_group_learner", "grouplearner.fit_group_learner"),
    ("pseudolearn.simulate", "sample", "simulate.sample"),
    ("pseudolearn.simulate", "evaluate_mse", "simulate.evaluate_mse"),
    ("pseudolearn.simulate", "run_replications", "simulate.run_replications"),
    ("pseudolearn.cli", "main", "cli.main"),
)


def _rows(a) -> int:
    shape = getattr(a, "shape", None)
    return int(shape[0]) if shape else len(a)


class Tracer:
    """Records spans and counts while installed (use as a context manager)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def root_seconds(self) -> float:
        """Wall time covered by top-level spans (equals the sum of self times)."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    # -- wrappers --------------------------------------------------------

    def _wrap_model(self, model, kind: str, n_train: int, d: int) -> None:
        pairs = kind in ("kernel", "knn")
        for attr in ("predict", "predict_oob"):
            method = getattr(model, attr, None)
            if method is None:
                continue

            def traced(*args, _method=method, _attr=attr, **kwargs):
                if _attr == "predict_oob":
                    m = n_train
                else:
                    xq = args[0] if args else kwargs["Xq"]
                    shape = getattr(xq, "shape", None)
                    m = _rows(xq) if shape is None or len(shape) != 1 or d == 1 else 1
                self.counts[f"learners.{kind}.predict_calls"] += 1
                self.counts[f"learners.{kind}.predict_rows"] += m
                if pairs:
                    self.counts[f"learners.{kind}.predict_pairs"] += m * n_train
                return self.call(f"learners.{kind}.predict", _method, *args, **kwargs)

            setattr(model, attr, traced)

    def _wrapper(self, fn, span_name, namespace):
        short = fn.__name__

        if short == "fit_learner":
            def traced(spec, X, y, seed=0):
                kind = spec.kind
                n = _rows(X)
                self.counts[f"learners.{kind}.fit_calls"] += 1
                self.counts[f"learners.{kind}.fit_rows"] += n
                if kind == "forest":
                    self.counts["learners.forest.fit_trees"] += spec.n_trees
                model = self.call(f"learners.{kind}.fit", fn, spec, X, y, seed=seed)
                self._wrap_model(model, kind, n, model.n_features)
                return model
        elif short == "fit_probability":
            def traced(*args, **kwargs):
                model = self.call(span_name, fn, *args, **kwargs)
                self._wrap_model(model, "clip", 0, model.n_features)
                return model
        else:
            def traced(*args, **kwargs):
                result = self.call(span_name, fn, *args, **kwargs)
                if short == "make_folds":
                    self.counts["data.make_folds_calls"] += 1
                    if namespace == "pseudolearn.crossfit":
                        self.counts["crossfit.fold_draws"] += 1
                elif short == "load_csv":
                    self.counts["data.load_csv_rows"] += result.n
                elif short == "evaluate_propensity":
                    self.counts["crossfit.evaluate_propensity_rows"] += args[0].n
                elif short == "build_pseudo_outcomes":
                    self.counts["pseudo.rows"] += args[0].n
                return result

        traced.__wrapped__ = fn
        return traced

    # -- install / restore -----------------------------------------------

    def __enter__(self):
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "pseudolearn" or name.startswith("pseudolearn."))
        ]
        for home, attr, span_name in ENTRY_POINTS:
            original = getattr(sys.modules[home], attr)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, self._wrapper(original, span_name, mod.__name__))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        return False
