"""Span tracing of incutime from outside the package.

Modules import their collaborators with ``from .x import y``, so a call is
traced by replacing the name in the module that looks it up, not in the
module that defines it.  ``WRAP_POINTS`` lists those lookup points.  A point
whose attribute no longer exists is skipped and reported as missing, so the
metrics that depend only on it read as absent instead of crashing the run.

Each traced call becomes a span (name, start, end, parent, error).  Spans are
kept in memory for one op and reduced to per-op metrics by ``op_metrics``;
self time is a span's duration minus that of its direct children.

Only ``run.py --trace 1`` and ``child.py`` import this module.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import Counter, defaultdict
from time import perf_counter


def _order(counters, args, kwargs, result):
    counters["linalg.spd_solve_order_sum"] += args[0].shape[0]


def _dense(counters, args, kwargs, result):
    n, m = result.dense.shape
    counters["weights.dense_mb"] = max(counters["weights.dense_mb"], n * m * 8 / 1e6)


def _skipped(counters, args, kwargs, result):
    counters["inference.replicates_skipped"] += result[1]


def _pinv(counters, args, kwargs, result):
    counters["inference.pinv_fallbacks"] += int(result.used_pseudo_inverse)


# (module, attribute, span name, note); names in COUNT_ONLY are counted, not spanned
WRAP_POINTS = [
    ("incutime.cli", "read_dataset_csv", "cli.read_dataset_csv", None),
    ("incutime.cli", "validate_dataset", "model.validate_dataset", None),
    ("incutime.cli", "_write_estimate_csv", "cli.write_csv", None),
    ("incutime.inference", "IntervalTable.to_csv", "cli.write_csv", None),
    ("incutime.cli", "fit_npmle", "solver.fit", None),
    ("incutime.cli", "fisher_result", "inference.fisher_result", _pinv),
    ("incutime.cli", "bootstrap_ci", "bootstrap.bootstrap_ci", None),
    ("incutime.cli", "wald_intervals", "inference.wald_intervals", None),
    ("incutime.solver", "build_weight_matrix", "weights.build_weight_matrix", _dense),
    ("incutime.solver", "_QuadraticModel", "solver.quadratic_model", None),
    ("incutime.solver", "_inner_loop", "solver.inner_loop", None),
    ("incutime.solver", "armijo_search", "solver.armijo_search", None),
    ("incutime.solver", "fenchel_residuals", "solver.fenchel_residuals", None),
    ("incutime.solver", "phi", "solver.phi", None),
    ("incutime.solver", "spd_solve", "linalg.spd_solve", _order),
    ("incutime.bootstrap", "build_weight_matrix", "weights.build_weight_matrix", _dense),
    ("incutime.bootstrap", "_refit_rows", "bootstrap.replicate", None),
    ("incutime.bootstrap", "_minimize", "solver.fit", None),
    ("incutime.bootstrap", "resample", "inference.resample", None),
    ("incutime.inference", "fit_npmle", "solver.fit", None),
    ("incutime.inference", "spd_invert", "linalg.spd_invert", None),
    ("incutime.inference", "observed_fisher_singly", "inference.observed_fisher", None),
    ("incutime.inference", "observed_fisher_doubly", "inference.observed_fisher", None),
    (
        "incutime.inference",
        "averaged_inverse_information",
        "inference.averaged_inverse_information",
        _skipped,
    ),
]

ROOT_SPAN = "cli.main"
COUNT_ONLY = {"solver.phi": "solver.phi_evals"}


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.missing = []
        self._stack = []
        self._restore = []

    def __enter__(self):
        self.missing = []
        for module_name, attr, span, note in WRAP_POINTS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, leaf):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(owner, leaf)
            if span in COUNT_ONLY:
                wrapped = self._counted(original, COUNT_ONLY[span])
            else:
                wrapped = self._spanned(original, span, note)
            setattr(owner, leaf, wrapped)
            self._restore.append((owner, leaf, original))
        return self

    def __exit__(self, *exc):
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()
        return False

    def _counted(self, fn, key):
        counters = self.counters

        @functools.wraps(fn, updated=())
        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanned(self, fn, name, note):
        @functools.wraps(fn, updated=())
        def spanned(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if note is not None:
                note(self.counters, args, kwargs, result)
            return result

        return spanned

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        error = None
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, error)

    def run_op(self, main, argv):
        """One traced op: ``main(argv)`` under the root span; returns its exit code."""
        self.spans.clear()
        self.counters.clear()
        return self.call(ROOT_SPAN, main, argv)

    def op_metrics(self) -> dict:
        """Per-op metric values from the spans and counters of the last op."""
        return op_metrics(self.spans, self.counters)


def op_metrics(spans, counters) -> dict:
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = defaultdict(float)
    calls = Counter()
    errors = Counter()
    for i, (name, start, end, parent, error) in enumerate(spans):
        self_s[name] += end - start - child_time[i]
        calls[name] += 1
        if error is not None:
            errors[name, error] += 1
    parent_name = {i: spans[i][0] for i in range(len(spans))}
    inner_solves = sum(
        1
        for name, _, _, parent, _ in spans
        if name == "linalg.spd_solve" and parent_name.get(parent) == "solver.inner_loop"
    )
    replicates_failed = sum(
        1
        for name, _, _, parent, error in spans
        if name == "solver.fit"
        and error is not None
        and parent_name.get(parent) in ("bootstrap.bootstrap_ci", "bootstrap.replicate")
    )
    fits = calls["solver.fit"] - sum(n for (name, _), n in errors.items() if name == "solver.fit")
    outer = calls["solver.quadratic_model"]
    solves = calls["linalg.spd_solve"]
    factorizations = solves + calls["linalg.spd_invert"]
    singular = errors["linalg.spd_solve", "SingularMatrixError"] + errors[
        "linalg.spd_invert", "SingularMatrixError"
    ]
    return {
        "cli.main_s": self_s[ROOT_SPAN],
        "cli.read_dataset_csv_s": self_s["cli.read_dataset_csv"],
        "cli.write_csv_s": self_s["cli.write_csv"],
        "model.validate_dataset_s": self_s["model.validate_dataset"],
        "weights.build_weight_matrix_s": self_s["weights.build_weight_matrix"],
        "weights.build_calls": calls["weights.build_weight_matrix"],
        "weights.dense_mb": counters["weights.dense_mb"],
        "solver.fit_s": self_s["solver.fit"],
        "solver.fits": fits,
        "solver.outer_iters": outer,
        "solver.quadratic_model_s": self_s["solver.quadratic_model"],
        "solver.inner_loop_s": self_s["solver.inner_loop"],
        "solver.inner_solves": inner_solves,
        "solver.armijo_search_s": self_s["solver.armijo_search"],
        "solver.phi_evals": counters["solver.phi_evals"],
        "solver.phi_evals_per_outer": counters["solver.phi_evals"] / outer if outer else 0.0,
        "solver.fenchel_residuals_s": self_s["solver.fenchel_residuals"],
        "linalg.spd_solve_s": self_s["linalg.spd_solve"],
        "linalg.spd_solve_calls": solves,
        "linalg.spd_solve_order": (
            counters["linalg.spd_solve_order_sum"] / solves if solves else 0.0
        ),
        "linalg.spd_invert_s": self_s["linalg.spd_invert"],
        "linalg.spd_invert_calls": calls["linalg.spd_invert"],
        "linalg.singular": singular / factorizations if factorizations else 0.0,
        "bootstrap.replicate_s": (
            self_s["bootstrap.bootstrap_ci"] + self_s["bootstrap.replicate"]
        ),
        "bootstrap.replicates_failed": replicates_failed,
        "inference.observed_fisher_s": self_s["inference.observed_fisher"],
        "inference.replicate_s": self_s["inference.averaged_inverse_information"],
        "inference.resample_s": self_s["inference.resample"],
        "inference.replicates_skipped": counters["inference.replicates_skipped"],
        "inference.pinv_fallbacks": counters["inference.pinv_fallbacks"],
    }


# Span names each metric needs ("a|b": either will do).
# A metric with a need none of whose wrap points exists is absent, not zero.
METRIC_SOURCES = {
    "cli.read_dataset_csv_s": ["cli.read_dataset_csv"],
    "cli.write_csv_s": ["cli.write_csv"],
    "model.validate_dataset_s": ["model.validate_dataset"],
    "weights.build_weight_matrix_s": ["weights.build_weight_matrix"],
    "weights.build_calls": ["weights.build_weight_matrix"],
    "weights.dense_mb": ["weights.build_weight_matrix"],
    "solver.fit_s": ["solver.fit"],
    "solver.fits": ["solver.fit"],
    "solver.outer_iters": ["solver.quadratic_model"],
    "solver.quadratic_model_s": ["solver.quadratic_model"],
    "solver.inner_loop_s": ["solver.inner_loop"],
    "solver.inner_solves": ["solver.inner_loop", "linalg.spd_solve"],
    "solver.armijo_search_s": ["solver.armijo_search"],
    "solver.phi_evals": ["solver.phi"],
    "solver.phi_evals_per_outer": ["solver.phi", "solver.quadratic_model"],
    "solver.fenchel_residuals_s": ["solver.fenchel_residuals"],
    "linalg.spd_solve_s": ["linalg.spd_solve"],
    "linalg.spd_solve_calls": ["linalg.spd_solve"],
    "linalg.spd_solve_order": ["linalg.spd_solve"],
    "linalg.spd_invert_s": ["linalg.spd_invert"],
    "linalg.spd_invert_calls": ["linalg.spd_invert"],
    "linalg.singular": ["linalg.spd_solve|linalg.spd_invert"],
    "bootstrap.replicate_s": ["bootstrap.bootstrap_ci|bootstrap.replicate"],
    "bootstrap.replicates_failed": ["solver.fit", "bootstrap.bootstrap_ci|bootstrap.replicate"],
    "inference.observed_fisher_s": ["inference.observed_fisher"],
    "inference.replicate_s": ["inference.averaged_inverse_information"],
    "inference.resample_s": ["inference.resample"],
    "inference.replicates_skipped": ["inference.averaged_inverse_information"],
    "inference.pinv_fallbacks": ["inference.fisher_result"],
}


def absent_metrics(missing) -> dict:
    """Metric name -> reason, for metrics with a need that no wrap point meets."""
    points = defaultdict(list)
    for module_name, attr, span, _ in WRAP_POINTS:
        points[span].append(f"{module_name}.{attr}")
    absent = {}
    for metric, needs in METRIC_SOURCES.items():
        for need in needs:
            wanted = [point for span in need.split("|") for point in points[span]]
            if set(wanted) <= set(missing):
                absent[metric] = "not wrapped: " + ", ".join(wanted)
    return absent


def median_metrics(per_op) -> dict:
    """Median over ops of each per-op metric."""
    return {key: statistics.median(op[key] for op in per_op) for key in per_op[0]}
