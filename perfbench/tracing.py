"""Outside-in tracing of the solver layers, and the per-layer metrics.

``ttsvd.solver`` binds the layer functions it calls by name at import time.
:class:`Tracer` replaces those module attributes with wrappers that record a
span per call (name, start, end, parent span, op id) and open a
``count_macs()`` counter for it.  Counters nest, so a span's self MACs are
its inclusive MACs minus those of its child spans; self time likewise.  The
solver source is not touched.
"""

from __future__ import annotations

import functools
import gzip
import json
import time

from ttsvd.counting import count_macs

# attribute of ttsvd.solver -> span name (layer.part)
WRAPPED = {
    "local_block_svd": "solver.local",
    "local_block_eig": "solver.local",
    "krylov_block_svd": "solver.krylov",
    "krylov_block_eig": "solver.krylov",
    "residual": "solver.residual",
    "_gram_residual": "solver.residual",
    "env_init": "environments.update",
    "env_update_left": "environments.update",
    "env_update_right": "environments.update",
    "dense_local_matrix_als": "environments.dense_local",
    "dense_local_matrix_mals": "environments.dense_local",
    "split_block_core_als": "tt.split",
    "split_block_core_mals": "tt.split",
    "matrix_tt_matmul": "tt.gram_matmul",
    "matrix_tt_round": "tt.gram_round",
}
ROOT = "solver.solve"

# Per-layer metric names and units, in the order they are printed.
PER_LAYER = (
    ("solver.local_s", "s"), ("solver.local_calls", "count"),
    ("solver.dense_calls", "count"), ("solver.krylov_s", "s"),
    ("solver.krylov_calls", "count"), ("solver.krylov_iters", "count"),
    ("solver.residual_s", "s"), ("solver.residual_calls", "count"),
    ("solver.sweeps", "count"), ("solver.sweeps_wasted", "count"),
    ("solver.useful_sweep_ratio", "frac"), ("solver.restarts", "count"),
    ("solver.driver_s", "s"),
    ("environments.update_s", "s"), ("environments.update_calls", "count"),
    ("environments.update_macs", "MAC"), ("environments.dense_local_s", "s"),
    ("environments.dense_local_macs", "MAC"),
    ("environments.matvec_macs", "MAC"),
    ("tt.split_s", "s"), ("tt.split_calls", "count"),
    ("tt.gram_matmul_s", "s"), ("tt.gram_round_s", "s"),
    ("generators.build_s", "s"), ("setup.import_s", "s"),
    ("setup.warmup_s", "s"),
    ("counting.macs", "MAC"), ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
)


class GuardError(RuntimeError):
    """Tracing would silently miss a layer."""


class Tracer:
    """Span recorder; spans stay in memory until :meth:`write`."""

    def __init__(self):
        # span: [name, start, end, parent index, op id, inclusive MACs]
        self.spans = []
        self._stack = []
        self.op = None
        self._saved = {}

    def call(self, name, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.op, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            with count_macs() as counter:
                rec[1] = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec[2] = time.perf_counter()
        finally:
            self._stack.pop()
        rec[5] = counter.macs
        return out

    def _wrapper(self, attr, fn):
        name = WRAPPED[attr]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def install(self, module) -> None:
        missing = [attr for attr in WRAPPED if not hasattr(module, attr)]
        if missing:
            raise GuardError(
                f"{module.__name__} no longer binds {', '.join(missing)}; "
                "update WRAPPED in perfbench/tracing.py before trusting a trace")
        for attr in WRAPPED:
            fn = getattr(module, attr)
            self._saved[attr] = fn
            setattr(module, attr, self._wrapper(attr, fn))
        self._module = module

    def uninstall(self) -> None:
        for attr, fn in self._saved.items():
            setattr(self._module, attr, fn)
        self._saved = {}

    def totals(self, by_op=None) -> dict:
        """Per span name: calls, inclusive/self seconds, inclusive/self MACs.

        With ``by_op``, the keys are ``(by_op(op id), span name)``.
        """
        child_t = [0.0] * len(self.spans)
        child_m = [0] * len(self.spans)
        for name, t0, t1, parent, _, macs in self.spans:
            if parent >= 0:
                child_t[parent] += t1 - t0
                child_m[parent] += macs
        out = {}
        for i, (name, t0, t1, _, op, macs) in enumerate(self.spans):
            key = name if by_op is None else (by_op(op), name)
            d = out.setdefault(key, {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                      "incl_macs": 0, "self_macs": 0})
            d["calls"] += 1
            d["incl_s"] += t1 - t0
            d["self_s"] += t1 - t0 - child_t[i]
            d["incl_macs"] += macs
            d["self_macs"] += macs - child_m[i]
        return out

    def write(self, path) -> None:
        base = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for name, t0, t1, parent, op, macs in self.spans:
                fh.write(json.dumps({"name": name, "start": t0 - base,
                                     "end": t1 - base, "parent": parent,
                                     "op": op, "macs": macs}) + "\n")


def layer_metrics(tracer: Tracer, reports, n_passes: int, required,
                  setup: dict, untraced_s: float, krylov_iterations) -> dict:
    """Per-layer metrics, per pass, from a traced replay of ``n_passes``."""
    tot = tracer.totals()
    zero = [layer for layer in required
            if tot.get(layer, {}).get("calls", 0) == 0]
    if zero:
        raise GuardError(f"layers recorded zero calls: {', '.join(zero)}")

    def g(name, key):
        return tot.get(name, {}).get(key, 0)

    sweeps = sum(r.total_sweeps for r in reports)
    useful = sum(r.sweeps_used for r in reports if r.termination == "converged")
    solve_s = g(ROOT, "incl_s")
    per = 1.0 / n_passes
    values = {
        "solver.local_s": g("solver.local", "self_s") * per,
        "solver.local_calls": g("solver.local", "calls") * per,
        "solver.dense_calls": (g("solver.local", "calls")
                               - g("solver.krylov", "calls")) * per,
        "solver.krylov_s": g("solver.krylov", "self_s") * per,
        "solver.krylov_calls": g("solver.krylov", "calls") * per,
        "solver.krylov_iters": sum(map(krylov_iterations, reports)) * per,
        "solver.residual_s": g("solver.residual", "self_s") * per,
        "solver.residual_calls": g("solver.residual", "calls") * per,
        "solver.sweeps": sweeps * per,
        "solver.sweeps_wasted": (sweeps - useful) * per,
        "solver.useful_sweep_ratio": useful / sweeps if sweeps else 0.0,
        "solver.restarts": sum(r.restarts_used for r in reports) * per,
        "solver.driver_s": g(ROOT, "self_s") * per,
        "environments.update_s": g("environments.update", "self_s") * per,
        "environments.update_calls": g("environments.update", "calls") * per,
        "environments.update_macs": g("environments.update", "self_macs") * per,
        "environments.dense_local_s":
            g("environments.dense_local", "self_s") * per,
        "environments.dense_local_macs":
            g("environments.dense_local", "self_macs") * per,
        "environments.matvec_macs": g("solver.krylov", "incl_macs") * per,
        "tt.split_s": g("tt.split", "self_s") * per,
        "tt.split_calls": g("tt.split", "calls") * per,
        "tt.gram_matmul_s": g("tt.gram_matmul", "self_s") * per,
        "tt.gram_round_s": g("tt.gram_round", "self_s") * per,
        "generators.build_s": setup["build_s"],
        "setup.import_s": setup["import_s"],
        "setup.warmup_s": setup["warmup_s"],
        "counting.macs": g(ROOT, "incl_macs") * per,
        "trace.overhead_frac": (solve_s - untraced_s) / untraced_s,
        "trace.unattributed_frac": g(ROOT, "self_s") / solve_s,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}
