"""Layer tracer for the padlab benchmark.

The tracer measures each layer from outside the package: it replaces the
public functions and methods named in LAYERS with wrappers, at every place
the name is bound (``padlab.dynamics.exp`` as well as
``padlab.liegroup.exp``), and restores the originals on uninstall.  No file
of the package changes.

A wrapped call records a span ``[name, start_ns, end_ns, parent, op]`` in
memory; the parent is the index of the enclosing span and ``op`` the id of
the benchmark op that caused it (-1 for fixture set-up).  Self time is a
span's duration minus the durations of its direct children.  Scalar
addition and multiplication are counted, never spanned: a span per scalar
operation would cost more than the operation.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# (metric prefix, module, attribute path).  A dotted path names a method on
# a class; a bare name is a module-level function, rebound everywhere.  The
# oracle's two counting routes are private helpers of bowen_count_oracle,
# wrapped so that FULL and FACTORED are told apart.
LAYERS = [
    ("matrix.matmul", "padlab.matrix", "PadicMatrix.__matmul__"),
    ("matrix.inverse", "padlab.matrix", "PadicMatrix.inverse"),
    ("matrix.det", "padlab.matrix", "PadicMatrix.det"),
    ("matrix.char_poly", "padlab.matrix", "PadicMatrix.char_poly"),
    ("matrix.hensel_roots", "padlab.matrix", "hensel_roots"),
    ("matrix.nullspace", "padlab.matrix", "nullspace"),
    ("matrix.zp_module_basis", "padlab.matrix", "zp_module_basis"),
    ("liegroup.exp", "padlab.liegroup", "exp"),
    ("liegroup.log", "padlab.liegroup", "log"),
    ("liegroup.bch", "padlab.liegroup", "bch"),
    ("liegroup.horospherical_factor", "padlab.liegroup", "horospherical_factor"),
    ("liegroup.ball_membership", "padlab.liegroup", "ball_membership"),
    ("liegroup.algebra_coordinates", "padlab.liegroup", "GroupSpec.algebra_coordinates"),
    ("dynamics.decompose", "padlab.dynamics", "decompose"),
    ("dynamics.full", "padlab.dynamics", "_count_full"),
    ("dynamics.factored", "padlab.dynamics", "_count_factored"),
    ("dynamics.atoms", "padlab.dynamics", "atom_representatives"),
    ("entropylab.stationary", "padlab.entropylab", "MarkovMeasure.__init__"),
    ("entropylab.entropy_gap", "padlab.entropylab", "entropy_gap"),
    ("entropylab.telescope", "padlab.entropylab", "telescope_bound_check"),
    ("entropylab.pinsker", "padlab.entropylab", "pinsker_check"),
    ("spectral.xi_pgl2", "padlab.spectral", "xi_pgl2"),
    ("spectral.cartan_valuations", "padlab.spectral", "cartan_valuations"),
    ("spectral.oh_bound", "padlab.spectral", "oh_bound"),
    ("spectral.mixing_bound", "padlab.spectral", "mixing_bound"),
    ("spectral.ball_measure_at", "padlab.spectral", "ball_measure_at"),
    ("spectral.test_vector_norm", "padlab.spectral", "test_vector_norm"),
    ("spectral.equidistribution_bound", "padlab.spectral", "equidistribution_bound"),
    ("spectral.kappa", "padlab.spectral", "kappa"),
    ("spectral.theorem1_rhs", "padlab.spectral", "theorem1_rhs"),
    ("cli.main", "padlab.cli", "main"),
]

# spans whose failures are reported as a layer metric
FAILED_SPANS = ("dynamics.decompose", "entropylab.stationary", "cli.main")
BCH_SPANS = ("liegroup.bch_direct", "liegroup.bch_dynkin")
# every span name, in report order: bch spans are named by mode
SPAN_NAMES = [name for prefix, _, _ in LAYERS
              for name in (BCH_SPANS if prefix == "liegroup.bch" else (prefix,))]
# counters kept next to the spans
COUNTERS = (["scalar.add.calls", "scalar.add.failed", "scalar.mul.calls", "dynamics.full.points"]
            + [f"{name}.failed" for name in FAILED_SPANS])


def _bch_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "direct")
    return BCH_SPANS[1] if mode.strip().lower().startswith("dynkin") else BCH_SPANS[0]


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.active = False
        self.counts: dict[str, int] = {}
        self.full_steps = [0, 0]  # alive point-steps, all point-steps
        self._restore: list[tuple[object, str, object]] = []

    # ---- installation ---------------------------------------------------

    def install(self) -> None:
        import importlib

        import padlab.cli  # noqa: F401  (bound names live there too)
        from padlab.errors import PrecisionExhausted
        from padlab.scalar import PadicScalar

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "padlab" or name.startswith("padlab.")]
        for prefix, modname, path in LAYERS:
            owner = importlib.import_module(modname)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            orig = getattr(owner, parts[-1])
            wrapper = self._span_wrapper(prefix, orig)
            if len(parts) > 1:
                self._set(owner, parts[-1], wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, attr, wrapper)

        counts = self.counts
        for key in ("scalar.add.calls", "scalar.add.failed", "scalar.mul.calls"):
            counts[key] = 0
        add, mul = PadicScalar.__add__, PadicScalar.__mul__
        tracer = self

        def traced_add(a, b):
            if tracer.active:
                counts["scalar.add.calls"] += 1
                try:
                    return add(a, b)
                except PrecisionExhausted:
                    counts["scalar.add.failed"] += 1
                    raise
            return add(a, b)

        def traced_mul(a, b):
            if tracer.active:
                counts["scalar.mul.calls"] += 1
            return mul(a, b)

        self._set(PadicScalar, "__add__", traced_add)
        self._set(PadicScalar, "__mul__", traced_mul)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span_wrapper(self, prefix: str, fn):
        tracer = self
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns
        full = prefix == "dynamics.full"
        name_of = _bch_name if prefix == "liegroup.bch" else None

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = name_of(args, kwargs) if name_of else prefix
            span = [name, 0, 0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(span)
            ok = False
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                ok = not (name == "cli.main" and result != 0)
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if not ok and name in FAILED_SPANS:
                    key = name + ".failed"
                    tracer.counts[key] = tracer.counts.get(key, 0) + 1
                if full and ok:
                    tracer._record_full(result.counts)

        wrapper.__wrapped__ = fn
        return wrapper

    def _record_full(self, counts) -> None:
        self.counts["dynamics.full.points"] = self.counts.get("dynamics.full.points", 0) + counts[0]
        # window step m (2..n) acts on every point, of which counts[m-2] are
        # still alive: the alive share is the work a compacting oracle keeps
        self.full_steps[0] += sum(counts[:-1])
        self.full_steps[1] += counts[0] * (len(counts) - 1)

    # ---- aggregation ----------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self time in ms."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "self_ns": 0})
            row["calls"] += 1
            row["self_ns"] += end - start - child_ns[i]
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Write every span (column order as in the module docstring)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"schema": "padlab-bench-trace/1", "meta": meta,
               "columns": ["name", "start_ns", "end_ns", "parent", "op"],
               "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
