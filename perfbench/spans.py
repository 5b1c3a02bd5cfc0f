"""In-memory spans around the package's public calls.

``Tracer.install()`` replaces public functions and methods of ``fem``,
``constants``, ``qvi``, ``tykhonov`` and ``control`` with wrappers that
record a span (layer, parent span, op, start, end) and per-layer counts;
``uninstall()`` puts the originals back.  The package is not edited: the
package's own modules call each other through module attributes, so the
wrappers also see nested calls (``fixed_point`` calling
``space_constants``, the certificate assembling its stiffness).

A layer's self time is the time of its spans minus the time of their
child spans.  Every span descends from one ``op`` root span, and the
root's self time is the ``untraced`` remainder, so the layer self times
plus ``untraced`` add up to the op wall time.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

from antiplane import constants, control, fem, qvi, tykhonov

OP = "op"


def _sweeps(counts, result):
    # TrescaSolver.solve returns (u, sweeps, energies)
    if isinstance(result, tuple) and len(result) > 1 and isinstance(result[1], int):
        counts["qvi.inner.sweeps"] += result[1]


def _outer_iters(counts, result):
    report = result[1] if isinstance(result, tuple) and len(result) > 1 else None
    counts["qvi.outer.iters"] += getattr(report, "outer_iterations", 0)


def _instances(counts, result):
    counts["tykhonov.instances"] += len(getattr(result, "ns", ()))


def _starts(counts, result):
    starts = getattr(result, "starts", ())
    counts["control.starts"] += len(starts)
    counts["control.start_evals"] += sum(s.n_evals for s in starts)
    counts["control.start_successes"] += sum(bool(s.success) for s in starts)


# (owner, attribute, layer, call counter, result hook)
TARGETS = (
    (fem, "build_mesh", "fem.build_mesh", "fem.build_mesh.calls", None),
    (fem, "assemble_stiffness", "fem.assemble", "fem.assemble_stiffness.calls", None),
    (fem, "assemble_load", "fem.assemble", None, None),
    (fem, "assemble_mass", "fem.assemble", None, None),
    # cached H1 forms: the first call on a mesh assembles mass and unit stiffness
    (fem, "mass_matrix", "fem.assemble", None, None),
    (fem, "unit_stiffness", "fem.assemble", None, None),
    (fem, "gram_matrix", "fem.assemble", None, None),
    (constants, "space_constants", "constants", "constants.calls", None),
    (constants, "poincare_constant", "constants", "constants.poincare_calls", None),
    (constants, "trace_constant", "constants", None, None),
    (qvi.TrescaSolver, "__init__", "qvi.setup", "qvi.setup.calls", None),
    (qvi.TrescaSolver, "solve", "qvi.inner", "qvi.inner.calls", _sweeps),
    (qvi, "fixed_point", "qvi.outer", None, _outer_iters),
    (qvi, "membership_violation", "qvi.cert", "qvi.cert.calls", None),
    (qvi, "complementarity_report", "qvi.kkt", None, None),
    (tykhonov, "run_convergence", "tykhonov", None, _instances),
    (control, "minimize_cost", "control.optimizer", None, _starts),
    (control.StateSolver, "evaluate", "control.eval", "control.evals", None),
)


class Tracer:
    """Spans and counts of the ops run while installed."""

    def __init__(self):
        # one record per span: [layer, parent index, op index, start, end]
        self.spans: list[list] = []
        self.op_counts: list[Counter] = []  # one Counter per op
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @property
    def n_ops(self) -> int:
        return len(self.op_counts)

    def counts(self) -> Counter:
        """Counts summed over all ops."""
        return sum(self.op_counts, Counter())

    def _wrap(self, fn, layer, counter, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = len(self.op_counts) - 1
            rec = [layer, stack[-1], op, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if counter:
                self.op_counts[op][counter] += 1
            if hook:
                hook(self.op_counts[op], result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, layer, counter, hook in TARGETS:
            original = owner.__dict__.get(attr)
            if original is None:  # renamed or removed since the benchmark was written
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, counter, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run_op(self, fn, *args):
        """Call ``fn(*args)`` under a root span with the wrappers installed."""
        self.op_counts.append(Counter())
        rec = [OP, -1, self.n_ops - 1, perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self.install()
        try:
            return fn(*args)
        finally:
            self.uninstall()
            rec[4] = perf_counter()
            self._stack.pop()

    def self_times(self, absorbing: tuple[str, ...] = ()) -> list[dict]:
        """Per op, the self seconds of every layer (``op`` is the remainder).

        Self time of a span below a layer named in ``absorbing`` counts
        for that layer, e.g. the assembly a certificate does for itself.
        """
        owner = []  # layer credited with each span's self time
        per_op = [defaultdict(float) for _ in range(self.n_ops)]
        for layer, parent, op, start, end in self.spans:
            # parents are recorded before their children
            above = owner[parent] if parent >= 0 else None
            owner.append(above if above in absorbing else layer)
            dur = end - start
            per_op[op][owner[-1]] += dur
            if parent >= 0:
                per_op[op][owner[parent]] -= dur
        return per_op

    def op_walls(self) -> list[float]:
        return [end - start for layer, _, _, start, end in self.spans if layer == OP]

    def write(self, path) -> None:
        """Write every span as one JSON document (times relative to the first)."""
        t0 = self.spans[0][3] if self.spans else 0.0
        doc = {
            "fields": ["layer", "parent", "op", "start_s", "end_s"],
            "spans": [
                [layer, parent, op, round(start - t0, 9), round(end - t0, 9)]
                for layer, parent, op, start, end in self.spans
            ],
            "counts": [dict(c) for c in self.op_counts],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
