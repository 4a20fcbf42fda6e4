"""Spans recorded around calls into the library's public functions.

The wrappers live only in benchmark code: :meth:`Tracer.install` replaces
every module attribute under ``absfef`` that binds a traced function (so
``absfef.absolute.fef`` and ``absfef.reproduce.fef`` are wrapped separately
from ``absfef.fef.fef``), and :meth:`Tracer.uninstall` puts the originals
back.  Spans are kept in memory and written out once, at the end of a run.
"""

import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

TRACED = (
    ("linalg", ("validate_density", "eig_hermitian", "partial_trace")),
    ("fef", ("fef", "fef_lower_bound", "fef_two_qubit_closed_form")),
    ("absolute", ("classify", "is_absolute_fef", "activating_unitary", "purity_bounds")),
    ("witness", ("pullback", "evaluate", "decompose")),
    ("bases", ("operator_basis",)),
    ("bloch", ("bloch_extract",)),
    ("tripartite", ("acin_marginal", "ghzw_marginal", "three_qutrit_marginal")),
    ("reproduce", ("run_fixtures",)),
)

# Every public function of absfef.states is traced; the module is reported as
# one layer.
AGGREGATE = "states"


def layer_names():
    """Layer names as reported: '<module>.<function>', plus the aggregate."""
    return [f"{mod}.{fn}" for mod, fns in TRACED for fn in fns] + [AGGREGATE]


def _targets():
    for mod, fns in TRACED:
        module = importlib.import_module(f"absfef.{mod}")
        for fn in fns:
            yield f"{mod}.{fn}", getattr(module, fn)
    module = importlib.import_module(f"absfef.{AGGREGATE}")
    for fn, obj in vars(module).items():
        if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not fn.startswith("_")):
            yield f"{AGGREGATE}.{fn}", obj


class Tracer:
    """Records (name, start, end, parent, op) spans and result counts."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.counts = Counter()
        self.tried_ops = set()
        self.detect_ops = set()
        self._stack = []
        self._restore = []

    def _observe(self, name, result):
        if name == "fef.fef":
            self.counts["restarts"] += result.restarts_used
            self.counts["converged"] += bool(result.converged)
        elif name == "absolute.classify":
            self.counts[f"label.{result.label.lower()}"] += 1
        elif name == "absolute.is_absolute_fef":
            # A state tried for a witness: detect ratio = detect_ops / tried_ops.
            self.tried_ops.add(self.op)
        elif name == "witness.evaluate" and result < 0:
            self.detect_ops.add(self.op)

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op)
            self._observe(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every binding of every traced function in the loaded absfef modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "absfef" or n.startswith("absfef.")]
        for name, fn in _targets():
            wrapper = self._wrap(name, fn)
            for module in modules:
                for attr, obj in list(vars(module).items()):
                    if obj is fn:
                        self._restore.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def layer_stats(self):
        """{name: (calls, self seconds)}; self time is duration minus direct children."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {name: [0, 0.0] for name in layer_names()}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            layer = name.split(".")[0]
            entry = stats[layer if layer == AGGREGATE else name]
            entry[0] += 1
            entry[1] += end - start - child[idx]
        return stats

    def write(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "op": op}) + "\n")
