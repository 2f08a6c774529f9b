"""Span tracing around qsetalg's public entry points, installed from outside.

Tracer.install() replaces each named function or method with a wrapper that
records a span (name, start, end, parent span, job id, raised) in memory.
Module-level functions are replaced in every loaded qsetalg module that
bound them by name, so calls between modules are seen as well as calls from
the benchmark. A call of an entry from inside the same entry (decode's
recursion) stays part of the outer span. uninstall() restores the originals.
Self time is a span's duration minus the durations of its direct children.
Calls made while the benchmark checks a result (inside a "check" span) are
left out of the layer metrics: they are the benchmark's work, not the job's.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (metric name, module, class or None, attribute)
ENTRIES = (
    ("linalg.mmul", "qsetalg.linalg", None, "mmul"),
    ("linalg.det", "qsetalg.linalg", None, "det"),
    ("linalg.solve", "qsetalg.linalg", "ColumnSolver", "solve"),
    ("linalg.span_add", "qsetalg.linalg", "RationalSpan", "add"),
    ("linalg.congruence_signature", "qsetalg.linalg", None, "congruence_signature"),
    ("liecore.structure_constants", "qsetalg.liecore", "MatrixAlgebra", "structure_constants"),
    ("liecore.jacobi_defect", "qsetalg.liecore", "StructureConstants", "jacobi_defect"),
    ("liecore.killing_form", "qsetalg.liecore", "StructureConstants", "killing_form"),
    ("liecore.classify", "qsetalg.liecore", "StructureConstants", "classify"),
    ("liecore.contraction_at", "qsetalg.liecore", "ContractionFamily", "at"),
    ("liecore.contraction_limit", "qsetalg.liecore", "ContractionFamily", "limit"),
    ("liecore.numeric_contraction_check", "qsetalg.liecore", None, "numeric_contraction_check"),
    ("yang.build_yang", "qsetalg.yang", None, "build_yang"),
    ("yang.contract_to_hp", "qsetalg.yang", None, "contract_to_hp"),
    ("yang.gauge_defect", "qsetalg.yang", None, "gauge_defect"),
    ("qset.grassmann", "qsetalg.qset", None, "grassmann"),
    ("qset.clifford", "qsetalg.qset", None, "clifford"),
    ("qset.berezin_norm", "qsetalg.qset", None, "berezin_norm"),
    ("qset.signature_report", "qsetalg.qset", None, "signature_report"),
    ("perfinite.decode", "qsetalg.perfinite", None, "decode"),
    ("perfinite.parse_set_text", "qsetalg.perfinite", None, "parse_set_text"),
    ("perfinite.enumerate_rank", "qsetalg.perfinite", None, "enumerate_rank"),
    ("perfinite.xor", "qsetalg.perfinite", None, "xor_union"),
    ("cliff.build_gammas", "qsetalg.cliff", None, "build_gammas"),
    ("cliff.anticommutator_defect", "qsetalg.cliff", None, "anticommutator_defect"),
    ("palev.normal_order", "qsetalg.palev", None, "normal_order"),
    ("palev.exclusion_report", "qsetalg.palev", "PalevMode", "exclusion_report"),
    ("palev.carrier_triple", "qsetalg.palev", None, "carrier_triple"),
    ("vertexnet.contract", "qsetalg.vertexnet", "VertexNetwork", "contract"),
    ("vertexnet.dense_oracle", "qsetalg.vertexnet", None, "dense_oracle"),
    ("vertexnet.parity_check", "qsetalg.vertexnet", "VertexNetwork", "parity_check"),
)

# counters read off an entry's arguments or result: (counter, entry, fn)
COUNTERS = (
    ("palev.normal_order.terms", "palev.normal_order", lambda args, result: len(result.terms())),
    ("vertexnet.contract.vertices", "vertexnet.contract", lambda args, result: len(args[0].vertices)),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters = {name: 0 for name, _, _ in COUNTERS}
        self.job_id = -1
        self._stack: list = []
        self._names: list = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        counters = [(cname, count) for cname, entry, count in COUNTERS if entry == name]
        spans, stack, names = self.spans, self._stack, self._names
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if names and names[-1] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            names.append(name)
            raised = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                raised = True
                raise
            finally:
                end = clock()
                stack.pop()
                names.pop()
                spans[idx] = (name, start, end, parent, self.job_id, raised)
            if "check" not in names:
                for cname, count in counters:
                    self.counters[cname] += count(args, result)
            return result

        return wrapper

    def record(self, name: str, fn, *args):
        """Call fn(*args) inside a span opened by the benchmark itself."""
        return self._wrap(name, fn)(*args)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        mods = [m for key, m in sys.modules.items() if key.startswith("qsetalg") and m is not None]
        for name, module, owner, attr in ENTRIES:
            mod = sys.modules.get(module)
            if mod is None:  # a workload that never imports a module never calls it
                continue
            if owner is not None:
                cls = getattr(mod, owner)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(name, original))
                self._restore.append((cls, attr, original))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(name, original)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        self._restore.append((m, key, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # -- analysis ------------------------------------------------------------

    def layer_metrics(self, scale=None) -> dict:
        """{entry: (calls, self_ms, errors)} for every entry in ENTRIES.
        scale(t), when given, multiplies the self time of a span that
        started at perf_counter time t (the speed gauge's scale)."""
        child_ns = [0] * len(self.spans)
        in_check = [False] * len(self.spans)
        for idx, (name, start, end, parent, _, _) in enumerate(self.spans):
            # a parent is always recorded before its children
            in_check[idx] = name == "check" or (parent >= 0 and in_check[parent])
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: [0, 0, 0] for name, _, _, _ in ENTRIES}
        for idx, (name, start, end, _, _, raised) in enumerate(self.spans):
            row = out.get(name)
            if row is None or in_check[idx]:
                continue
            row[0] += 1
            row[1] += (end - start - child_ns[idx]) * (scale(start / 1e9) if scale else 1)
            row[2] += raised
        return {name: (calls, ns / 1e6, errors) for name, (calls, ns, errors) in out.items()}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, raised in self.spans:
                fh.write(json.dumps([name, start, end, parent, job, raised]) + "\n")

