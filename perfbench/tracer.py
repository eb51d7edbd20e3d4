"""Span tracer for the traced benchmark pass.

Wraps the public functions of each cellform module at every name a caller
looks up (modules import functions by name, so ``congruences.apery_a`` is a
binding of its own, separate from ``sequences.apery_a``), and the catalog
methods on the class.  Each call records a span (label, start, end, parent
span, op id, counts); counts are worked out only from the arguments and the
return value of the wrapped call.  Nothing in ``src/`` is changed, and an
untraced pass installs no wrapper at all.
"""
from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter


def _rows(args, kwargs, ret):
    return {"rows": len(args[0])}


def _mask(args, kwargs, ret):
    return {"rows": len(args[0]), "survivors": int(ret.sum())}


def _legendre(args, kwargs, ret):
    p = args[0]
    return {"cells": (p - 2) * p}


def _file_bytes(args, kwargs, ret):
    path = args[0].path
    return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}


def _fit_cells(args, kwargs, ret):
    seq, order, degree = args[0], args[1], args[2]
    return {"cells": (len(seq) - order) * (order + 1) * (degree + 1)}


def _verdict_terms(args, kwargs, ret):
    # verify_conjecture1 reads exactly two terms: m p^r and m p^(r-1).
    return {"terms_read": 2}


# (label, module, attribute, counter).  "Catalog.x" attributes are methods.
TARGETS = [
    ("kernels.convergent_permutations", "kernels", "convergent_permutations", None),
    ("kernels.convergent_mask", "kernels", "convergent_mask", _mask),
    ("kernels.canonical_keys", "kernels", "canonical_keys", _rows),
    ("kernels.legendre_traces", "kernels", "legendre_traces", _legendre),
    ("configurations.enumerate_convergent", "configurations", "enumerate_convergent", None),
    ("configurations.dual", "configurations", "dual", None),
    ("ctengine.linear_form_model", "ctengine", "linear_form_model", None),
    ("ctengine.best_model", "ctengine", "best_model", None),
    ("ctengine.constant_term", "ctengine", "constant_term", None),
    ("ctengine.leading_coefficients", "ctengine", "leading_coefficients", None),
    ("catalog.load", "catalog", "Catalog.__init__", _file_bytes),
    ("catalog.get_terms", "catalog", "Catalog.get_terms", None),
    ("catalog.store", "catalog", "Catalog.store", None),
    ("catalog.save", "catalog", "Catalog.save", _file_bytes),
    ("catalog.add_configuration", "catalog", "Catalog.add_configuration", None),
    ("sequences.apery_a", "sequences", "apery_a", None),
    ("sequences.apery_b", "sequences", "apery_b", None),
    ("sequences.a_sigma8", "sequences", "a_sigma8", None),
    ("sequences.lemma_suite", "sequences", "lemma_suite", None),
    ("modforms.gamma_cm", "modforms", "gamma_cm", None),
    ("modforms.eta_qexp", "modforms", "eta_qexp", None),
    ("modforms.gamma_eta12_pointcount", "modforms", "gamma_eta12_pointcount", None),
    ("ffhyper.hyp_greene", "ffhyper", "hyp_greene", None),
    ("ffhyper.truncated_2f1_mod_p2", "ffhyper", "truncated_2f1_mod_p2", None),
    ("ffhyper.hyp2f1_exact", "ffhyper", "hyp2f1_exact", None),
    ("recfit.fit", "recfit", "fit", _fit_cells),
    ("congruences.verify_thm1", "congruences", "verify_thm1", None),
    ("congruences.verify_thm2", "congruences", "verify_thm2", None),
    ("congruences.verify_beukers", "congruences", "verify_beukers", None),
    ("congruences.verify_conjecture1", "congruences", "verify_conjecture1", _verdict_terms),
    ("cli.hyper", "cli", "cmd_hyper", None),
]

# Per-layer metrics: name -> unit.  run.py and BENCHMARK.json use this list.
LAYER_METRICS = {
    "kernels.convergent_permutations.s": "s",
    "kernels.convergent_mask.rows": "count",
    "kernels.convergent_mask.survivor_ratio": "ratio",
    "kernels.canonical_keys.s": "s",
    "kernels.canonical_keys.rows": "count",
    "configurations.dual.s": "s",
    "configurations.dual.calls": "count",
    "configurations.enumerate_convergent.self_s": "s",
    "ctengine.linear_form_model.s": "s",
    "catalog.add_configuration.s": "s",
    "ctengine.best_model.s": "s",
    "ctengine.best_model.calls": "count",
    "ctengine.constant_term.s": "s",
    "ctengine.constant_term.calls": "count",
    "ctengine.terms_used_ratio": "ratio",
    "ctengine.leading_coefficients.self_s": "s",
    "catalog.load.s": "s",
    "catalog.load.bytes": "B",
    "catalog.get_terms.s": "s",
    "catalog.hit_ratio": "ratio",
    "catalog.store.s": "s",
    "catalog.save.s": "s",
    "catalog.save.calls": "count",
    "catalog.save.bytes": "B",
    "sequences.apery_a.s": "s",
    "sequences.apery_a.calls": "count",
    "sequences.apery_b.s": "s",
    "sequences.apery_b.calls": "count",
    "sequences.a_sigma8.s": "s",
    "sequences.a_sigma8.calls": "count",
    "sequences.lemma_suite.s": "s",
    "modforms.gamma_cm.s": "s",
    "modforms.eta_qexp.s": "s",
    "modforms.gamma_eta12_pointcount.s": "s",
    "kernels.legendre_traces.s": "s",
    "kernels.legendre_traces.cells": "count",
    "kernels.legendre_traces.bytes_computed": "B",
    "ffhyper.hyp_greene.s": "s",
    "ffhyper.hyp_greene.calls": "count",
    "ffhyper.truncated_2f1_mod_p2.s": "s",
    "ffhyper.hyp2f1_exact.s": "s",
    "recfit.fit.s": "s",
    "recfit.fit.matrix_cells": "count",
    "congruences.verify_thm1.s": "s",
    "congruences.verify_thm2.s": "s",
    "congruences.verify_beukers.s": "s",
    "cli.hyper.s": "s",
}


class Tracer:
    """Holds spans in memory: [label, start, end, parent, op, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1
        self.counter_s = 0.0  # time spent in counters, part of the overhead

    def install(self) -> None:
        for label, modname, attr, counter in TARGETS:
            mod = sys.modules["cellform." + modname]
            if attr.startswith("Catalog."):
                cls, meth = mod.Catalog, attr.split(".", 1)[1]
                setattr(cls, meth, self._wrap(label, getattr(cls, meth), counter))
                continue
            fn = getattr(mod, attr)
            wrapper = self._wrap(label, fn, counter)
            for name, other in list(sys.modules.items()):
                if name == "cellform" or name.startswith("cellform."):
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, wrapper)

    def _wrap(self, label, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                ret = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counter is not None:
                t = perf_counter()
                rec[5] = counter(args, kwargs, ret)
                self.counter_s += perf_counter() - t
            return ret

        return wrapper

    def begin_op(self, op_id: int, kind: str) -> None:
        """Open the root span of one benchmark op; its self time is harness time."""
        self.op_id = op_id
        self._stack.append(len(self.spans))
        self.spans.append(["op." + kind, perf_counter(), 0.0, -1, op_id, None])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()
        self.op_id = -1

    def reset(self) -> None:
        del self.spans[:]
        self.counter_s = 0.0

    def overhead_s(self) -> float:
        """Tracing overhead of the recorded spans, measured in this process.

        The cost of one span is the fastest of seven timings of 2000 calls to
        a wrapped no-op, less the same for the bare no-op; the overhead is that
        cost times the number of spans, plus the time the counters took.
        """
        calls = 2000

        def noop():
            return None

        def fastest(fn):
            best = float("inf")
            for _ in range(7):
                t0 = perf_counter()
                for _ in range(calls):
                    fn()
                best = min(best, perf_counter() - t0)
            return best

        span_s = (fastest(Tracer()._wrap("noop", noop, None)) - fastest(noop)) / calls
        return max(span_s, 0.0) * len(self.spans) + self.counter_s


def dump_spans(spans, path) -> None:
    """Write spans as JSON lines: id, name, start, end, parent, op, counts."""
    with open(path, "w") as fh:
        for sid, (label, start, end, parent, op, counts) in enumerate(spans):
            row = {"id": sid, "name": label, "start": start, "end": end, "parent": parent, "op": op}
            if counts:
                row["counts"] = counts
            fh.write(json.dumps(row) + "\n")


def stage_table(spans) -> dict[str, list]:
    """label -> [inclusive seconds, self seconds, calls]."""
    child = [0.0] * len(spans)
    for label, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    table: dict[str, list] = {}
    for sid, (label, start, end, _, _, _) in enumerate(spans):
        row = table.setdefault(label, [0.0, 0.0, 0])
        row[0] += end - start
        row[1] += end - start - child[sid]
        row[2] += 1
    return table


def layer_metrics(spans) -> dict[str, float]:
    """The LAYER_METRICS values of one traced pass."""
    table = stage_table(spans)

    def total(label, i=0):
        return table.get(label, [0.0, 0.0, 0])[i]

    def count(label, key):
        return sum(s[5][key] for s in spans if s[0] == label and s[5])

    def ratio(a, b):
        return a / b if b else 0.0

    # A coefficient request is a hit when no sweep ran beneath it.
    swept = set()
    for s in spans:
        if s[0] == "ctengine.constant_term":
            parent = s[3]
            while parent >= 0:
                swept.add(parent)
                parent = spans[parent][3]
    requests = [i for i, s in enumerate(spans) if s[0] == "ctengine.leading_coefficients"]
    hits = sum(1 for i in requests if i not in swept)

    out = {}
    for name in LAYER_METRICS:
        label, _, field = name.rpartition(".")
        if field == "s":
            out[name] = total(label)
        elif field == "self_s":
            out[name] = total(label, 1)
        elif field == "calls":
            out[name] = total(label, 2)
    out["kernels.convergent_mask.rows"] = count("kernels.convergent_mask", "rows")
    out["kernels.convergent_mask.survivor_ratio"] = ratio(
        count("kernels.convergent_mask", "survivors"), out["kernels.convergent_mask.rows"]
    )
    out["kernels.canonical_keys.rows"] = count("kernels.canonical_keys", "rows")
    out["ctengine.terms_used_ratio"] = ratio(
        count("congruences.verify_conjecture1", "terms_read"), total("ctengine.constant_term", 2)
    )
    loads = total("catalog.load", 2)
    out["catalog.load.s"] = ratio(total("catalog.load"), loads)
    out["catalog.load.bytes"] = ratio(count("catalog.load", "bytes"), loads)
    out["catalog.hit_ratio"] = ratio(hits, len(requests))
    out["catalog.save.bytes"] = count("catalog.save", "bytes")
    out["kernels.legendre_traces.cells"] = count("kernels.legendre_traces", "cells")
    # Computed, not measured: one int64 (p-2) x p matrix per call.
    out["kernels.legendre_traces.bytes_computed"] = 8 * out["kernels.legendre_traces.cells"]
    out["recfit.fit.matrix_cells"] = count("recfit.fit", "cells")
    return out
