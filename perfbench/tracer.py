"""Per-layer spans taken from outside finitetopo.

The tracer replaces public functions and methods of the package with
wrappers that record a span (name, thread, start, end, parent span) and,
for some, a few work counts read off the arguments or the result.  A
function bound by `from .x import y` lives in several module namespaces
(reduction, nerve and cylinder each hold their own `homology`), so every
namespace that holds the original object gets the wrapper.

`verify --batch` runs its files on a thread pool, so each thread keeps
its own span stack, and time is the CPU time of the thread that runs
the span (time.thread_time): a worker waiting for the interpreter lock
is not charged for it, and a span waiting for other threads is charged
only for its own work.  A span's self time is its CPU time minus that of
its children on the same thread.

Spans stay in memory and are written out by the runner at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict


def _oc_result(args, kwargs, result):
    return {"_complex": result}


def _chain_nnz(args, kwargs, result):
    return {"boundary_nnz": sum(len(b.entries) for b in result.boundaries)}


def _snf_size(args, kwargs, result):
    m = args[0]
    return {"snf_nnz": len(m.entries), "snf_max_side": max(m.rows, m.cols)}


def _homology_arg(args, kwargs, result):
    from finitetopo import SimplicialComplex

    return {"_poset_call": not isinstance(args[0], SimplicialComplex)}


def _verdict(args, kwargs, result):
    return {"oracle_" + result.status: 1, "collapse_nodes": result.detail.get("nodes", 0)}


def _replay_steps(args, kwargs, result):
    return {"replay_steps": len(args[1].steps)}


def _translate_steps(args, kwargs, result):
    return {"translate_steps": len(result.steps)}


def _intersections(args, kwargs, result):
    return {"intersections": len(result.whole)}


def _cells(args, kwargs, result):
    return {"completion_cells": len(result.poset)}


def _points(args, kwargs, result):
    return {"components_points": len(args[1])}


def _one_certificate(args, kwargs, result):
    return {"certificates": 1}


# (module, class or None, attribute, span name, count function)
TRACED = (
    ("finitetopo.poset", "Poset", "__init__", "poset.build", None),
    ("finitetopo.complexes", None, "order_complex", "complexes.order_complex", _oc_result),
    ("finitetopo.complexes", None, "chain_complex", "complexes.chain_complex", _chain_nnz),
    ("finitetopo.homology", "IntegerMatrix", "compose", "complexes.boundary_check", None),
    ("finitetopo.complexes", None, "cw_from_face_poset", "complexes.cw_validate", None),
    ("finitetopo.homology", None, "homology", "homology.homology", _homology_arg),
    ("finitetopo.homology", None, "smith_normal_form", "homology.snf", _snf_size),
    ("finitetopo.homology", None, "fraction_free_rank", "homology.fraction_free", None),
    ("finitetopo.reduction", None, "triviality_oracle", "reduction.oracle", _verdict),
    ("finitetopo.reduction", None, "replay_poset_certificate", "reduction.replay", _replay_steps),
    ("finitetopo.reduction", None, "replay_simplicial_certificate", "reduction.replay", _replay_steps),
    ("finitetopo.reduction", None, "collapse_to_simplicial", "reduction.translate", _translate_steps),
    ("finitetopo.reduction", None, "core", "reduction.core", None),
    ("finitetopo.cylinder", None, "source_local_data", "cylinder.local_data", None),
    ("finitetopo.cylinder", None, "target_local_data", "cylinder.local_data", None),
    ("finitetopo.cylinder", None, "check_source_retraction", "cylinder.check", None),
    ("finitetopo.cylinder", None, "check_target_retraction", "cylinder.check", None),
    ("finitetopo.cylinder", None, "collapse_cylinder_to_source", "cylinder.collapse", None),
    ("finitetopo.cylinder", None, "collapse_cylinder_to_target", "cylinder.collapse", None),
    ("finitetopo.cylinder", None, "verify_equivalence", "cylinder.verify", None),
    ("finitetopo.cylinder", None, "verify_homology_equivalence", "cylinder.verify", None),
    ("finitetopo.nerve", None, "classify_cover", "nerve.classify", _intersections),
    ("finitetopo.nerve", None, "completion_poset", "nerve.completion", _cells),
    ("finitetopo.nerve", None, "verify_nerve_theorem", "nerve.verify", None),
    ("finitetopo.nerve", None, "verify_corollary_completion", "nerve.verify", None),
    ("finitetopo.mapper", None, "epsilon_components", "mapper.components", _points),
    ("finitetopo.mapper", None, "pullback_cover", "mapper.pullback", None),
    ("finitetopo.mapper", "FilterSpec", "values", "mapper.filter", None),
    ("finitetopo.report", "RunReport", "finalize", "report.finalize", None),
    ("finitetopo.report", "RunReport", "add_certificate", "report.add_certificate", _one_certificate),
    ("finitetopo.formats", None, "load_json_file", "formats.load", None),
    ("finitetopo.formats", None, "poset_from_json", "formats.load", None),
    ("finitetopo.formats", None, "complex_from_json", "formats.load", None),
    ("finitetopo.formats", None, "relation_from_json", "formats.load", None),
    ("finitetopo.formats", None, "poset_cover_from_json", "formats.load", None),
    ("finitetopo.formats", None, "complex_cover_from_json", "formats.load", None),
    ("finitetopo.cli", None, "run_theorem", "cli.run_theorem", None),
    ("finitetopo.cli", None, "main", "cli.main", None),
)

# per-layer metric: (unit, how it is read from one round's aggregate)
# "self:<span>" sums self times, "calls:<span>" counts spans,
# "count:<key>" sums a work count, "max:<key>" takes its maximum
LAYER_METRICS = {
    "poset.build_calls": ("count", "calls:poset.build"),
    "poset.build_s": ("s", "self:poset.build"),
    "complexes.order_complex_calls": ("count", "calls:complexes.order_complex"),
    "complexes.order_complex_s": ("s", "self:complexes.order_complex"),
    "complexes.order_complex_faces": ("count", "count:order_complex_faces"),
    "complexes.order_complex_cache_hits": ("count", "count:order_complex_cache_hits"),
    "complexes.chain_complex_s": ("s", "self:complexes.chain_complex"),
    "complexes.boundary_nnz": ("count", "count:boundary_nnz"),
    "complexes.boundary_check_s": ("s", "self:complexes.boundary_check"),
    "complexes.cw_validate_s": ("s", "self:complexes.cw_validate"),
    "homology.calls": ("count", "calls:homology.homology"),
    "homology.cache_hits": ("count", "count:homology_cache_hits"),
    "homology.snf_calls": ("count", "calls:homology.snf"),
    "homology.snf_s": ("s", "self:homology.snf"),
    "homology.snf_nnz": ("count", "count:snf_nnz"),
    "homology.snf_max_side": ("count", "max:snf_max_side"),
    "homology.fraction_free_calls": ("count", "calls:homology.fraction_free"),
    "homology.fraction_free_s": ("s", "self:homology.fraction_free"),
    "reduction.oracle_calls": ("count", "calls:reduction.oracle"),
    "reduction.oracle_s": ("s", "self:reduction.oracle"),
    "reduction.oracle_trivial": ("count", "count:oracle_trivial"),
    "reduction.oracle_nontrivial": ("count", "count:oracle_nontrivial"),
    "reduction.oracle_unknown": ("count", "count:oracle_unknown"),
    "reduction.collapse_nodes": ("count", "count:collapse_nodes"),
    "reduction.replay_s": ("s", "self:reduction.replay"),
    "reduction.replay_steps": ("count", "count:replay_steps"),
    "reduction.translate_s": ("s", "self:reduction.translate"),
    "reduction.translate_steps": ("count", "count:translate_steps"),
    "reduction.core_s": ("s", "self:reduction.core"),
    "cylinder.local_data_s": ("s", "self:cylinder.local_data"),
    "cylinder.check_s": ("s", "self:cylinder.check"),
    "cylinder.collapse_s": ("s", "self:cylinder.collapse"),
    "cylinder.verify_calls": ("count", "calls:cylinder.verify"),
    "nerve.classify_s": ("s", "self:nerve.classify"),
    "nerve.intersections": ("count", "count:intersections"),
    "nerve.completion_s": ("s", "self:nerve.completion"),
    "nerve.completion_cells": ("count", "count:completion_cells"),
    "nerve.verify_s": ("s", "self:nerve.verify"),
    "mapper.components_s": ("s", "self:mapper.components"),
    "mapper.components_points": ("count", "count:components_points"),
    "mapper.pullback_s": ("s", "self:mapper.pullback"),
    "mapper.filter_s": ("s", "self:mapper.filter"),
    "report.finalize_s": ("s", "self:report.finalize"),
    "report.certificates": ("count", "count:certificates"),
    "formats.load_s": ("s", "self:formats.load"),
    "cli.run_theorem_s": ("s", "self:cli.run_theorem"),
    "cli.main_s": ("s", "self:cli.main"),
}


class Tracer:
    def __init__(self):
        # [name, thread, wall start, wall end, parent index, counts, round,
        #  self CPU seconds, whether a chain_complex span lies below]
        self.spans = []
        self.round = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    def _wrap(self, fn, name, count):
        tracer = self
        wall, cpu = time.perf_counter, time.thread_time

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            record = [name, threading.get_ident(), wall(), None, stack[-1][0] if stack else None, None,
                      tracer.round, 0.0, name == "complexes.chain_complex"]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(record)
            frame = [index, 0.0]  # index, CPU seconds of finished children
            stack.append(frame)
            start = cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = cpu() - start
                record[3] = wall()
                stack.pop()
                record[7] = spent - frame[1]
                if stack:
                    stack[-1][1] += spent
                    if record[8]:
                        tracer.spans[stack[-1][0]][8] = True
            if count is not None:
                record[5] = count(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n == "finitetopo" or n.startswith("finitetopo.")]
        for module_name, cls_name, attr, span, count in TRACED:
            owner = sys.modules[module_name]
            if cls_name is not None:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, span, count))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, span, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def aggregate(self, round_index):
        """Self times, call counts and work counts of one round's spans."""
        agg = defaultdict(float)
        counts = defaultdict(int)
        maxima = defaultdict(int)
        complexes = {}
        for record in self.spans:
            name, _, _, _, _, extra, rnd, self_cpu, has_chain = record
            if rnd != round_index:
                continue
            agg["self:" + name] += self_cpu
            agg["calls:" + name] += 1
            for key, value in (extra or {}).items():
                if key == "_complex":
                    complexes[id(value)] = value
                elif key == "_poset_call":
                    # a poset's homology that built no chain complex came from the cache
                    if value and not has_chain:
                        counts["homology_cache_hits"] += 1
                elif key == "snf_max_side":
                    maxima[key] = max(maxima[key], value)
                else:
                    counts[key] += value
            if extra:
                extra.pop("_complex", None)
        # distinct results only: a cache hit hands back the same complex
        counts["order_complex_faces"] = sum(len(k.faces) for k in complexes.values())
        for key, value in counts.items():
            agg["count:" + key] = value
        for key, value in maxima.items():
            agg["max:" + key] = value
        return agg

    def dump(self, path):
        threads = {}
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, thread, start, end, parent, extra, rnd, self_cpu, _) in enumerate(self.spans):
                counts = {k: v for k, v in (extra or {}).items() if not k.startswith("_")}
                record = {"id": i, "name": name, "thread": threads.setdefault(thread, len(threads)),
                          "start": start, "end": end, "parent": parent, "round": rnd,
                          "self_cpu_s": self_cpu, "counts": counts}
                fh.write(json.dumps(record) + "\n")


def layer_metrics(agg):
    out = {}
    for metric, (unit, source) in LAYER_METRICS.items():
        value = agg.get(source, 0)
        out[metric] = (int(value) if unit == "count" else value, unit)
    return out
