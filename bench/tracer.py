"""Outside-in span tracer for the qct benchmark.

The tracer wraps, from outside the package, every public function in the
namespace of each qct module (so `quantum.min_distance`, imported from
`lincode`, is wrapped as well) and the public methods plus `__init__` of
`Field`, `LinearCode` and `Catalog`.  Each call becomes a span (name, start,
end, parent, item id) kept in memory; `layer_metrics` turns the spans into the
per-layer metrics listed in BENCHMARK.json, and `save` writes them out.

The layer of a span is the qct module that defines the function, whatever
namespace it was called through.  Nothing under `src/qct` is modified on disk.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array

import numpy as np

from check import is_exact

LAYERS = ("galois", "gflinalg", "polyalg", "lincode", "families", "quantum",
          "audit", "catalog", "cli")
CLASSES = (("galois", "Field"), ("lincode", "LinearCode"),
           ("catalog", "Catalog"))
BUCKETS = ("md_char2", "md_other", "rel_char2", "rel_other")
AUDIT_TARGETS = ("table1", "table2", "table3", "table4", "examples")

# span record layout in the flat array: 6 int64 per span
_NAME, _START, _END, _PARENT, _ITEM, _FLAGS = range(6)
_WIDTH = 6
_OUTER_NAME = 1    # no enclosing span of the same name
_OUTER_LAYER = 2   # no enclosing span of the same layer


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.spans = array("q")
        self.extras: dict[int, dict] = {}
        self.items: list[str] = []
        self._item = -1
        self._stack: list[int] = []
        self._name_depth: list[int] = []
        self._layer_depth = [0] * len(LAYERS)
        self._wrappers: dict[int, object] = {}
        self._hooks = {}

    # -- recording ---------------------------------------------------------
    def begin_item(self, item_id: str):
        self.items.append(item_id)
        self._item = len(self.items) - 1

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        self._name_depth.append(0)
        return len(self.names) - 1

    def _open(self, nid: int) -> int:
        lid = self.layer_of[nid]
        flags = ((_OUTER_NAME if self._name_depth[nid] == 0 else 0)
                 | (_OUTER_LAYER if self._layer_depth[lid] == 0 else 0))
        self._name_depth[nid] += 1
        self._layer_depth[lid] += 1
        idx = len(self.spans) // _WIDTH
        parent = self._stack[-1] if self._stack else -1
        self.spans.extend((nid, time.perf_counter_ns(), 0, parent, self._item,
                           flags))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, nid: int):
        self.spans[idx * _WIDTH + _END] = time.perf_counter_ns()
        self._stack.pop()
        self._name_depth[nid] -= 1
        self._layer_depth[self.layer_of[nid]] -= 1

    def _wrap(self, fn, name: str, layer: str):
        nid = self._name_id(name, layer)
        hook = self._hooks.get(name) or self._hooks.get(layer)
        tracer = self

        if hook is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = tracer._open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx, nid)
        else:
            before, after = hook

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                state = before(args, kwargs)
                idx = tracer._open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx, nid)
                extra = after(state, result,
                              tracer.spans[idx * _WIDTH + _FLAGS])
                if extra:
                    tracer.extras[idx] = extra
                return result
        return wrapper

    # -- installation ------------------------------------------------------
    def install(self, modules: dict):
        """Wrap every public qct function reachable from `modules` (layer name
        -> imported module) and the public methods of the traced classes."""
        self._install_hooks(modules)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(obj):
                    continue
                target = inspect.unwrap(obj) if callable(obj) else None
                if not inspect.isfunction(target):
                    continue
                layer = target.__module__.rpartition(".")[2]
                if layer not in LAYERS:
                    continue
                key = id(obj)
                if key not in self._wrappers:
                    self._wrappers[key] = self._wrap(
                        obj, f"{layer}.{target.__name__}", layer)
                setattr(mod, attr, self._wrappers[key])
        for layer, cls_name in CLASSES:
            cls = getattr(modules[layer], cls_name)
            for attr, obj in list(vars(cls).items()):
                if attr.startswith("_") and attr != "__init__":
                    continue
                if inspect.isfunction(obj):
                    setattr(cls, attr, self._wrap(
                        obj, f"{layer}.{cls_name}.{attr}", layer))

    def _install_hooks(self, modules: dict):
        """Observers for the few spans whose metrics need inputs or results."""
        build_field = modules["galois"].build_field
        catalog_list = modules["catalog"].Catalog.list

        def distance_before(kind):
            def before(args, kwargs):
                code = args[0]
                small_char2 = code.field.p == 2 and code.n <= 64
                return (code, getattr(code, "distance_info", None),
                        f"{kind}_{'char2' if small_char2 else 'other'}")
            return before

        def distance_after(state, res, flags):
            code, prior, bucket = state
            cached = prior is not None and res is prior
            enumerated = (not cached
                          and getattr(res, "method", None) == "enumeration")
            return {"bucket": bucket, "cached": cached,
                    "enumerated": enumerated,
                    "exact": is_exact(getattr(res, "exact",
                                              getattr(res, "exactness", None))),
                    "codewords": (code.field.order ** code.k
                                  if enumerated else 0)}

        def build_before(args, kwargs):
            info = getattr(build_field, "cache_info", None)
            return info().misses if info else None

        def build_after(misses, res, flags):
            if not flags & _OUTER_NAME:
                return None
            if misses is None:
                return {"built": 1}
            return {"built": build_field.cache_info().misses - misses}

        def target_before(args, kwargs):
            return kwargs.get("which", args[0] if args else None)

        def target_after(target, report, flags):
            return {"target": target, "rows": len(report.rows)}

        def load_after(catalog, res, flags):
            return {"entries": len(catalog_list(catalog))}

        def records_after(state, res, flags):
            if not flags & _OUTER_LAYER:
                return None
            recs = res if isinstance(res, (list, tuple)) else (res,)
            return {"records": sum(1 for r in recs if hasattr(r, "dz"))}

        def nothing(args, kwargs):
            return None

        self._hooks = {
            "lincode.min_distance": (distance_before("md"), distance_after),
            "lincode.relative_min_weight": (distance_before("rel"),
                                            distance_after),
            "galois.build_field": (build_before, build_after),
            "audit.audit_table": (target_before, target_after),
            "catalog.Catalog.__init__": (lambda a, k: a[0], load_after),
            "quantum": (nothing, records_after),
        }

    # -- results -----------------------------------------------------------
    def _table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, _WIDTH)

    def save(self, path: str):
        """Write every span, the name table and the span observations."""
        t = self._table()
        np.savez(path, name=t[:, _NAME], start_ns=t[:, _START],
                 end_ns=t[:, _END], parent=t[:, _PARENT], item=t[:, _ITEM],
                 flags=t[:, _FLAGS], names=np.array(self.names),
                 items=np.array(self.items),
                 extras=np.array(json.dumps(
                     {str(k): v for k, v in self.extras.items()})))

    def self_times(self):
        """Per-span duration and self time (duration minus child spans), s."""
        t = self._table()
        dur = (t[:, _END] - t[:, _START]).astype(np.float64) / 1e9
        child = np.zeros_like(dur)
        nested = t[:, _PARENT] >= 0
        np.add.at(child, t[nested, _PARENT], dur[nested])
        return dur, dur - child

    def layer_metrics(self, wall_s: float, untraced_wall_s: float) -> dict:
        """The per-layer metrics of BENCHMARK.json from the recorded spans."""
        t = self._table()
        dur, self_s = self.self_times()
        name = t[:, _NAME]
        flags = t[:, _FLAGS]
        layer = np.array(self.layer_of, dtype=np.int64)[name]
        span_names = np.array(self.names, dtype=object)[name]

        def calls(fn):
            return int(np.count_nonzero(span_names == fn))

        def incl(*fns):
            sel = np.isin(span_names, fns) & (flags & _OUTER_NAME > 0)
            return float(dur[sel].sum())

        out = {}
        for lid, lname in enumerate(LAYERS):
            sel = layer == lid
            out[f"{lname}.calls"] = int(np.count_nonzero(sel))
            out[f"{lname}.self_s"] = float(self_s[sel].sum())

        ex = self.extras

        def extra_sum(fn, key):
            return sum(e.get(key, 0) for i, e in ex.items()
                       if span_names[i] == fn)

        out.update({
            "galois.field_builds": extra_sum("galois.build_field", "built"),
            "galois.field_build_s": incl("galois.build_field"),
            "galois.vmul_calls": calls("galois.Field.vmul"),
            "galois.vmul_s": incl("galois.Field.vmul"),
            "galois.vadd_calls": calls("galois.Field.vadd"),
            "galois.vadd_s": incl("galois.Field.vadd"),
            "galois.embedding_s": incl("galois.get_embedding"),
            "gflinalg.rref_calls": calls("gflinalg.rref"),
            "gflinalg.rref_s": incl("gflinalg.rref"),
            "gflinalg.nullspace_s": incl("gflinalg.nullspace"),
            "gflinalg.rowspace_checks": calls("gflinalg.in_rowspace"),
            "gflinalg.rowspace_s": incl("gflinalg.in_rowspace"),
            "gflinalg.rank_calls": calls("gflinalg.rank"),
            "polyalg.closure_calls": calls("polyalg.defining_set_closure"),
            "polyalg.closure_s": incl("polyalg.defining_set_closure"),
            "polyalg.generator_s": incl("polyalg.generator_from_defining_set"),
            "polyalg.bch_bound_calls": calls("polyalg.bch_bound"),
        })

        dist = [(i, e) for i, e in ex.items() if "bucket" in e]
        for b in BUCKETS:
            hits = [(i, e) for i, e in dist if e["bucket"] == b
                    and e["enumerated"]]
            secs = float(sum(dur[i] for i, _ in hits))
            words = sum(e["codewords"] for _, e in hits)
            out[f"lincode.enum_s.{b}"] = secs
            out[f"lincode.codewords.{b}"] = words
            out[f"lincode.ns_per_codeword.{b}"] = (secs * 1e9 / words
                                                   if words else 0.0)
        out["lincode.bound_s"] = float(sum(
            dur[i] for i, e in dist if e["bucket"].startswith("md_")
            and not e["enumerated"] and not e["cached"]))
        out["lincode.distance_calls"] = len(dist)
        out["lincode.exact_ratio"] = (sum(e["exact"] for _, e in dist)
                                      / len(dist) if dist else 0.0)
        out.update({
            "lincode.expand_s": incl("lincode.expand_basis",
                                     "lincode.expand_with_parity"),
            "lincode.is_mds_s": incl("lincode.is_mds"),
            "lincode.dual_s": incl("lincode.LinearCode.dual"),
            "lincode.contains_s": incl("lincode.LinearCode.contains_code"),
        })

        fam = (layer == LAYERS.index("families")) & (flags & _OUTER_LAYER > 0)
        out["families.builds"] = int(np.count_nonzero(fam))
        out["families.build_s"] = float(dur[fam].sum())
        out["quantum.records"] = sum(e.get("records", 0) for e in ex.values())
        out["audit.rows"] = extra_sum("audit.audit_table", "rows")
        for target in AUDIT_TARGETS:
            out[f"audit.target_s.{target}"] = float(sum(
                dur[i] for i, e in ex.items()
                if span_names[i] == "audit.audit_table"
                and e.get("target") == target))
        out["cli.commands"] = calls("cli.run_cli")
        out.update({
            "catalog.loads": calls("catalog.Catalog.__init__"),
            "catalog.entries_loaded": extra_sum("catalog.Catalog.__init__",
                                                "entries"),
            "catalog.load_s": incl("catalog.Catalog.__init__"),
            "catalog.put_s": incl("catalog.Catalog.put"),
            "catalog.search_s": incl("catalog.Catalog.search"),
        })
        top = t[:, _PARENT] < 0
        out["trace.overhead_s"] = wall_s - untraced_wall_s
        out["trace.untraced_s"] = wall_s - float(dur[top].sum())
        return out

    def item_breakdown(self, top: int = 8) -> dict:
        """Per item: self time by layer and the functions with most self time."""
        t = self._table()
        _, self_s = self.self_times()
        layer_of = np.array(self.layer_of, dtype=np.int64)
        out = {}
        for k, item in enumerate(self.items):
            sel = t[:, _ITEM] == k
            by_fn = np.bincount(t[sel, _NAME], weights=self_s[sel],
                                minlength=len(self.names))
            by_layer = np.bincount(layer_of, weights=by_fn,
                                   minlength=len(LAYERS))
            out[item] = {
                "self_s_by_layer": {LAYERS[i]: round(float(by_layer[i]), 6)
                                    for i in np.argsort(-by_layer)
                                    if by_layer[i] > 0},
                "top_self_s": {self.names[i]: round(float(by_fn[i]), 6)
                               for i in np.argsort(-by_fn)[:top]
                               if by_fn[i] > 0},
            }
        return out
