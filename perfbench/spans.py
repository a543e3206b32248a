"""In-memory span recorder and the instrumentation of pu6's public functions.

``instrument`` wraps every public function of each pu6 module, and two
methods, from the outside: each wrapper is bound wherever callers look the
function up (every pu6 module namespace and module-level dispatch dicts), so
``pu6.positivity.coeffs_from_tensor`` is wrapped as well as
``pu6.hierarchy.coeffs_from_tensor``.  Nothing in ``src/`` changes.

A span holds its name (the layer group of the function), start, end, parent
span, run id (one per CLI call) and the exception that ended it, if any.
Spans stay in flat arrays until ``save`` writes them out; self time is a
span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYER_MODULES = (
    "core", "symmetries", "hierarchy", "positivity",
    "representations", "dynamics", "verification", "cli",
)

# span group of a function when it is finer than its module name
GROUPS = {
    "hierarchy.coeffs_from_tensor": "hierarchy.duality",
    "hierarchy.coeffs_dual": "hierarchy.duality",
    "hierarchy.hamiltonian_n_recursive": "hierarchy.recursion",
    "hierarchy.hamiltonian_n_closed": "hierarchy.recursion",
    "hierarchy.hierarchy_coefficients": "hierarchy.recursion",
    "hierarchy.hierarchy_matrix": "hierarchy.recursion",
    "hierarchy.combined_form": "hierarchy.combine",
    "hierarchy.combined_flow": "hierarchy.combine",
    "hierarchy.flow_expansion_coefficients": "hierarchy.combine",
    "positivity.eigenvalue_split": "positivity.oracle",
    "positivity.hbar_prefactors": "positivity.prefactor",
    "positivity.tensor_weight_polynomials": "positivity.prefactor",
    "positivity.region_scan": "positivity.scan",
    "positivity.RegionScanResult.write_csv": "positivity.csv",
    "dynamics.integrate_rk4": "dynamics.rk4",
    "dynamics.interaction_field": "dynamics.rk4",
    "dynamics.trajectory_csv": "dynamics.csv",
    "dynamics.conservation_drift": "dynamics.drift",
    "dynamics.solve_exact": "dynamics.exact",
    "dynamics.exact_trajectory": "dynamics.exact",
    "dynamics.divergent_mode_present": "dynamics.exact",
    "dynamics.ExactSolution.states": "dynamics.exact",
    "verification.run_invariant_suite": "verification.suite",
}
METHODS = (("positivity", "RegionScanResult", "write_csv"), ("dynamics", "ExactSolution", "states"))


def _verdict_group(args, kwargs) -> str:
    """positivity_verdict is the oracle or the prefactor criterion by its method."""
    method = kwargs.get("method", args[2] if len(args) > 2 else "prefactor")
    return "positivity.oracle" if method == "eigenvalue" else "positivity.prefactor"


class SpanRecorder:
    """Flat, append-only span storage; recording only while a run is open."""

    def __init__(self):
        self.names: list[str] = []
        self.exc_names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("i")
        self.exc = array("i")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._run_id = -1
        self.active = False

    @staticmethod
    def _id(table: list, key: str) -> int:
        if key not in table:
            table.append(key)
        return table.index(key)

    def open_run(self) -> None:
        self._run_id += 1
        self.active = True

    def close_run(self) -> None:
        self.active = False

    def wrap(self, fn, group):
        """Wrap ``fn`` so each call while a run is open records one span."""
        rec = self
        fixed = None if callable(group) else self._id(self.names, group)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            nid = fixed if fixed is not None else rec._id(rec.names, group(args, kwargs))
            idx = len(rec.start)
            rec.name.append(nid)
            rec.parent.append(rec._stack[-1])
            rec.run.append(rec._run_id)
            rec.exc.append(-1)
            rec.end.append(0.0)
            rec._stack.append(idx)
            rec.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec.exc[idx] = rec._id(rec.exc_names, type(exc).__name__)
                raise
            finally:
                rec.end[idx] = perf_counter()
                rec._stack.pop()

        return wrapper

    def counting_field(self, interaction_field):
        """Wrap dynamics.interaction_field so every evaluation of its field is counted."""
        rec = self

        @functools.wraps(interaction_field)
        def wrapper(p, w):
            field = interaction_field(p, w)

            def counted(s):
                if rec.active:
                    rec.counters["dynamics.field_calls"] += 1
                return field(s)

            return counted

        return wrapper

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start),
            "end": np.frombuffer(self.end),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "run": np.frombuffer(self.run, dtype=np.int32),
            "exc": np.frombuffer(self.exc, dtype=np.int32),
        }

    def summary(self) -> dict:
        """Per group: entries from outside the group, self time, raised exceptions."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], dur[nested])
        self_time = np.bincount(a["name"], weights=dur - child, minlength=len(self.names))
        parent_name = np.where(nested, a["name"][np.maximum(a["parent"], 0)], -1)
        entry = parent_name != a["name"]
        calls = np.bincount(a["name"][entry], minlength=len(self.names))
        out = {n: {"calls": int(calls[i]), "self_s": float(self_time[i]), "raised": Counter()}
               for i, n in enumerate(self.names)}
        for i in np.flatnonzero(entry & (a["exc"] >= 0)):
            out[self.names[a["name"][i]]]["raised"][self.exc_names[a["exc"][i]]] += 1
        return out

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), exc_names=np.array(self.exc_names), **self.arrays())


def instrument(rec: SpanRecorder):
    """Wrap pu6's public functions for ``rec``; returns a function that undoes it."""
    import pu6

    modules = {m: importlib.import_module(f"pu6.{m}") for m in LAYER_MODULES}
    namespaces = [pu6] + list(modules.values())
    undo = []

    def rebind(original, wrapper):
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapper)
                    undo.append((setattr, ns, attr, original))
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, v in value.items():
                        if v is original:
                            value[key] = wrapper
                            undo.append((dict.__setitem__, value, key, original))

    for layer, mod in modules.items():
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            qual = f"{layer}.{attr}"
            target = rec.counting_field(fn) if qual == "dynamics.interaction_field" else fn
            group = _verdict_group if qual == "positivity.positivity_verdict" else GROUPS.get(qual, layer)
            rebind(fn, rec.wrap(target, group))
    for layer, cls_name, meth in METHODS:
        cls = getattr(modules[layer], cls_name)
        original = cls.__dict__[meth]
        setattr(cls, meth, rec.wrap(original, GROUPS[f"{layer}.{cls_name}.{meth}"]))
        undo.append((setattr, cls, meth, original))

    def restore():
        for setter, obj, key, original in reversed(undo):
            setter(obj, key, original)

    return restore
