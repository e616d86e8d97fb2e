"""Per-layer spans for diagcert, recorded from outside the package.

`Tracer.install` wraps every public module-level function of each diagcert
layer, the `RingElement` arithmetic dunders and the methods that compute or
apply bases, then rebinds every `diagcert.*` module attribute that refers to a
wrapped function object (names imported with `from .x import f` are separate
bindings, so patching only the defining module would miss calls between
layers).  `uninstall` restores the originals.

Each call records its count, inclusive time (outermost activation only, so
recursion is not counted twice) and self time (its duration minus the
duration of wrapped calls made inside it).  Calls outside the `rings` layer
also keep a span record (id, parent id, decision index, name, start, end) in
memory; the ring arithmetic runs millions of times per decision, so it keeps
only the aggregates.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("rings", "factorize", "groebner", "linalg", "homalg", "filtration",
          "diagonalizer", "testkit", "verifier", "cli", "jsonio")

# public methods wrapped besides the module-level functions
METHODS = {
    "rings": {"RingElement": ("__add__", "__sub__", "__mul__", "__neg__",
                              "__pow__"),
              "IdealHandle": ("groebner",)},
    "groebner": {"SubmoduleHandle": ("reduced_groebner",)},
    "linalg": {"Workbench": ("apply",)},
}

# calls in these layers are aggregated but not kept as span records
_AGGREGATE_ONLY_LAYERS = ("rings",)


class Tracer:
    def __init__(self):
        self.names = []
        self.calls = []
        self.incl = []
        self.self_s = []
        self._depth = []
        self._index = {}
        self._observers = {}
        self._stack = [[0.0, 0]]          # [child seconds, span id] per frame
        self._next_id = 1
        self.spans = []
        self.decision = 0
        self.outcomes = {"diagonalize": [], "factor": []}
        self._patched = []                # (owner, attribute, original)

    # -- installation ------------------------------------------------------
    def install(self, package):
        """Wrap the layers of an imported `diagcert` package in place."""
        modules = {name: sys.modules[f"{package.__name__}.{name}"]
                   for name in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}", layer))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    wrapper = self._wrap(fn, f"{layer}.{cls_name}.{meth}", layer)
                    self._patch(cls, meth, fn, wrapper)
        self._observe("diagonalizer.diagonalize", self.outcomes["diagonalize"])
        self._observe("factorize.factor", self.outcomes["factor"])
        prefix = package.__name__ + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package.__name__
                                      or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, value, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _observe(self, name, sink):
        self._observers[self._index[name]] = sink.append

    def _slot(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.incl.append(0.0)
        self.self_s.append(0.0)
        self._depth.append(0)
        self._index[name] = idx
        return idx

    def _wrap(self, fn, name, layer):
        idx = self._slot(name)
        record = layer not in _AGGREGATE_ONLY_LAYERS
        stack, calls, incl, self_s, depth, spans = (
            self._stack, self.calls, self.incl, self.self_s, self._depth,
            self.spans)
        observers = self._observers
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if record:
                span_id = tracer._next_id
                tracer._next_id = span_id + 1
            else:
                span_id = 0
            frame = [0.0, span_id]
            stack.append(frame)
            depth[idx] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent = stack[-1]
                parent[0] += elapsed
                calls[idx] += 1
                self_s[idx] += elapsed - frame[0]
                depth[idx] -= 1
                if not depth[idx]:
                    incl[idx] += elapsed
                if record:
                    spans.append((span_id, parent[1], tracer.decision, idx,
                                  start, end))
            sink = observers.get(idx)
            if sink is not None:
                sink(result)
            return result

        return wrapper

    # -- results -----------------------------------------------------------
    def calls_of(self, name):
        return self.calls[self._index[name]]

    def seconds_in(self, name):
        return self.incl[self._index[name]]

    def layer_self_s(self, layer):
        return sum(s for name, s in zip(self.names, self.self_s)
                   if name.split(".", 1)[0] == layer)

    def write_spans(self, path):
        """Write one JSON object per span, then the aggregate per name."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, decision, idx, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "decision": decision,
                                     "name": self.names[idx],
                                     "start": start, "end": end}) + "\n")
            for idx, name in enumerate(self.names):
                if self.calls[idx]:
                    fh.write(json.dumps({"aggregate": name,
                                         "calls": self.calls[idx],
                                         "inclusive_s": self.incl[idx],
                                         "self_s": self.self_s[idx]}) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics, as {name: (value, unit)}."""
    t = tracer
    diag = t.outcomes["diagonalize"]
    searched = [r for r in diag if r.method in ("elementary-search",
                                                "fitting-obstruction",
                                                "exhausted")]
    hits = sum(1 for r in searched if r.method == "elementary-search")
    refuted = sum(len(r.obstruction.refutations) for r in diag
                  if r.obstruction is not None)
    factors = t.outcomes["factor"]
    complete = sum(1 for f in factors if f.complete)
    basis_calls = (t.calls_of("groebner.groebner_basis")
                   + t.calls_of("groebner.ideal_groebner")
                   + t.calls_of("groebner.SubmoduleHandle.reduced_groebner"))
    out = {
        "verifier.check_equivalence_calls":
            (t.calls_of("verifier.check_equivalence"), "count"),
        "verifier.check_equivalence_s":
            (t.seconds_in("verifier.check_equivalence"), "s"),
        "verifier.check_ideal_mismatch_s":
            (t.seconds_in("verifier.check_ideal_mismatch"), "s"),
        "linalg.smith_normal_form_s":
            (t.seconds_in("linalg.smith_normal_form"), "s"),
        "linalg.determinant_calls": (t.calls_of("linalg.determinant"), "count"),
        "linalg.workbench_ops": (t.calls_of("linalg.Workbench.apply"), "count"),
        "linalg.fitting_ideal_calls":
            (t.calls_of("linalg.fitting_ideal"), "count"),
        "diagonalizer.diagonalize_s":
            (t.seconds_in("diagonalizer.diagonalize"), "s"),
        "diagonalizer.search_hit_ratio": (_ratio(hits, len(searched)), "ratio"),
        "diagonalizer.candidates_refuted": (refuted, "count"),
        "factorize.factor_calls": (len(factors), "count"),
        "factorize.factor_s": (t.seconds_in("factorize.factor"), "s"),
        "factorize.complete_ratio": (_ratio(complete, len(factors)), "ratio"),
        "groebner.groebner_basis_calls": (basis_calls, "count"),
        "groebner.syzygies_calls": (t.calls_of("groebner.syzygies"), "count"),
        "groebner.colon_calls": (t.calls_of("groebner.colon"), "count"),
        "groebner.colon_s": (t.seconds_in("groebner.colon"), "s"),
        "homalg.element_annihilator_calls":
            (t.calls_of("homalg.element_annihilator"), "count"),
        "homalg.is_quasi_gorenstein_s":
            (t.seconds_in("homalg.is_quasi_gorenstein"), "s"),
        "homalg.is_isomorphic_s": (t.seconds_in("homalg.is_isomorphic"), "s"),
        "filtration.sample_lattice_s":
            (t.seconds_in("filtration.sample_lattice"), "s"),
        "filtration.search_s":
            (t.seconds_in("filtration.search_minimal_cyclic_filtration"), "s"),
        "rings.mul_calls": (t.calls_of("rings.RingElement.__mul__"), "count"),
        "rings.add_calls": (t.calls_of("rings.RingElement.__add__"), "count"),
        "rings.gcd_calls": (t.calls_of("rings.gcd"), "count"),
        "cli.run_s": (t.seconds_in("cli.run"), "s"),
        "jsonio.dumps_s": (t.seconds_in("jsonio.dumps"), "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (t.layer_self_s(layer), "s")
    return out
