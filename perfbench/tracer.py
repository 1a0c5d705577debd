"""Outside-in instrumentation of laurentdecide.

``Tracer`` records a span around every call of the public layer functions
listed in ``SPANNED``; ``OpCounter`` counts kernel operations and repeated
Groebner inputs in a separate pass, so its wrappers never sit inside a timed
span.  Both patch the engine from outside and restore it on exit; no engine
file changes.

Pitfalls handled here, each covered by a test:

- A function is patched in every module that holds a binding to it:
  ``resolve.buchberger``, ``hensel.buchberger`` and ``ideal.buchberger`` are
  separate names for one function, and the binding's module is the call site.
- Generators (the digit search) are timed across every ``next()``; wrapping
  only the call would time the creation of the generator object.
- A span's self time is its duration minus the durations of its child spans.
- Every span carries the id of the sentence being decided.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, namedtuple

LAYERS = ("frontend", "resolve", "ideal", "truncation", "hensel")

# public functions of each layer that get a span; iter_solutions is a
# generator and its span is named truncation.search
SPANNED = {
    "frontend": ("decide", "parse", "eliminate_valuation_atoms", "to_systems"),
    "resolve": ("decide_existential", "regularity_check", "blow_up_origin", "descend"),
    "ideal": ("buchberger", "radical_membership", "squarefree_part", "dimension", "normal_form"),
    "truncation": ("decide_positive", "weil_restrict", "iter_solutions"),
    "hensel": ("certify_liftable", "newton_lift", "smooth_perturb", "system_dimension"),
}
GENERATORS = {"iter_solutions": "search"}

# Groebner call sites, named by the module holding the binding that was called
BUCHBERGER_SITES = ("resolve", "hensel", "ideal")

Span = namedtuple("Span", "id parent name site sentence start end self_s")


def _engine_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "laurentdecide" or name.startswith("laurentdecide."))]


def bindings(layer, name):
    """(module, site) for every engine module bound to layer.name."""
    origin = sys.modules[f"laurentdecide.{layer}"]
    fn = getattr(origin, name)
    return [(m, m.__name__.rpartition(".")[2])
            for m in _engine_modules() if getattr(m, name, None) is fn]


class _Patches:
    """Attribute replacements undone in reverse order on exit."""

    def __init__(self):
        self._saved = []

    def set(self, obj, attr, value):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def __exit__(self, *exc):
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)
        return False


class Tracer(_Patches):
    """Spans at the layer boundaries, kept in memory.

    Counts taken from return values (systems produced, levels, candidates
    certified, ...) are kept in ``counts``.
    """

    def __init__(self, clock=time.perf_counter):
        super().__init__()
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self.sentence = None
        self._stack = []     # open frames: [span id, start, time in children]
        self._next_id = 0

    def __enter__(self):
        import laurentdecide  # noqa: F401 - the modules to patch must be loaded

        for layer, names in SPANNED.items():
            for name in names:
                for module, site in bindings(layer, name):
                    fn = getattr(module, name)
                    if name in GENERATORS:
                        wrapped = self.wrap_generator(fn, f"{layer}.{GENERATORS[name]}", site)
                    else:
                        wrapped = self.wrap(fn, f"{layer}.{name}", site)
                    self.set(module, name, wrapped)
        return self

    def _open(self):
        self._next_id += 1
        frame = [self._next_id, self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, name, site):
        end = self.clock()
        self._stack.pop()
        duration = end - frame[1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans.append(Span(frame[0], parent[0] if parent else None, name, site,
                               self.sentence, frame[1], end, duration - frame[2]))

    def wrap(self, fn, name, site):
        observe = OBSERVERS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            frame = self._open()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[f"{name}.raised"] += 1
                raise
            finally:
                self._close(frame, name, site)
            if observe is not None:
                observe(counts, result)
            return result

        return traced

    def wrap_generator(self, fn, name, site):
        counts = self.counts

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    frame = self._open()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(frame, name, site)
                    counts[f"{name}.yielded"] += 1
                    yield item
            finally:
                inner.close()

        return traced

    def self_times(self):
        """{(name, site): total self time}."""
        out = Counter()
        for s in self.spans:
            out[s.name, s.site] += s.self_s
        return out

    def calls(self, name):
        return sum(1 for s in self.spans if s.name == name)


def _count_systems(counts, systems):
    counts["frontend.systems"] += len(systems)


def _count_restriction(counts, restriction):
    counts["truncation.levels"] += 1
    counts["truncation.restricted_eqs"] += len(restriction.restricted)
    counts["truncation.digit_vars"] += restriction.ring.nvars


def _count_certified(counts, cert):
    counts["hensel.certify_liftable.certified"] += cert is not None


def _count_exhausted(counts, out):
    counts["hensel.smooth_perturb.exhausted"] += out is None


OBSERVERS = {
    "frontend.to_systems": _count_systems,
    "truncation.weil_restrict": _count_restriction,
    "hensel.certify_liftable": _count_certified,
    "hensel.smooth_perturb": _count_exhausted,
}


def layer_metrics(tracer, pass_s):
    """Per-layer metrics of one traced pass."""
    self_t = tracer.self_times()
    counts = tracer.counts

    def self_of(name):
        return sum(v for (n, _), v in self_t.items() if n == name)

    m = {f"{layer}.self_s": sum(v for (n, _), v in self_t.items() if n.startswith(layer + "."))
         for layer in LAYERS}
    for site in BUCHBERGER_SITES:
        m[f"ideal.buchberger.calls.{site}"] = sum(
            1 for s in tracer.spans if s.name == "ideal.buchberger" and s.site == site)
        m[f"ideal.buchberger.self_s.{site}"] = self_t.get(("ideal.buchberger", site), 0.0)
    certify_calls = tracer.calls("hensel.certify_liftable")
    m.update({
        "frontend.systems": counts["frontend.systems"],
        "resolve.decide_existential.calls": tracer.calls("resolve.decide_existential"),
        "resolve.regularity_check.self_s": self_of("resolve.regularity_check"),
        "resolve.blow_up_origin.calls": tracer.calls("resolve.blow_up_origin"),
        "ideal.squarefree_part.self_s": self_of("ideal.squarefree_part"),
        "ideal.radical_membership.self_s": self_of("ideal.radical_membership"),
        "truncation.search.self_s": self_of("truncation.search"),
        "truncation.search.yielded": counts["truncation.search.yielded"],
        "truncation.levels": counts["truncation.levels"],
        "truncation.weil_restrict.self_s": self_of("truncation.weil_restrict"),
        "truncation.restricted_eqs": counts["truncation.restricted_eqs"],
        "truncation.digit_vars": counts["truncation.digit_vars"],
        "truncation.decide_positive.self_s": self_of("truncation.decide_positive"),
        "hensel.certify_liftable.calls": certify_calls,
        "hensel.certify_liftable.self_s": self_of("hensel.certify_liftable"),
        "hensel.certified_frac": (counts["hensel.certify_liftable.certified"] / certify_calls
                                  if certify_calls else 0.0),
        "hensel.newton_lift.self_s": self_of("hensel.newton_lift"),
        "hensel.newton_lift.rejected": counts["hensel.newton_lift.raised"],
        "hensel.smooth_perturb.calls": tracer.calls("hensel.smooth_perturb"),
        "hensel.smooth_perturb.exhausted": counts["hensel.smooth_perturb.exhausted"],
        "trace.pass_s": pass_s,
        "trace.accounted_frac": sum(self_t.values()) / pass_s,
    })
    return m


class OpCounter(_Patches):
    """Kernel operation counts and repeated Groebner inputs.

    Counts the primitive operations of FqElem (+, unary -, *, inv),
    RationalFunction (the same four) and TruncatedSeries (*); composite
    operations such as subtraction show up as their primitives.  A Groebner
    call repeats when the same ring and generator list were already passed
    to buchberger while deciding the same sentence.
    """

    KERNELS = (
        ("ff", "FqElem", ("__add__", "__neg__", "__mul__", "inv"), "ff.elem_ops"),
        ("poly", "RationalFunction", ("__add__", "__neg__", "__mul__", "inv"), "poly.ratfunc_ops"),
        ("series", "TruncatedSeries", ("__mul__",), "series.mul_ops"),
    )

    def __init__(self):
        super().__init__()
        self.counts = Counter()
        self.sentence = None
        self._seen = set()

    def __enter__(self):
        import laurentdecide  # noqa: F401

        for module, cls_name, methods, metric in self.KERNELS:
            cls = getattr(sys.modules[f"laurentdecide.{module}"], cls_name)
            for method in methods:
                self.set(cls, method, self._counting(getattr(cls, method), metric))
        for module, site in bindings("ideal", "buchberger"):
            self.set(module, "buchberger", self._keyed(module.buchberger, site))
        return self

    def _counting(self, fn, metric):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return counted

    def _keyed(self, fn, site):
        counts = self.counts

        def keyed(generators, ring=None, track=False):
            key = (self.sentence, ring, tuple(generators))
            counts[f"ideal.buchberger.calls.{site}"] += 1
            counts["ideal.buchberger.calls"] += 1
            counts["ideal.buchberger.repeats"] += key in self._seen
            self._seen.add(key)
            return fn(generators, ring=ring, track=track)

        return keyed

    def metrics(self):
        c = self.counts
        calls = c["ideal.buchberger.calls"]
        return {
            "ff.elem_ops": c["ff.elem_ops"],
            "poly.ratfunc_ops": c["poly.ratfunc_ops"],
            "series.mul_ops": c["series.mul_ops"],
            "ideal.buchberger.repeat_frac": c["ideal.buchberger.repeats"] / calls if calls else 0.0,
        }
