"""Spans around actlab's public functions, recorded from the benchmark only.

``Tracer.install`` replaces each traced function with a wrapper under every
name it is reachable by: the defining module, the ``actlab`` package and any
``actlab.*`` module that imported it by name.  Nothing in ``src/`` changes;
``uninstall`` restores the originals.  Spans stay in memory as
``[name, request, parent, start, end, count]`` lists, in process CPU
seconds, until the run reports them; ``requests[request]`` is the (mode, m) of the request a span belongs
to.
"""

from __future__ import annotations

import functools
import sys
from time import process_time

# (module, attribute, span name).  tsankov_test is named per call: the exact
# method is a witness search around its expansion and division children, the
# sampled method is its own layer.
TRACED = (
    ("tensors", "r0", "tensors.build"),
    ("tensors", "r_theta", "tensors.build"),
    ("tensors", "random_act", "tensors.build"),
    ("tensors", "combine", "tensors.build"),
    ("tensors", "from_form", "tensors.build"),
    ("tensors", "validate", "tensors.validate"),
    ("scalars", "rank_with_mode", "scalars.rank"),
    ("jacobi", "jacobi", "jacobi.jacobi"),
    ("jacobi", "jacobi_polarized", "jacobi.polarized"),
    ("tsankov", "commutator_poly", "tsankov.poly"),
    ("tsankov", "divisible_by_pairing", "tsankov.divide"),
    ("tsankov", "tsankov_test", None),
    ("tsankov", "full_commutation_test", "tsankov.search"),
    ("classify", "classify", "classify.classify"),
    ("classify", "recover_complex_structure", "classify.recover"),
    ("cli", "load_tensor", "cli.load"),
    ("cli", "save_tensor", "cli.save"),
    ("cli", "main", "cli.process"),
)
METHODS = (("tensors", "CurvatureTensor", "to_float", "tensors.build"),)


def _tsankov_span(args, kwargs):
    method = kwargs.get("method", args[1] if len(args) > 1 else "exact")
    return "tsankov.sampled" if str(method).lower() == "sampled" else "tsankov.search"


class Tracer:
    """Collects spans while installed; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self.requests: list[tuple] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def begin(self, mode, m):
        """Start a new request; later spans belong to it."""
        self.requests.append((mode, m))

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name or _tsankov_span(args, kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [span_name, len(tracer.requests) - 1, parent, 0.0, 0.0, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[3] = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = process_time()
                tracer._stack.pop()
            if span_name == "tsankov.poly":  # coefficient count of the expansion
                span[5] = sum(len(coeffs) for coeffs in result.entries.values())
            return result

        return wrapper

    def install(self):
        """Wrap every traced function under all of its names."""
        modules = [mod for key, mod in list(sys.modules.items()) if key == "actlab" or key.startswith("actlab.")]
        for modname, attr, name in TRACED:
            orig = getattr(sys.modules[f"actlab.{modname}"], attr)
            wrapper = self._wrap(orig, name)
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
        for modname, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"actlab.{modname}"], cls_name)
            orig = cls.__dict__[attr]
            self._patches.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(orig, name))

    def uninstall(self):
        for target, attr, orig in reversed(self._patches):
            setattr(target, attr, orig)
        self._patches.clear()

    def add_spans(self, spans, mode, m):
        """Add the spans of one request recorded in a child process."""
        self.begin(mode, m)
        base = len(self.spans)
        for name, _, parent, start, end, count in spans:
            parent = None if parent is None else parent + base
            self.spans.append([name, len(self.requests) - 1, parent, start, end, count])


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    out = [end - start for _, _, _, start, end, _ in spans]
    for _, _, parent, start, end, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out
