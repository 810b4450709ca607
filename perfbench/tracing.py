"""Layer tracing from outside the library.

The benchmark replaces public functions of the novikov modules by wrappers
wherever a caller looks them up: in every module namespace that binds the
function (``novikov.linalg.solve_sparse`` and ``novikov.certificate.
solve_sparse`` alike) and, for methods, on the class. A wrapper either
records a span (name, parent, start, end) or, for the innermost kernels,
only counts calls, which keeps the tracing overhead bounded. Spans stay in
memory; self time is a span's duration minus the durations of its direct
child spans, so the self times of all spans under an op add up to the op.
"""

import inspect
import sys
import time
from collections import Counter

LAYERS = (
    "linalg",
    "lie",
    "products",
    "rmatrix",
    "extensions",
    "reduction",
    "certificate",
    "laf",
    "cli",
)

# Methods traced under a name of their own.
METHODS = {
    ("linalg", "Matrix", "__mul__"): "linalg.matmul",
    ("lie", "StructureTensor", "basis_product"): "lie.basis_product",
    ("lie", "StructureTensor", "apply"): "lie.apply",
    ("lie", "StructureTensor", "left_matrix"): "lie.left_matrix",
}

# The innermost kernels are counted, never timed, which keeps the tracing
# overhead bounded.
COUNTED = ("linalg.vdot", "lie.basis_product", "lie.apply", "lie.left_matrix")

# Span names reported under a shared name; a span nested inside another span
# of the same reported name adds nothing to its inclusive time.
GROUPS = {
    "extensions.scheuneman_lift": "extensions.lift",
    "extensions.two_gen_lift": "extensions.lift",
    "extensions.jordan_lift": "extensions.lift",
    "extensions.iso_lift": "extensions.lift",
    "extensions.semidirect_lift": "extensions.lift",
}

ROOT_SPAN = "bench.op"


def _public_functions(module):
    for name, value in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module.__name__
        ):
            yield name, value


class Tracer:
    """Span and count store for one process, plus the wrapper factory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.ops = 0

    def span_wrapper(self, name, func, hook=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def count_wrapper(self, name, func):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def vdot_wrapper(self, func):
        counts = self.counts

        def wrapper(u, v):
            counts["linalg.vdot"] += 1
            counts["linalg.vdot.terms"] += len(u)
            counts["linalg.vdot.nonzero_terms"] += sum(1 for a, b in zip(u, v) if a and b)
            return func(u, v)

        return wrapper

    def op(self, func):
        """Run func() as one op under a root span."""
        self.ops += 1
        return self.span_wrapper(ROOT_SPAN, func)()

    def aggregate(self):
        """Per reported name: calls, inclusive seconds, self seconds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, self_s = Counter(), Counter(), Counter()
        for index, (name, parent, start, end) in enumerate(spans):
            key = GROUPS.get(name, name)
            dur = end - start
            calls[key] += 1
            self_s[key] += dur - child[index]
            outer = parent
            while outer >= 0 and GROUPS.get(spans[outer][0], spans[outer][0]) != key:
                outer = spans[outer][1]
            if outer < 0:
                incl[key] += dur
        return calls, incl, self_s

    def dump(self):
        """Spans as plain lists, times relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        return [[n, p, round(s - t0, 9), round(e - t0, 9)] for n, p, s, e in self.spans]


class Patch:
    """A set of (namespace, attribute, original, replacement) sites that is
    applied on entry and undone on exit."""

    def __init__(self, sites):
        self.sites = sites

    def __enter__(self):
        for target, attr, _, new in self.sites:
            setattr(target, attr, new)
        return self

    def __exit__(self, *exc):
        for target, attr, old, _ in reversed(self.sites):
            setattr(target, attr, old)
        return False


def _package_modules(package):
    prefix = package.__name__ + "."
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == package.__name__ or name.startswith(prefix))
    ]


def build_patch(package, tracer=None, hooks=None):
    """Patch for the package. hooks ({"layer.function": hook(args, result)})
    run after the named function returns. With a tracer, every public
    function of each layer and the METHODS get wrappers as well."""
    hooks = hooks or {}
    replacements = {}
    for layer in LAYERS:
        for name, func in _public_functions(getattr(package, layer)):
            key = "%s.%s" % (layer, name)
            hook = hooks.get(key)
            if tracer is None:
                if hook is not None:
                    replacements[func] = _hooked(func, hook)
            elif key == "linalg.vdot":
                replacements[func] = tracer.vdot_wrapper(func)
            else:
                replacements[func] = tracer.span_wrapper(key, func, hook)
    sites = []
    if tracer is not None:
        for (layer, cls_name, attr), name in METHODS.items():
            cls = getattr(getattr(package, layer), cls_name)
            func = vars(cls)[attr]
            if name in COUNTED:
                sites.append((cls, attr, func, tracer.count_wrapper(name, func)))
            else:
                sites.append((cls, attr, func, tracer.span_wrapper(name, func)))
    for module in _package_modules(package):
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replacements:
                sites.append((module, attr, value, replacements[value]))
    return Patch(sites)


def _hooked(func, hook):
    def wrapper(*args, **kwargs):
        result = func(*args, **kwargs)
        hook(args, result)
        return result

    return wrapper
