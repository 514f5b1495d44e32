"""Span tracing of the engine from outside the package.

`Patch` replaces every public function of every `reverb_snn` module (and the
public methods of its classes) with a wrapper built by a caller-supplied
factory. Modules import kernels by name (`from .numerics import conv2d`), so
a wrapper is installed under every name in every module namespace that
refers to the original function, including module-level dispatch tables. An
alias that cannot be replaced (inside a tuple or list) raises `TraceError`.

`Tracer` is the factory used by the traced run. Each call of a wrapped
function becomes one span. The span schema, also used by the (gzipped)
spans file, is one JSON object per line:

    {"id": int, "parent": int | null, "name": str, "start_ns": int, "end_ns": int}

`parent` is the id of the innermost span open when the span started. Times
come from `time.perf_counter_ns`. Spans stay in memory until the run writes
them.

Span names are `<module>.<function>` or `<module>.<Class>.<method>`, with the
module named without the package prefix. Calls of `layers.forward` made by
`training.forward_pass` are named per layer and timestep,
`layers.forward.l{i}.t{t}`, from their position among the pass's calls.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import pkgutil
import time

PACKAGE = "reverb_snn"


class TraceError(RuntimeError):
    """A wrapper could not be installed where the engine refers to a function."""


def engine_modules(package_name: str = PACKAGE) -> list:
    """The package module followed by every submodule, all imported."""
    package = importlib.import_module(package_name)
    names = sorted(m.name for m in pkgutil.iter_modules(package.__path__))
    return [package] + [importlib.import_module(f"{package_name}.{n}") for n in names]


def _plain_function(obj) -> bool:
    # Generator functions are skipped: their call returns before any work runs.
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)


def public_callables(modules) -> tuple[dict, dict]:
    """({function: span name}, {(class, method name): span name}) for the
    public functions and public class methods defined in `modules`."""
    functions, methods = {}, {}
    for mod in modules[1:]:
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if _plain_function(obj):
                functions[obj] = f"{short}.{name}"
            elif inspect.isclass(obj):
                for mname, m in vars(obj).items():
                    if not mname.startswith("_") and _plain_function(m):
                        methods[(obj, mname)] = f"{short}.{name}.{mname}"
    return functions, methods


def _is_original(value, wrappers) -> bool:
    return inspect.isfunction(value) and value in wrappers


class Patch:
    """Installs wrappers made by `make_wrapper(fn, name)` over the engine's
    public callables; a factory returning None leaves that callable alone.
    Use as a context manager, or call `install` and `remove`."""

    def __init__(self, make_wrapper, package_name: str = PACKAGE):
        self.make_wrapper = make_wrapper
        self.package_name = package_name
        self._undo: list = []

    def install(self) -> "Patch":
        if self._undo:
            raise TraceError("patch already installed")
        modules = engine_modules(self.package_name)
        functions, methods = public_callables(modules)
        wrappers = {}
        for fn, name in functions.items():
            w = self.make_wrapper(fn, name)
            if w is not None:
                wrappers[fn] = w
        try:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if _is_original(value, wrappers):
                        self._undo.append((setattr, mod, attr, value))
                        setattr(mod, attr, wrappers[value])
                    elif isinstance(value, dict):
                        for key, v in list(value.items()):
                            if _is_original(v, wrappers):
                                self._undo.append((dict.__setitem__, value, key, v))
                                value[key] = wrappers[v]
                    elif isinstance(value, (list, tuple)):
                        if any(_is_original(v, wrappers) for v in value):
                            raise TraceError(
                                f"{mod.__name__}.{attr} holds an engine function "
                                f"inside a {type(value).__name__}; it cannot be wrapped"
                            )
            for (cls, mname), name in methods.items():
                original = vars(cls)[mname]
                w = self.make_wrapper(original, name)
                if w is not None:
                    self._undo.append((setattr, cls, mname, original))
                    setattr(cls, mname, w)
        except BaseException:
            self.remove()
            raise
        return self

    def remove(self) -> None:
        while self._undo:
            setter, target, key, original = self._undo.pop()
            setter(target, key, original)

    def __enter__(self) -> "Patch":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _matmul_counts(args, kwargs):
    (m, k), (_, n) = _arg(args, kwargs, 0, "a").shape, _arg(args, kwargs, 1, "b").shape
    return m * k * n, 8 * (m * k + k * n + m * n)


def _conv2d_counts(args, kwargs):
    x = _arg(args, kwargs, 0, "inp")
    kern = _arg(args, kwargs, 1, "kernels")
    stride = args[2] if len(args) > 2 else kwargs.get("stride", 1)
    padding = args[3] if len(args) > 3 else kwargs.get("padding", 0)
    *lead, c_in, h, w = x.shape
    batch = lead[0] if lead else 1
    c_out, _, k, _ = kern.shape
    h_out = (h + 2 * padding - k) // stride + 1
    w_out = (w + 2 * padding - k) // stride + 1
    out = batch * c_out * h_out * w_out
    return out * c_in * k * k, 8 * (x.size + kern.size + out)


# Work counts derived from operand shapes: (multiply-accumulates, bytes of
# operands and result, at 8 bytes per float64).
SHAPE_COUNTS = {
    "numerics.matmul": _matmul_counts,
    "numerics.conv2d": _conv2d_counts,
}


class Tracer:
    """Records one span per wrapped call while `recording` is true.

    `spans` holds [name, parent id, start_ns, end_ns] per span, indexed by
    id; `counts` holds the shape-derived work counts per `<span>.macs` and
    `<span>.bytes`.
    """

    def __init__(self):
        self.recording = False
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._passes: dict[int, list[int]] = {}  # forward_pass id -> [layers, calls]

    def reset(self) -> None:
        self.spans, self.counts, self._passes = [], {}, {}

    def patch(self) -> Patch:
        return Patch(self.wrap)

    def wrap(self, fn, name: str):
        tracer = self
        shape_counts = SHAPE_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            sid = len(tracer.spans)
            span_name = tracer._span_name(name, sid, parent, args, kwargs)
            if shape_counts is not None:
                macs, nbytes = shape_counts(args, kwargs)
                tracer.counts[f"{name}.macs"] = tracer.counts.get(f"{name}.macs", 0) + macs
                tracer.counts[f"{name}.bytes"] = tracer.counts.get(f"{name}.bytes", 0) + nbytes
            span = [span_name, parent, 0, 0]
            tracer.spans.append(span)
            tracer._stack.append(sid)
            span[2] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                tracer._stack.pop()

        return traced

    def _span_name(self, name, sid, parent, args, kwargs) -> str:
        if name == "training.forward_pass":
            self._passes[sid] = [len(_arg(args, kwargs, 0, "net").layers), 0]
        elif name == "layers.forward" and parent in self._passes:
            entry = self._passes[parent]
            n_layers, k = entry
            entry[1] += 1
            return f"{name}.l{k % n_layers}.t{k // n_layers}"
        return name

    def write_spans(self, path) -> None:
        """Write the spans, one JSON object per line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for sid, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")


def self_times(spans) -> dict[str, int]:
    """Total self time in ns per span name: each span's duration minus the
    part of its interval covered by the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, parent, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, int] = {}
    for sid, (name, _, start, end) in enumerate(spans):
        covered, reach = 0, start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        totals[name] = totals.get(name, 0) + (end - start) - covered
    return totals


def call_counts(spans) -> dict[str, int]:
    """Number of spans per name."""
    counts: dict[str, int] = {}
    for name, *_ in spans:
        counts[name] = counts.get(name, 0) + 1
    return counts
