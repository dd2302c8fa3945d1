"""Spans around calls into catbell's layers, recorded from outside `src/`.

`Tracer.install` wraps every public function and public method of the layer
modules and rebinds each wrapper in every `catbell.*` namespace that holds
the original, because `from .hilbert import apply` gives the importing
module its own binding.  `uninstall` restores the originals.  Spans are kept
in memory as (op, name, start, end, parent, error) and reduced to per-name
self times by `summarize`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "encoding", "gates", "bosonic", "hilbert", "noise", "bell")
OP = "op"  # root span the benchmark opens around each op
# span around the tracer's own bookkeeping inside an op (the u_swap key), so
# that its time counts in no layer and in no caller's self time
BOOKKEEPING = "trace.bookkeeping"


def _public_callables(module):
    """(span name, owner, attribute, raw attribute) of the module's public
    functions and of the public methods of classes it defines."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", module, name, obj
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if attr.startswith("_"):
                    continue
                func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if inspect.isfunction(func):
                    yield f"{layer}.{name}.{attr}", obj, attr, raw


def _swap_key(fn):
    """Build-cache key of a u_swap call: (mode, cutoff, amplitude, variants)."""
    signature = inspect.signature(fn)

    def key(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        params = a["params"]
        mode = a["which_mode"]
        return (mode, params.mode(mode).cutoff, params.amplitude(mode),
                a["ve_variant"], a["ev_variant"], a["epsilon"])
    return key


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.op = -1
        self.swap_keys: set = set()
        self.swap_repeats = 0
        self.jumps = 0
        self.paused = False  # while set, wrapped calls open no span
        self._stack: list[int] = []
        self._patches: list = []

    # ------------------------------------------------------------ spans ---

    def open(self, name: str = OP) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.op, name, perf_counter(), None, parent, False])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, error: bool = False) -> None:
        span = self.spans[idx]
        span[3] = perf_counter()
        span[5] = error
        self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self
        swap_key = _swap_key(fn) if name == "gates.u_swap" else None
        count_jumps = name == "noise.sample_trajectory"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, error=True)
                raise
            tracer.close(idx)
            if swap_key is not None:
                # the key reads EncodingParams methods, which are wrapped too
                idx = tracer.open(BOOKKEEPING)
                tracer.paused = True
                try:
                    k = swap_key(args, kwargs)
                finally:
                    tracer.paused = False
                    tracer.close(idx)
                tracer.swap_repeats += k in tracer.swap_keys
                tracer.swap_keys.add(k)
            if count_jumps:
                tracer.jumps += len(result.jumps)
            return result
        return traced

    # ---------------------------------------------------------- patching ---

    def install(self) -> None:
        wrappers = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"catbell.{layer}")
            for name, owner, attr, raw in _public_callables(module):
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(raw.__func__, name))
                else:
                    new = self._wrap(raw, name)
                    wrappers[id(raw)] = new
                if owner is not module:
                    self._patches.append((owner, attr, raw))
                    setattr(owner, attr, new)
        for modname, module in list(sys.modules.items()):
            if modname != "catbell" and not modname.startswith("catbell."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
                elif isinstance(value, dict):  # dispatch tables such as cli.RUNNERS
                    for k, v in list(value.items()):
                        if id(v) in wrappers:
                            self._patches.append((value, k, v))
                            value[k] = wrappers[id(v)]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()


def summarize(spans) -> dict:
    """Per span name: calls, self seconds and errors; per layer: self
    seconds and errors.  A span's self time is its duration minus the
    durations of its direct children."""
    child_time = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    names: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "errors": 0})
    layers: dict = {layer: {"self_s": 0.0, "errors": 0} for layer in LAYERS}
    for other in (OP, BOOKKEEPING.split(".", 1)[0]):
        layers[other] = {"self_s": 0.0, "errors": 0}
    for idx, (_, name, start, end, _, error) in enumerate(spans):
        own = end - start - child_time[idx]
        rec = names[name]
        rec["calls"] += 1
        rec["self_s"] += own
        rec["errors"] += error
        layer = layers[name.split(".", 1)[0]]
        layer["self_s"] += own
        layer["errors"] += error
    return {"names": dict(names), "layers": layers}
