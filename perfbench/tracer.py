"""Spans around lemfact's public functions, installed from outside.

``Tracer.install`` wraps every public function of the layer modules, and a
few named methods, then rebinds each wrapped name in every lemfact module
that imported it (``solver.power_residue_char``, ``cli.c4_criterion``, ...),
so calls across and within modules all pass through a wrapper.  Each
wrapper counts calls and keeps self time: the span's duration minus the
time of the wrapped spans it encloses.  Generator functions get one span
per resumption and count the items they yield.  ``uninstall`` restores
every rebound name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("arith", "abelian", "cocycle", "solver", "criteria", "oracle", "cli")

# Methods wrapped besides the module-level functions; span names group the
# four AbGroup tuple operations into one.
METHODS = (
    ("abelian", "AbGroup", "add", "abelian.group_ops"),
    ("abelian", "AbGroup", "sub", "abelian.group_ops"),
    ("abelian", "AbGroup", "smul", "abelian.group_ops"),
    ("abelian", "AbGroup", "neg", "abelian.group_ops"),
    ("cocycle", "CentralExtension", "pairing", "cocycle.pairing"),
    ("cocycle", "CentralExtension", "y_set", "cocycle.y_set"),
    ("cocycle", "CentralExtension", "power_class", "cocycle.power_class"),
    ("solver", "RamAssignment", "__init__", "solver.RamAssignment"),
    ("solver", "BaseFieldData", "validate", "solver.BaseFieldData.validate"),
)

# Per-call result counters: span name -> what to add for one result.
RESULT_COUNTERS = {
    "oracle.reduced_forms": len,
    "solver.has_unramified_lift": lambda res: 1 if res[0] else 0,
}


class _Stat:
    __slots__ = ("calls", "self_s", "items")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.items = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.caches: dict[str, object] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- wrappers -------------------------------------------------------

    def _end(self, st: _Stat, t0: float):
        dur = perf_counter() - t0
        st.self_s += dur - self._stack.pop()
        if self._stack:
            self._stack[-1] += dur

    def _wrap(self, name: str, fn):
        st = self.stats.setdefault(name, _Stat())
        stack, end = self._stack, self._end
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                st.calls += 1
                it = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end(st, t0)
                    st.items += 1
                    yield item

            return gen_wrapper

        count = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                end(st, t0)
            if count is not None:
                st.items += count(res)
            return res

        return wrapper

    def _rebind(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "lemfact" and not modname.startswith("lemfact."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def install(self):
        mods = {layer: importlib.import_module(f"lemfact.{layer}") for layer in LAYERS}
        for layer, mod in mods.items():
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                    continue
                if not (inspect.isfunction(val) or hasattr(val, "cache_info")):
                    continue
                name = f"{layer}.{attr}"
                if hasattr(val, "cache_info"):
                    self.caches[name] = val
                self._rebind(val, self._wrap(name, val))
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(mods[layer], cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(name, original))

    def uninstall(self):
        for obj, attr, val in reversed(self._patches):
            setattr(obj, attr, val)
        self._patches.clear()

    # --- readout --------------------------------------------------------

    def cache_counts(self) -> dict[str, list[int]]:
        return {name: list(fn.cache_info()[:2]) for name, fn in self.caches.items()}

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, st in self.stats.items():
            out[name.split(".", 1)[0]] += st.self_s
        return out

    def snapshot(self) -> dict:
        return {
            "spans": {
                name: [st.calls, st.self_s, st.items] for name, st in self.stats.items()
            },
            "caches": self.cache_counts(),
            "layers": self.layer_self(),
        }
