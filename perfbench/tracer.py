"""Per-module spans, recorded from outside the program.

``Tracer`` wraps every public function of the pqfs modules, the public
methods of their public classes and the arithmetic operators of
``TruncatedSeries``, in every module namespace that binds them, so a call
that crosses layers (``oracle.verify_fs`` into
``bounds.fs_bound_from_numbers``) becomes a child span.  A module's self
time is its span time minus the time of its child spans.  Spans are folded
into per-module totals as they close; none are kept.  Private helpers stay
unwrapped, so their time counts towards the public function that called
them.

Run as a script, this file is a traced stand-in for ``python -m pqfs``: it
runs ``pqfs.cli.main`` on its arguments under a tracer and writes the
per-module totals as the last line of stderr.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

from workloads import CHILD_MARK, MODULES, load_pqfs

_OPERATORS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__")


class Tracer:
    """Installs span wrappers on ``install`` and removes them on ``uninstall``."""

    def __init__(self, mods: dict):
        self.mods = mods
        self.calls = dict.fromkeys(MODULES, 0)
        self.errors = dict.fromkeys(MODULES, 0)
        self.self_s = dict.fromkeys(MODULES, 0.0)
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, layer: str, fn):
        stack, calls, errors, self_s = self._stack, self.calls, self.errors, self.self_s

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            entry = [layer, 0.0]
            stack.append(entry)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                # count an exception once, where it leaves the module
                if parent is None or parent[0] != layer:
                    errors[layer] += 1
                raise
            finally:
                dur = perf_counter() - start
                stack.pop()
                calls[layer] += 1
                self_s[layer] += dur - entry[1]
                if parent is not None:
                    parent[1] += dur

        return span

    def install(self) -> None:
        wrapped = {}  # original function -> wrapper
        for layer in MODULES:
            mod = self.mods[layer]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._span(layer, obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        # rebind in every namespace that imported the functions by name
        for mod in [sys.modules["pqfs"], *self.mods.values()]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, wrapped[obj])

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for name, raw in list(vars(cls).items()):
            if isinstance(raw, classmethod) and not name.startswith("_"):
                self._undo.append((cls, name, raw))
                setattr(cls, name, classmethod(self._span(layer, raw.__func__)))
            elif inspect.isfunction(raw) and (not name.startswith("_") or name in _OPERATORS):
                self._undo.append((cls, name, raw))
                setattr(cls, name, self._span(layer, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def totals(self) -> dict:
        return {m: {"calls": self.calls[m], "errors": self.errors[m], "self_s": self.self_s[m]}
                for m in MODULES}

    def merge(self, totals: dict) -> None:
        """Add per-module totals reported by a traced child process."""
        for m in MODULES:
            self.calls[m] += totals[m]["calls"]
            self.errors[m] += totals[m]["errors"]
            self.self_s[m] += totals[m]["self_s"]


def _traced_cli(argv: list[str]) -> int:
    tracer = Tracer(load_pqfs())
    tracer.install()
    try:
        code = tracer.mods["cli"].main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    print(CHILD_MARK + json.dumps(tracer.totals()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1:]))
