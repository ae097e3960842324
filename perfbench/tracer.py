"""Spans around qcopynet's public functions, installed from outside the package.

``Tracer`` replaces every public function of the traced modules, wherever a
``qcopynet`` module holds a reference to it (``from .x import y`` copies the
binding into the importing module), and ``PureState.__post_init__``.  Each
wrapper records a span: calls, self time (the span minus its child spans)
and calls that raised.  Leaving the ``with`` block restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

PACKAGE = "qcopynet"
MODULES = ("gates", "linalg", "copier", "separability", "report", "verify", "cli")
PURE_STATE = "gates.PureState"

# Descendant calls counted below these spans, for per-solve and per-verdict ratios.
WATCHED = ("copier.solve_preparation_angles", "separability.ppt_verdict")
# Spans whose string results are measured, for the bytes serialized.
SIZED = ("report.render_csv", "report.render_json")


def public_functions() -> dict:
    """Span name -> original function, for each traced module's public functions."""
    found = {}
    for short in MODULES:
        module = importlib.import_module(f"{PACKAGE}.{short}")
        names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
        for name in names:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[f"{short}.{name}"] = obj
    return found


class Tracer:
    """Context manager that traces qcopynet calls made inside its block."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.errors: Counter = Counter()
        self.under: Counter = Counter()  # (watched ancestor, span) -> calls
        self.result_chars: Counter = Counter()
        self._stack: list = []           # [span name, child seconds]
        self._active: Counter = Counter()
        self._restore: list = []         # (owner, attribute, original)

    def _wrap(self, name: str, fn):
        calls, self_s, errors, under = self.calls, self.self_s, self.errors, self.under
        stack, active, result_chars = self._stack, self._active, self.result_chars
        watched, sized = name in WATCHED, name in SIZED

        @functools.wraps(fn)
        def span(*args, **kwargs):
            calls[name] += 1
            for ancestor in WATCHED:
                if active[ancestor]:
                    under[ancestor, name] += 1
            if watched:
                active[name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if sized:
                    result_chars[name] += len(result)
                return result
            except BaseException:
                errors[name] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if watched:
                    active[name] -= 1

        return span

    def __enter__(self) -> "Tracer":
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in public_functions().items()}
        try:
            for modname, module in list(sys.modules.items()):
                if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                    continue
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrappers[id(value)])
            pure_state = importlib.import_module(f"{PACKAGE}.gates").PureState
            original = pure_state.__dict__["__post_init__"]
            self._restore.append((pure_state, "__post_init__", original))
            pure_state.__post_init__ = self._wrap(PURE_STATE, original)
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._uninstall()

    def _uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
