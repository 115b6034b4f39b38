"""Call tracing of refactorlab from outside the program.

``Tracer.install`` replaces every public function defined in a
``refactorlab`` module with a timing wrapper, in every ``refactorlab.*``
module that binds it (``from .graph import build_graph`` makes a second
binding in the importing module, and both are replaced).  Calls between
functions of one module go through the module globals, so they are
traced too.  Methods and private functions are left alone.

Each wrapper records, per function, the number of calls, the inclusive
time (outermost activation only, so recursion is not counted twice) and
the self time (inclusive time minus the time of traced callees).  Named
groups of functions (``groups_of`` maps a function key to the groups it
belongs to) accumulate the wall time during which at least one
member is active, which is what a per-layer metric such as
``dtree.predict.s`` needs when ``predict_batch`` calls ``predict_dtree``.

``refactorlab.cli`` reads and writes its JSON documents through the
``json`` module it binds; that binding is replaced by a proxy whose
``dumps`` and ``loads`` are traced as ``json.dumps`` and ``json.loads``.
A callback decides, per call, which extra groups the call's time goes to.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from dataclasses import dataclass, field
from typing import Any, Callable

PACKAGE = "refactorlab"


@dataclass
class FnStats:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    active: int = 0


@dataclass
class _Frame:
    key: str
    start: float
    child_s: float = 0.0
    groups: tuple[str, ...] = ()


@dataclass
class Tracer:
    """Per-function and per-group timing of traced calls."""

    groups_of: Callable[[str], tuple[str, ...]]
    fns: dict[str, FnStats] = field(default_factory=dict)
    group_s: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    _stack: list[_Frame] = field(default_factory=list)
    _group_depth: dict[str, int] = field(default_factory=dict)
    _group_start: dict[str, float] = field(default_factory=dict)
    _restore: list[tuple[types.ModuleType, str, Any]] = field(default_factory=list)

    # -- recording ------------------------------------------------------------

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("tracer reset inside a traced call")
        self.fns.clear()
        self.group_s.clear()
        self.counts.clear()

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def _enter(self, key: str, groups: tuple[str, ...]) -> _Frame:
        now = time.perf_counter()
        stats = self.fns.setdefault(key, FnStats())
        stats.calls += 1
        stats.active += 1
        for g in groups:
            depth = self._group_depth.get(g, 0)
            if depth == 0:
                self._group_start[g] = now
            self._group_depth[g] = depth + 1
        frame = _Frame(key, now, groups=groups)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, extra: tuple[str, ...]) -> None:
        now = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("traced calls exited out of order")
        elapsed = now - frame.start
        stats = self.fns[frame.key]
        stats.active -= 1
        stats.self_s += elapsed - frame.child_s
        if stats.active == 0:
            stats.incl_s += elapsed
        if self._stack:
            self._stack[-1].child_s += elapsed
        for g in frame.groups:
            depth = self._group_depth[g] - 1
            self._group_depth[g] = depth
            if depth == 0:
                self.group_s[g] = self.group_s.get(g, 0.0) + now - self._group_start[g]
        for g in extra:
            if g not in frame.groups and self._group_depth.get(g, 0) == 0:
                self.group_s[g] = self.group_s.get(g, 0.0) + elapsed

    def wrap(
        self,
        key: str,
        fn: Callable,
        on_call: Callable[..., tuple[str, ...]] | None = None,
    ) -> Callable:
        """Traced version of ``fn``.

        ``on_call(args, kwargs, result)`` runs after a call that returned;
        it may record counts and returns extra groups charged with the
        whole call.
        """

        groups = self.groups_of(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(key, groups)
            extra: tuple[str, ...] = ()
            try:
                result = fn(*args, **kwargs)
                if on_call is not None:
                    extra = on_call(args, kwargs, result)
            finally:
                self._exit(frame, extra)
            return result

        return traced

    # -- installation -----------------------------------------------------------

    def install(self, hooks: dict[str, Callable[..., tuple[str, ...]]]) -> None:
        """Wrap every public refactorlab function at every binding.

        ``hooks`` maps a function key (``module.name``) to an ``on_call``
        callback.
        """
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        wrapped: dict[int, Callable] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType) or attr.startswith("_"):
                    continue
                home = getattr(value, "__module__", "") or ""
                if not (home == PACKAGE or home.startswith(PACKAGE + ".")):
                    continue
                if value.__name__.startswith("_"):
                    continue
                if id(value) not in wrapped:
                    key = f"{home}.{value.__name__}"
                    wrapped[id(value)] = self.wrap(key, value, hooks.get(key))
                self._restore.append((module, attr, value))
                setattr(module, attr, wrapped[id(value)])
        cli = sys.modules.get(f"{PACKAGE}.cli")
        if cli is not None and getattr(cli, "json", None) is json:
            self._restore.append((cli, "json", json))
            cli.json = _JsonProxy(self, hooks)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()


class _JsonProxy(types.ModuleType):
    """Stand-in for the ``json`` module with traced dumps and loads."""

    def __init__(self, tracer: Tracer, hooks: dict[str, Callable]) -> None:
        super().__init__("json")
        self.dumps = tracer.wrap("json.dumps", json.dumps, hooks.get("json.dumps"))
        self.loads = tracer.wrap("json.loads", json.loads, hooks.get("json.loads"))

    def __getattr__(self, name: str) -> Any:
        return getattr(json, name)
