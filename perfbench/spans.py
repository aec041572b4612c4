"""Layer spans recorded from outside the package.

The tracer replaces each target function at every ``kerdock`` module, and
every benchmark module, that binds it (``from kerdock.signal import fwht`` makes ``kerdock.decoder.fwht``
a second binding of the same object), and replaces target methods on their
classes. Calls are timed only while an operation span is open, so reference
checks run between operations are not charged to any layer. A layer's self
time is its span minus the child spans it encloses; a span nested in another
span of the same name adds self time but no extra inclusive time.

Spans are aggregated as they close, per name and per (parent, name) edge,
instead of being kept one by one: the robust decode opens millions of read
spans per operation.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# modules whose bindings are replaced: the package, and the benchmark's own calls into it
PACKAGES = ("kerdock", "perfbench")

# (span, defining module, function) -- wrapped at every module of PACKAGES binding it
FUNCTIONS = [
    ("signal.fwht", "kerdock.signal", "fwht"),
    ("codebook.exponents", "kerdock.codebook", "hankel_exponents_batch"),
    ("codebook.exponents", "kerdock.codebook", "exponents_at"),
    ("signal.estimate", "kerdock.signal", "estimate_dots"),
    ("signal.estimate", "kerdock.signal", "estimate_sq_norm"),
    ("rm1.km_list", "kerdock.rm1", "km_list"),
    ("rm1.bucket", "kerdock.rm1", "bucket_energies"),
    ("decoder", "kerdock.decoder", "list_decode_hankel"),
    ("pursuit", "kerdock.pursuit", "sparse_approx"),
]

# (span, defining module, class, method) -- also wrapped on every kerdock
# subclass that overrides the method
METHODS = [
    ("signal.read", "kerdock.signal", "SampleOracle", "query_many"),
    ("pursuit.residual_eval", "kerdock.pursuit", "Representation", "evaluate"),
]

Hook = Callable[["Tracer", tuple, dict, object, Optional[BaseException]], None]


class Tracer:
    """Span stack, per-span aggregates and counters for one traced pass."""

    def __init__(self, hooks: Optional[Dict[str, Hook]] = None):
        self.hooks = hooks or {}
        self.stack: List[list] = []  # frames: [name, child seconds, parent name]
        self.open: Counter = Counter()  # open frames per span name
        self.total: Dict[str, float] = defaultdict(float)  # inclusive seconds
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.edge_calls: Counter = Counter()  # (parent, child) -> calls
        self.edge_time: Dict[Tuple[Optional[str], str], float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        self.context: Dict[str, object] = {}  # facts about the open operation, for hooks
        self.missing: Dict[str, str] = {}  # span -> reason a target was not found
        self.bindings: List[str] = []  # "module.attr" or "module.Class.method" wrapped
        self._patches: List[Tuple[object, str, object]] = []

    # installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target; targets that no longer exist are recorded as missing."""
        for span, modname, attr in FUNCTIONS:
            module = _import(modname)
            original = getattr(module, attr, None) if module else None
            if not callable(original):
                self.missing.setdefault(span, f"{modname}.{attr} not found")
                continue
            wrapped = self._wrap(span, original)
            for name, mod in sorted(sys.modules.items()):
                if name.split(".")[0] in PACKAGES and mod is not None:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped, f"{name}.{key}")
        for span, modname, clsname, attr in METHODS:
            module = _import(modname)
            cls = getattr(module, clsname, None) if module else None
            if not inspect.isclass(cls) or not callable(getattr(cls, attr, None)):
                self.missing.setdefault(span, f"{modname}.{clsname}.{attr} not found")
                continue
            for owner in _with_subclasses(cls):
                if attr in vars(owner):
                    label = f"{owner.__module__}.{owner.__qualname__}.{attr}"
                    self._patch(owner, attr, self._wrap(span, vars(owner)[attr]), label)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.bindings.clear()

    def _patch(self, owner, attr: str, wrapped, label: str) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)
        self.bindings.append(label)

    # spans ------------------------------------------------------------

    def _wrap(self, span: str, fn):
        tracer = self
        hook = self.hooks.get(span)

        def traced(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            frame = tracer.enter(span)
            t0 = time.perf_counter()
            out = exc = None
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as e:
                exc = e
                raise
            finally:
                tracer.leave(frame, time.perf_counter() - t0)
                if hook is not None:
                    hook(tracer, args, kwargs, out, exc)

        traced.__wrapped__ = fn
        return traced

    def enter(self, span: str) -> list:
        parent = self.stack[-1][0] if self.stack else None
        frame = [span, 0.0, parent]
        self.stack.append(frame)
        self.open[span] += 1
        return frame

    def leave(self, frame: list, seconds: float) -> None:
        self.stack.pop()
        span, child_seconds, parent = frame
        self.open[span] -= 1
        self.calls[span] += 1
        self.edge_calls[(parent, span)] += 1
        self.edge_time[(parent, span)] += seconds
        self.self_time[span] += seconds - child_seconds
        if not self.open[span]:
            self.total[span] += seconds
        if self.stack:
            self.stack[-1][1] += seconds

    def inside(self, span: str) -> bool:
        return self.open[span] > 0

    def outermost(self, span: str) -> bool:
        """True in a hook when the span that just closed was not nested in another of its name."""
        return not self.open[span]

    def reset(self) -> None:
        """Clear aggregates between operations; installed wrappers stay."""
        self.stack.clear()
        self.open.clear()
        self.total.clear()
        self.self_time.clear()
        self.calls.clear()
        self.edge_calls.clear()
        self.edge_time.clear()
        self.counters.clear()

    def snapshot(self) -> Dict[str, object]:
        return {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "edges": {
                f"{p or '-'}>{c}": [n, self.edge_time[(p, c)]] for (p, c), n in self.edge_calls.items()
            },
        }


def _import(modname: str):
    try:
        return importlib.import_module(modname)
    except ImportError:
        return None


def _with_subclasses(root: type) -> List[type]:
    """root and every loaded subclass of it, at any depth."""
    out, todo = [], [root]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out
