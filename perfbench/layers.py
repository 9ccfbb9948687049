"""Per-layer tracing for the traced benchmark run.

Every public callable of the seven modules is wrapped from outside the
program: module-level functions, and the methods (special methods included)
and properties that classes define in the module's own source.  Each wrapper
records a span in its layer, named after its module, so a layer's self time
is its span time minus the time its child spans cover.  Spans are aggregated as they close rather than
kept one by one, because the stream workload opens millions of them.

A wrapper replaces every reference to the original object in the package's
namespaces, so calls through a name imported into another module, and
recursive calls through a module global, are traced too.  Installing and
removing the wrappers round by round keeps untraced rounds free of them.

Names are resolved defensively: a counter whose function has moved or gone is
reported in ``absent`` and reads 0, so the benchmark keeps running while the
package is reorganised.
"""

from __future__ import annotations

import inspect
from collections import Counter
from collections.abc import Iterator
from functools import wraps
from time import perf_counter_ns

MODULES = ("curves", "riemann_roch", "boxes", "maximals", "gapsets", "codes", "cli")

# The permutation-union count is box algebra (layer L1 in ROADMAP.md), whichever
# module defines it; its recursion goes through the module global, so every
# recursive call is counted.
LAYER_OF_NAME = {"union_count": "boxes"}

# The oracle predicates of riemann_roch, counted for predicate_calls and useful_ratio.
PREDICATES = (
    "is_pure_gap",
    "is_absolute_maximal",
    "is_relative_maximal",
    "in_generalized_semigroup",
    "is_discrepancy",
)
# Every ell evaluation, through ell() or a predicate, goes through this
# private formula; it is counted, not spanned, to keep the overhead low.
ORACLE = ("riemann_roch", "_per_residue")

PER_LAYER = ("self_s", "calls", "errors")
WORK_METRICS = (
    "riemann_roch.predicate_calls",
    "riemann_roch.ell_calls",
    "riemann_roch.useful_ratio",
    "boxes.union_count_calls",
    "gapsets.tuples_streamed",
    "gapsets.level_boxes",
    "maximals.elements",
    "codes.rows",
    "cli.bytes_out",
)


class Recorder:
    """Aggregated spans and counters of the traced jobs of one run."""

    def __init__(self):
        self.on = False
        self.stack: list[list] = []  # [layer, start_ns, child_ns]
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.fn_calls: Counter = Counter()
        self.work: Counter = Counter()

    def enter(self, layer: str) -> list:
        frame = [layer, perf_counter_ns(), 0]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list, failed: bool = False) -> None:
        end = perf_counter_ns()
        stack = self.stack
        if failed and (len(stack) < 2 or stack[-2][0] != frame[0]):
            self.errors[frame[0]] += 1  # the exception leaves the layer here
        stack.pop()
        dur = end - frame[1]
        self.self_ns[frame[0]] += dur - frame[2]
        if stack:
            stack[-1][2] += dur


class _TracedIter:
    """Times each step of an iterator a traced call returned, in that call's layer."""

    __slots__ = ("_it", "_layer", "_rec", "_key")

    def __init__(self, it, layer, rec, key):
        self._it, self._layer, self._rec, self._key = it, layer, rec, key

    def __iter__(self):
        return self

    def __next__(self):
        rec = self._rec
        if not rec.on:
            return next(self._it)
        frame = rec.enter(self._layer)
        try:
            item = next(self._it)
        except StopIteration:
            rec.leave(frame)
            raise
        except BaseException:
            rec.leave(frame, failed=True)
            raise
        rec.leave(frame)
        if self._key:
            rec.work[self._key] += 1
        return item


def _span(fn, layer: str, qualname: str, rec: Recorder, on_result):
    @wraps(fn)
    def traced(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        rec.calls[layer] += 1
        rec.fn_calls[qualname] += 1
        frame = rec.enter(layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.leave(frame, failed=True)
            raise
        rec.leave(frame)
        if on_result is not None:
            on_result(result)
        if isinstance(result, Iterator) and not isinstance(result, _TracedIter):
            key = "gapsets.tuples_streamed" if qualname == "gapsets.pure_gaps" else None
            result = _TracedIter(result, layer, rec, key)
        return result

    return traced


def _counted(fn, key: str, rec: Recorder):
    @wraps(fn)
    def counted(*args, **kwargs):
        if rec.on:
            rec.work[key] += 1
        return fn(*args, **kwargs)

    return counted


def _own_source(obj, module) -> bool:
    code = getattr(obj, "__code__", None)
    return code is not None and code.co_filename == module.__file__


class Tracer:
    """Installs and removes the wrappers over the package's modules."""

    def __init__(self, package, modules: dict):
        self.rec = Recorder()
        self.modules = modules
        self.namespaces = [package] + [modules[name] for name in MODULES]
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._plan()

    # -- which objects get wrapped -------------------------------------------------

    def _result_hook(self, module_name: str, name: str):
        rec = self.rec
        if module_name == "riemann_roch" and name in PREDICATES:
            def hook(result):
                rec.work["riemann_roch.useful"] += bool(result)
            return hook
        if module_name == "maximals":
            def hook(result):
                if isinstance(result, (list, tuple)):
                    rec.work["maximals.elements"] += len(result)
            return hook
        if module_name == "codes" and name == "generate_tables":
            def hook(result):
                rec.work["codes.rows"] += len(result)
            return hook
        return None

    def _plan(self) -> None:
        rec = self.rec
        plan = []  # (owner, attribute, original, wrapped)
        for module_name in MODULES:
            module = self.modules[module_name]
            for name, obj in sorted(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    layer = LAYER_OF_NAME.get(name, module_name)
                    qualname = f"{module_name}.{name}"
                    hook = self._result_hook(module_name, name)
                    plan.append((None, name, obj, _span(obj, layer, qualname, rec, hook)))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    plan.extend(self._plan_class(module_name, module, obj))
        oracle_module, oracle_name = ORACLE
        oracle = getattr(self.modules[oracle_module], oracle_name, None)
        if inspect.isfunction(oracle):
            plan.append((None, oracle_name, oracle, _counted(oracle, "riemann_roch.ell_calls", rec)))
        else:
            self.absent.append(f"{oracle_module}.{oracle_name}")
        self._union_count = next(
            (f"{m}.union_count" for m in MODULES
             if getattr(getattr(self.modules[m], "union_count", None), "__module__", None)
             == self.modules[m].__name__),
            None,
        )
        expected = [("riemann_roch", p) for p in PREDICATES] + [
            ("gapsets", "b_k"), ("gapsets", "pure_gaps"),
            ("codes", "generate_tables"),
        ]
        for module_name, name in expected:
            if not inspect.isfunction(getattr(self.modules[module_name], name, None)):
                self.absent.append(f"{module_name}.{name}")
        if self._union_count is None:
            self.absent.append("union_count")
        self._plan_items = plan

    def _plan_class(self, module_name, module, cls):
        rec = self.rec
        out = []
        for name, member in vars(cls).items():
            qualname = f"{module_name}.{cls.__name__}.{name}"
            if isinstance(member, property) and _own_source(member.fget, module):
                fget = _span(member.fget, module_name, qualname, rec, None)
                out.append((cls, name, member, property(fget, member.fset, member.fdel, member.__doc__)))
            elif isinstance(member, classmethod) and _own_source(member.__func__, module):
                out.append((cls, name, member, classmethod(_span(member.__func__, module_name, qualname, rec, None))))
            elif inspect.isfunction(member) and _own_source(member, module):
                out.append((cls, name, member, _span(member, module_name, qualname, rec, None)))
        return out

    # -- installing and removing -----------------------------------------------

    def install(self) -> None:
        for owner, name, original, wrapped in self._plan_items:
            if owner is not None:
                self._patches.append((owner, name, original, wrapped))
                setattr(owner, name, wrapped)
                continue
            for ns in self.namespaces:
                if vars(ns).get(name) is original:
                    self._patches.append((ns, name, original, wrapped))
                    setattr(ns, name, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original, _ = self._patches.pop()
            setattr(owner, name, original)

    # -- summary ---------------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, float]:
        """Every per-layer metric, per traced round."""
        rec = self.rec
        per = max(rounds, 1)
        out: dict[str, float] = {}
        for layer in MODULES:
            out[f"{layer}.self_s"] = rec.self_ns[layer] / 1e9 / per
            out[f"{layer}.calls"] = rec.calls[layer] / per
            out[f"{layer}.errors"] = rec.errors[layer] / per
        predicate_calls = sum(rec.fn_calls[f"riemann_roch.{p}"] for p in PREDICATES)
        out["riemann_roch.predicate_calls"] = predicate_calls / per
        out["riemann_roch.ell_calls"] = rec.work["riemann_roch.ell_calls"] / per
        out["riemann_roch.useful_ratio"] = (
            rec.work["riemann_roch.useful"] / predicate_calls if predicate_calls else 0.0
        )
        out["boxes.union_count_calls"] = (
            rec.fn_calls[self._union_count] / per if self._union_count else 0.0
        )
        out["gapsets.tuples_streamed"] = rec.work["gapsets.tuples_streamed"] / per
        out["gapsets.level_boxes"] = rec.fn_calls["gapsets.b_k"] / per
        out["maximals.elements"] = rec.work["maximals.elements"] / per
        out["codes.rows"] = rec.work["codes.rows"] / per
        out["cli.bytes_out"] = rec.work["cli.bytes_out"] / per
        out["bench.self_s"] = rec.self_ns["bench"] / 1e9 / per
        return out
