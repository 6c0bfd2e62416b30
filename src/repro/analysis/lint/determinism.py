"""Determinism lint rules (DET1xx).

The reproduction's contracts — bit-for-bit fuzz reproducibility, the
combination search's deterministic first witness, byte-identical checkpoints
and exports — all break the same way: code reads a global RNG, a wall
clock, interpreter-specific ``id()`` values, or hash order.  These rules
flag the hazard classes statically; the PYTHONHASHSEED subprocess test in
``tests/test_testkit_fuzz.py`` is the dynamic backstop.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.analysis.lint.core import (
    FileContext,
    Finding,
    Rule,
    Severity,
    register_rule,
)

__all__ = ["set_valued", "module_random_call"]

#: ``random`` module functions that consume the hidden global RNG stream.
GLOBAL_RNG_FUNCS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "lognormvariate", "normalvariate",
        "paretovariate", "randbytes", "randint", "random", "randrange",
        "sample", "seed", "shuffle", "triangular", "uniform",
        "vonmisesvariate", "weibullvariate",
    }
)

#: Wall-clock reads: (module-ish name, attribute).
CLOCK_CALLS = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "localtime"),
        ("time", "gmtime"),
        ("time", "ctime"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }
)

#: Container/iteration wrappers that freeze an ordering.
ORDERING_SINKS = frozenset({"list", "tuple", "enumerate"})

MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "deque", "defaultdict", "Counter", "OrderedDict"}
)


def _dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for pure Name/Attribute chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_random_call(node: ast.Call) -> Optional[str]:
    """Name of the global-RNG ``random.X(...)`` call, or None.

    ``random.Random(seed)`` is fine (an owned, seeded stream);
    ``random.Random()`` with no seed argument is not.
    """
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    if not isinstance(func.value, ast.Name) or func.value.id != "random":
        return None
    if func.attr in GLOBAL_RNG_FUNCS:
        return func.attr
    if func.attr in ("Random", "SystemRandom") and not (
        node.args or node.keywords
    ):
        return func.attr
    return None


def clock_call(node: ast.Call) -> Optional[str]:
    """Dotted name of a wall-clock read call, or None."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    base = func.value
    base_name = None
    if isinstance(base, ast.Name):
        base_name = base.id
    elif isinstance(base, ast.Attribute):
        base_name = base.attr  # e.g. datetime.datetime.now
    if base_name is None:
        return None
    if (base_name, func.attr) in CLOCK_CALLS:
        return f"{base_name}.{func.attr}"
    return None


def set_valued(node: ast.expr) -> bool:
    """Is the expression syntactically a set (or os.listdir result)?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        if name in ("set", "frozenset"):
            return True
        if name in ("os.listdir", "listdir"):
            return True
        if name in ("set.union", "set.intersection"):
            return True
        # method calls returning sets on an explicit set expression,
        # e.g. ``{1, 2}.union(other)``
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "union", "intersection", "difference", "symmetric_difference"
        ):
            return set_valued(node.func.value)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return set_valued(node.left) or set_valued(node.right)
    return False


@register_rule
class UnseededRandomRule(Rule):
    code = "DET101"
    name = "unseeded-random"
    severity = Severity.ERROR
    description = (
        "call into the `random` module's hidden global RNG (or an "
        "unseeded `random.Random()`); use an explicitly seeded "
        "`random.Random(seed)` stream instead"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                func = module_random_call(node)
                if func is not None:
                    yield self.finding(
                        ctx,
                        node,
                        f"random.{func}() uses the process-global RNG; "
                        "pass an explicit random.Random(seed) stream",
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    bad = sorted(
                        alias.name
                        for alias in node.names
                        if alias.name in GLOBAL_RNG_FUNCS
                    )
                    if bad:
                        yield self.finding(
                            ctx,
                            node,
                            "importing global-RNG functions "
                            f"({', '.join(bad)}) from random; use a "
                            "seeded random.Random(seed) stream",
                        )


@register_rule
class WallClockRule(Rule):
    code = "DET102"
    name = "wall-clock"
    severity = Severity.ERROR
    description = (
        "wall-clock read (`time.time`, `datetime.now`, ...) in library "
        "code; use logical/simulated time, or `perf_counter` for "
        "duration-only measurement"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = clock_call(node)
            if name is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() reads the wall clock; engine and testkit "
                    "code paths must be deterministic (perf_counter is "
                    "fine for durations)",
                )


@register_rule
class UnsortedSetIterationRule(Rule):
    code = "DET103"
    name = "unsorted-set-iteration"
    severity = Severity.ERROR
    description = (
        "iteration order of a set / frozenset / os.listdir result "
        "escapes into ordered output without a `sorted(...)` wrapper"
    )

    _MESSAGE = (
        "{what} freezes set/listing iteration order, which varies with "
        "PYTHONHASHSEED or the filesystem; wrap the source in sorted(...)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and set_valued(node.iter):
                yield self.finding(
                    ctx,
                    node.iter,
                    self._MESSAGE.format(what="for-loop over a set"),
                )
            elif isinstance(node, ast.Call):
                func_name = _dotted(node.func)
                if (
                    func_name in ORDERING_SINKS
                    and node.args
                    and set_valued(node.args[0])
                ):
                    yield self.finding(
                        ctx,
                        node,
                        self._MESSAGE.format(what=f"{func_name}(<set>)"),
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                    and node.args
                    and set_valued(node.args[0])
                ):
                    yield self.finding(
                        ctx,
                        node,
                        self._MESSAGE.format(what="str.join over a set"),
                    )
            elif isinstance(node, ast.ListComp):
                for gen in node.generators:
                    if set_valued(gen.iter):
                        yield self.finding(
                            ctx,
                            gen.iter,
                            self._MESSAGE.format(
                                what="list comprehension over a set"
                            ),
                        )


@register_rule
class IdAsKeyRule(Rule):
    code = "DET104"
    name = "id-as-key"
    severity = Severity.ERROR
    description = (
        "`id()` used as a mapping key or sort key; id values differ "
        "between runs — key on stable identity instead"
    )

    @staticmethod
    def _is_id_call(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Subscript) and self._is_id_call(
                node.slice
            ):
                yield self.finding(
                    ctx, node, "id(...) used as a subscript/mapping key"
                )
            elif isinstance(node, ast.Dict):
                for key in node.keys:
                    if key is not None and self._is_id_call(key):
                        yield self.finding(
                            ctx, key, "id(...) used as a dict literal key"
                        )
            elif isinstance(node, ast.DictComp) and self._is_id_call(
                node.key
            ):
                yield self.finding(
                    ctx, node.key, "id(...) used as a dict comprehension key"
                )
            elif isinstance(node, ast.Call):
                func_name = _dotted(node.func)
                sortish = func_name in ("sorted", "min", "max") or (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sort"
                )
                if sortish:
                    for kw in node.keywords:
                        if (
                            kw.arg == "key"
                            and isinstance(kw.value, ast.Name)
                            and kw.value.id == "id"
                        ):
                            yield self.finding(
                                ctx, kw.value, "id used as a sort key"
                            )


@register_rule
class DictFromSetRule(Rule):
    code = "DET105"
    name = "dict-from-set"
    severity = Severity.ERROR
    description = (
        "dict built from an unsorted set source; insertion order (and "
        "hence serialization order) then depends on hash order"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.DictComp):
                for gen in node.generators:
                    if set_valued(gen.iter):
                        yield self.finding(
                            ctx,
                            gen.iter,
                            "dict comprehension iterates a set; wrap the "
                            "source in sorted(...) for a stable key order",
                        )
            elif isinstance(node, ast.Call):
                func_name = _dotted(node.func)
                if (
                    func_name is not None
                    and func_name.endswith("fromkeys")
                    and node.args
                    and set_valued(node.args[0])
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "dict.fromkeys over a set; wrap the source in "
                        "sorted(...) for a stable key order",
                    )
