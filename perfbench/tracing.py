"""Spans around calls into nearfactor's public functions, recorded from outside.

`Tracer.install` replaces each public function of the library modules, in
every module namespace that refers to it, with a wrapper that records a
span: name, start, end, parent span and pass id.  Calls the library makes to
itself are therefore traced as well (for example `classify_pair` inside
`count_perfect_product_pairs`), without any change under `src/`.

Spans stay in memory, in flat arrays, until `fold` turns them into a
per-name table of calls, inclusive time and self time (duration minus the
time covered by child spans) and clears them.  The benchmark folds once per
traced pass, which bounds memory: a traced `oracle` pass holds about 300k
spans.
"""

from __future__ import annotations

import contextlib
import sys
from array import array
from time import perf_counter

# Public functions traced, by module.  `make_edge` is left out: it runs once
# per edge inside every Factor constructor and would dominate the overhead.
TRACED = {
    "numtheory": ("gcd", "totient", "mod_inverse", "half_mod", "crt_combine"),
    "factors": (
        "build_modular_factor",
        "build_modular_factor_even",
        "build_modular_factorization",
        "factor_index_of_edge",
        "factorization_problems",
        "validate_factor",
    ),
    "pairing": (
        "classify_pair",
        "count_perfect_pairs",
        "union_walk",
        "nth_union_edge",
        "is_perfect_by_gcd",
    ),
    "product": (
        "build_product_factor",
        "flatten_product_factor",
        "is_perfect_product_pair",
        "predicted_perfect_product_pairs",
        "count_perfect_product_pairs",
        "product_bound",
    ),
    "equivalence": (
        "build_equivalence_report",
        "crt_vertex_map",
        "map_factor_index",
        "verify_factor_equality",
    ),
    "oracle": (
        "exact_c",
        "oracle_summary",
        "independent_hamiltonicity_check",
        "oracle_agrees_with_classification",
    ),
}

# Methods traced: (module, class, attribute).
TRACED_METHODS = (
    ("factors", "Factorization", "from_dict"),
    ("factors", "Factor", "from_dict"),
    ("product", "ProductFactor", "flattened"),
)

# A call made from this module's namespace is recorded under another name,
# so that the oracle's own counting is told apart from family counting.
RENAMED = {("oracle", "count_perfect_pairs"): "oracle.count"}


class NullTracer:
    """Stands in for Tracer in untraced passes: spans cost one no-op `with`."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, key: str, amount: int = 1) -> None:
        pass


class Tracer:
    """Records spans and counters; see the module docstring."""

    def __init__(self) -> None:
        self.pass_id = 0
        self._ids: dict[str, int] = {}
        self._names: list[str] = []
        self._clear()
        self._patches: list[tuple[object, str, object]] = []

    def _clear(self) -> None:
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    # ------------------------------------------------------------ recording

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        i = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.begin(self._id(name))
        try:
            yield
        finally:
            self.finish(i)

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, on_result=None):
        name_id = self._id(name)
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            i = begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(i)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------- patching

    def install(self, package, on_result: dict | None = None) -> None:
        """Wrap every traced function in every nearfactor module namespace."""
        on_result = on_result or {}
        originals = {}
        for module, names in TRACED.items():
            mod = sys.modules[f"{package.__name__}.{module}"]
            for attr in names:
                originals[id(getattr(mod, attr))] = (module, attr, getattr(mod, attr))
        namespaces = [package] + [
            m for key, m in sys.modules.items() if key.startswith(package.__name__ + ".")
        ]
        for ns in namespaces:
            ns_name = ns.__name__.rpartition(".")[2]
            for attr, value in list(vars(ns).items()):
                if id(value) not in originals or originals[id(value)][2] is not value:
                    continue
                module, fname, fn = originals[id(value)]
                name = RENAMED.get((ns_name, fname), f"{module}.{fname}")
                wrapper = self.wrap(name, fn, on_result.get(name))
                self._patches.append((ns, attr, value))
                setattr(ns, attr, wrapper)
        for module, cls_name, attr in TRACED_METHODS:
            cls = getattr(sys.modules[f"{package.__name__}.{module}"], cls_name)
            raw = cls.__dict__[attr]
            name = f"{module}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                wrapper = classmethod(self.wrap(name, raw.__func__, on_result.get(name)))
            else:
                wrapper = self.wrap(name, raw, on_result.get(name))
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -------------------------------------------------------------- folding

    def fold(self) -> tuple[dict[str, dict[str, float]], dict[str, int]]:
        """Per span name: calls, inclusive and self seconds; then clear.

        Returns the table and the counters recorded since the last fold.
        """
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans still open at fold")
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        table: dict[str, dict[str, float]] = {}
        for i in range(n):
            row = table.setdefault(
                self._names[self.name_of[i]], {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
            )
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["incl_s"] += dur
            row["self_s"] += dur - child[i]
        counters = self.counters
        self._clear()
        self.pass_id += 1
        return table, counters
