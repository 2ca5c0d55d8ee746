"""Per-layer span tracing of qcomb, installed from outside the package.

`Tracer.installed()` wraps qcomb's public functions, the `IntPoly`,
`TruncatedSeries` and `FpMatrix` methods and `PsiTable.for_n`, by
reassigning attributes on the qcomb module and class objects, and puts the
originals back on exit.  A name is reassigned in its defining module and in
every qcomb module that imported it: calls inside a module look up globals at
call time, so a wrapped `enumerate_words` also sees the call from
`inversion_distribution_oracle`.

Each span records name, start, end, parent and operation id, in memory; a
generator's span covers one resumption, so the time spent between its yields
in the consumer is not charged to it.  A recursive call of a wrapped
function (such as `partition_count`) records no span of its own.
"""

from __future__ import annotations

import functools
import inspect
import resource
import statistics
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

SPAN_CAPACITY = 1 << 20  # preallocated, so span storage adds nothing to the layers' RSS growth
LAYERS = ("polycore", "qanalogue", "inversions", "denumerant", "flagcells", "verification", "cli")
BENCH = -1  # layer index of the benchmark's own operation spans

# Classes whose methods are wrapped; None means every public method.
CLASSES: dict[str, dict[str, tuple[str, ...] | None]] = {
    "polycore": {"IntPoly": None, "TruncatedSeries": None},
    "denumerant": {"PsiTable": ("for_n",)},
    "flagcells": {"FpMatrix": None},
}
ARITHMETIC = {"__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__", "__matmul__"}


def _arg(args, kwargs, index: int, name: str, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _mul_ops(args, kwargs, result) -> int:
    a, b = args[0], args[1]
    return len(a.coeffs) * (len(b.coeffs) if hasattr(b, "coeffs") else 1)


def _subset_psi(args, kwargs, result) -> int:
    if _arg(args, kwargs, 2, "method", "fn-coefficients") == "subset-oracle":
        return 1 << args[0]
    return 0


# Counters computed from a successful call's arguments or result.
HOOKS: dict[str, tuple[str, Callable]] = {
    "polycore:IntPoly.__mul__": ("polycore.coeff_ops", _mul_ops),
    "polycore:IntPoly.__rmul__": ("polycore.coeff_ops", _mul_ops),
    "polycore:TruncatedSeries.mul_poly": (
        "polycore.coeff_ops", lambda a, k, r: (a[0].order + 1) * len(a[1].coeffs)),
    "polycore:TruncatedSeries.divide_by_one_minus_power": (
        "polycore.coeff_ops", lambda a, k, r: max(0, a[0].order + 1 - a[1])),
    "inversions:inversion_distribution_oracle": (
        "inversions.words_enumerated", lambda a, k, r: a[0].multinomial()),
    "denumerant:psi": ("denumerant.subset_terms", _subset_psi),
    "denumerant:mahonian_via_denumerant": ("denumerant.subset_terms", lambda a, k, r: 1 << a[0].n),
    "denumerant:signed_subset_identity_check": ("denumerant.subset_terms", lambda a, k, r: 1 << a[0]),
    "flagcells:enumerate_flags": ("flagcells.flags_enumerated", lambda a, k, r: len(r)),
    "verification:run_suite": (
        "verification.checks_failed", lambda a, k, r: sum(not res.passed for res in r)),
}

# Inclusive time of the outermost spans whose label is, or starts with, a member + ".".
TIME_GROUPS: dict[str, tuple[str, ...]] = {
    "polycore.mul_s": ("polycore:IntPoly.__mul__", "polycore:IntPoly.__rmul__"),
    "polycore.add_s": ("polycore:IntPoly.__add__", "polycore:IntPoly.__sub__"),
    "polycore.series_s": ("polycore:series_reciprocal_product", "polycore:TruncatedSeries"),
    "qanalogue.q_binomial_s": ("qanalogue:q_binomial",),
    "qanalogue.q_multinomial_s": ("qanalogue:q_multinomial",),
    "qanalogue.oracle_s": ("qanalogue:multiset_sum_poly", "qanalogue:partition_count"),
    "inversions.oracle_s": ("inversions:inversion_distribution_oracle",),
    "inversions.table_s": (
        "inversions:mahonian_table", "inversions:full_mahonian", "inversions:refinement_recurrence"),
    "inversions.bounds_s": ("inversions:inv_bounds",),
    "denumerant.psi_table_s": ("denumerant:PsiTable.for_n",),
    "denumerant.psi_s": ("denumerant:psi",),
    "denumerant.via_denumerant_s": ("denumerant:mahonian_via_denumerant",),
    "denumerant.denumerant_s": ("denumerant:denumerant",),
    "flagcells.cell_form_s": ("flagcells:cell_form",),
    "flagcells.enumerate_flags_s": ("flagcells:enumerate_flags",),
    "flagcells.cell_sum_poly_s": ("flagcells:cell_sum_poly",),
    "flagcells.rank_s": ("flagcells:FpMatrix.rank",),
    "flagcells.s_reduce_s": ("flagcells:s_reduce",),
    "cli.render_s": ("cli:render",),
}

# Number of calls (or, for generators, of items yielded) under these labels.
CALL_COUNTS: dict[str, tuple[str, ...]] = {
    "polycore.mul_calls": ("polycore:IntPoly.__mul__", "polycore:IntPoly.__rmul__"),
    "qanalogue.q_binomial_calls": ("qanalogue:q_binomial",),
    "inversions.inversion_count_calls": ("inversions:inversion_count",),
    "flagcells.cell_form_calls": ("flagcells:cell_form",),
    "flagcells.rank_calls": ("flagcells:FpMatrix.rank",),
}
YIELD_COUNTS: dict[str, str] = {
    "flagcells.partitions_enumerated": "flagcells:enumerate_partitions",
    "flagcells.gl_enumerated": "flagcells:enumerate_general_linear",
}
HOOK_COUNTS = ("polycore.coeff_ops", "inversions.words_enumerated", "denumerant.subset_terms",
               "flagcells.flags_enumerated", "verification.checks_failed")


def self_times(start: Sequence[int], end: Sequence[int], parent: Sequence[int]) -> list[int]:
    """Each span's duration minus the time its direct child spans cover.

    Spans come from one thread and nest, so children never overlap.
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.label_layer: list[int] = []
        self._label_ids: dict[str, int] = {}
        self.count = 0
        self.start, self.end, self.parent, self.op, self.name = (
            array("q", bytes(8 * SPAN_CAPACITY)) for _ in range(5))
        self.stack: list[int] = []
        self.op_id = -1
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._depth = [0] * len(LAYERS)
        self._rss_at = [0] * len(LAYERS)
        self.rss_growth_kib = [0] * len(LAYERS)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _label_id(self, label: str, layer: int) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
            self.label_layer.append(layer)
        return self._label_ids[label]

    def enter(self, name: int, layer: int) -> int:
        if layer >= 0:
            if not self._depth[layer]:
                self._rss_at[layer] = _maxrss_kib()
            self._depth[layer] += 1
        idx = self.count
        if idx == len(self.start):
            for column in (self.start, self.end, self.parent, self.op, self.name):
                column.frombytes(bytes(8 * idx))
        self.count += 1
        self.parent[idx] = self.stack[-1] if self.stack else -1
        self.op[idx] = self.op_id
        self.name[idx] = name
        self.stack.append(idx)
        self.start[idx] = time.perf_counter_ns()
        return idx

    def leave(self, idx: int, layer: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()
        if layer >= 0:
            self._depth[layer] -= 1
            if not self._depth[layer]:
                self.rss_growth_kib[layer] += _maxrss_kib() - self._rss_at[layer]

    def begin_op(self, op_id: int, kind: str) -> int:
        self.op_id = op_id
        return self.enter(self._label_id(f"op:{kind}", BENCH), BENCH)

    def end_op(self, idx: int) -> None:
        self.leave(idx, BENCH)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn: Callable, label: str, layer: int) -> Callable:
        name = self._label_id(label, layer)
        enter, leave, calls, counts = self.enter, self.leave, self.calls, self.counts
        if inspect.isgeneratorfunction(fn):
            yields = label + ".yields"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[label] += 1
                gen = fn(*args, **kwargs)

                def steps() -> Iterator:
                    while True:
                        idx = enter(name, layer)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            leave(idx, layer)
                        counts[yields] += 1
                        yield item

                return steps()

            return gen_wrapper

        hook = HOOKS.get(label)
        active = [False]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            calls[label] += 1
            idx = enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(idx, layer)
                active[0] = False
            if hook is not None:
                counts[hook[0]] += hook[1](args, kwargs, result)
            return result

        return wrapper

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced callable; `uninstall` undoes it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "qcomb" or n.startswith("qcomb.")]
        for layer, layer_name in enumerate(LAYERS):
            module = sys.modules[f"qcomb.{layer_name}"]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if not (inspect.isfunction(value) or hasattr(value, "cache_info")):
                    continue
                wrapper = self._wrap(value, f"{layer_name}:{attr}", layer)
                for m in modules:
                    for name, bound in list(vars(m).items()):
                        if bound is value:
                            self._set(m, name, wrapper)
            for cls_name, only in CLASSES.get(layer_name, {}).items():
                cls = getattr(module, cls_name)
                for attr, raw in list(vars(cls).items()):
                    if only is not None and attr not in only:
                        continue
                    if attr.startswith("_") and attr not in ARITHMETIC:
                        continue
                    label = f"{layer_name}:{cls_name}.{attr}"
                    if isinstance(raw, classmethod):
                        self._set(cls, attr, classmethod(self._wrap(raw.__func__, label, layer)))
                    elif inspect.isfunction(raw):
                        self._set(cls, attr, self._wrap(raw, label, layer))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------

    def write_tsv(self, path) -> None:
        """All spans, one per line: label, layer, start, end, parent index, op id."""
        layer_names = LAYERS + ("bench",)
        with open(path, "w") as handle:
            handle.write("label\tlayer\tstart_ns\tend_ns\tparent\top\n")
            for i in range(self.count):
                n = self.name[i]
                handle.write(
                    f"{self.labels[n]}\t{layer_names[self.label_layer[n]]}\t{self.start[i]}\t"
                    f"{self.end[i]}\t{self.parent[i]}\t{self.op[i]}\n"
                )

    def outermost_seconds(self, groups: dict[str, tuple[str, ...]]) -> dict[str, list[float]]:
        """Per group, the duration of each span in it that has no ancestor in it.

        A label is in a group when it equals a member or starts with member + ".".
        """
        names = list(groups)
        masks = [
            sum(1 << g for g, name in enumerate(names)
                if any(label == m or label.startswith(m + ".") for m in groups[name]))
            for label in self.labels
        ]
        inside = [0] * self.count  # groups that the span's ancestors belong to
        out: dict[str, list[float]] = {name: [] for name in names}
        for i in range(self.count):
            p = self.parent[i]
            if p >= 0:
                inside[i] = inside[p] | masks[self.name[p]]
            new = masks[self.name[i]] & ~inside[i]
            if new:
                seconds = (self.end[i] - self.start[i]) / 1e9
                for g, name in enumerate(names):
                    if new >> g & 1:
                        out[name].append(seconds)
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self time, RSS growth, and the named counters and times."""
        out: dict[str, float] = {}
        n = self.count
        own = self_times(self.start[:n], self.end[:n], self.parent[:n])
        self_ns = [0] * len(LAYERS)
        for i, t in enumerate(own):
            layer = self.label_layer[self.name[i]]
            if layer >= 0:
                self_ns[layer] += t
        for layer, name in enumerate(LAYERS):
            out[f"{name}.calls"] = sum(
                c for lb, c in self.calls.items() if lb.split(":", 1)[0] == name
            )
            out[f"{name}.self_s"] = self_ns[layer] / 1e9
            out[f"{name}.rss_growth_mib"] = self.rss_growth_kib[layer] / 1024
        outermost = self.outermost_seconds({**TIME_GROUPS, "cli.run": ("cli:run",)})
        for metric in TIME_GROUPS:
            out[metric] = sum(outermost[metric])
        for metric, members in CALL_COUNTS.items():
            out[metric] = sum(self.calls[m] for m in members)
        for metric, label in YIELD_COUNTS.items():
            out[metric] = self.counts[label + ".yields"]
        for metric in HOOK_COUNTS:
            out[metric] = self.counts[metric]
        oracle_s = out["inversions.oracle_s"]
        words = out["inversions.words_enumerated"]
        out["inversions.words_per_s"] = words / oracle_s if oracle_s else 0.0
        runs = outermost["cli.run"]
        out["cli.run_ms"] = statistics.median(runs) * 1e3 if runs else 0.0
        return out


def cache_metrics() -> dict[str, float]:
    """Entries and hit ratio of every lru_cache in qanalogue and denumerant.

    The hit ratio's base is every lookup (hits plus misses), reported as
    `qanalogue.cache_lookups`.  Read it with no wrappers installed.
    """
    out: dict[str, float] = {}
    for layer in ("qanalogue", "denumerant"):
        module = sys.modules[f"qcomb.{layer}"]
        found: dict[int, object] = {}
        for value in vars(module).values():
            candidates = [value]
            if isinstance(value, type) and value.__module__ == module.__name__:
                candidates = [getattr(v, "__func__", v) for v in vars(value).values()]
            for c in candidates:
                if hasattr(c, "cache_info"):
                    found[id(c)] = c
        infos = [c.cache_info() for c in found.values()]
        out[f"{layer}.cache_entries"] = sum(i.currsize for i in infos)
        if layer == "qanalogue":
            lookups = sum(i.hits + i.misses for i in infos)
            out["qanalogue.cache_lookups"] = lookups
            out["qanalogue.cache_hit_ratio"] = sum(i.hits for i in infos) / lookups if lookups else 0.0
    return out
