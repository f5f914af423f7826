"""Layer spans and counters, recorded from outside the program.

`Tracer.install()` wraps laxkit's public functions at every module that
holds a reference to them (the defining module, so recursive calls are
seen, and every module that imported the name), and `uninstall()` puts
the originals back.  A function belongs to a layer; a call opens a span
only when no span of its layer is open, so recursion and nested helpers
of one layer are one span, while every call is counted.  Spans live in
flat arrays and are written out when the run ends; self times are
derived from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter

# (module, function, layer); the layer names the span and its metrics.
TARGETS = (
    ("laxkit.cli", "main", "cli"),
    ("laxkit.jsonio", "load_json", "jsonio.decode"),
    ("laxkit.jsonio", "file_digest", "jsonio.decode"),
    ("laxkit.jsonio", "decode_system", "jsonio.decode"),
    ("laxkit.jsonio", "decode_lifting", "jsonio.decode"),
    ("laxkit.jsonio", "decode_functor", "jsonio.decode"),
    ("laxkit.jsonio", "decode_certificate", "jsonio.decode"),
    ("laxkit.jsonio", "encode_rel", "jsonio.encode"),
    ("laxkit.jsonio", "encode_formula", "jsonio.encode"),
    ("laxkit.jsonio", "dump_json", "jsonio.encode"),
    ("laxkit.systems", "validate", "systems.validate"),
    ("laxkit.distance", "behavioural_distance", "distance.solve"),
    ("laxkit.distance", "check_certificate", "distance.cert"),
    ("laxkit.liftings", "lift_value", "liftings.lift"),
    ("laxkit.liftings", "grid_kantorovich_value", "liftings.grid"),
    ("laxkit.transport", "min_cost_transport", "transport.solve"),
    ("laxkit.axioms", "check_axioms", "axioms.check"),
    ("laxkit.core", "compose", "core.compose"),
    ("laxkit.moss", "synthesize", "logic.synth"),
    ("laxkit.moss", "synthesize_levels", "logic.synth"),
    ("laxkit.logic", "semantics", "logic.semantics"),
)
# Counted on every call, without a span.
COUNTED = (
    ("laxkit.core", "companion", "core.companion_calls"),
)


def _grid_tables(args) -> int:
    modalities, step, rel = args[0], args[1], args[2]
    levels = int(1 / step) + 1 + (0 if (1 / step).denominator == 1 else 1)
    return sum(levels ** (lam.arity * len(rel.source)) for lam in modalities)


def _on_return(layer, args, result, counts) -> None:
    """Counters read off a call's arguments and result."""
    if layer == "jsonio.encode" and isinstance(result, str):
        counts["jsonio.bytes_out"] += len(result.encode("utf-8"))
    elif layer == "distance.solve":
        counts["distance.iterations"] += result.iterations
        bits = max((v.denominator.bit_length() for row in result.matrix.values for v in row),
                   default=0)
        counts["distance.den_bits_max"] = max(counts["distance.den_bits_max"], bits)
    elif layer == "distance.cert":
        counts["distance.cert_pairs"] += len(result.forward) + len(result.backward or ())
    elif layer == "transport.solve":
        counts["transport.solves"] += 1
        counts["transport.cells"] += len(args[0]) * len(args[1])
    elif layer == "liftings.grid":
        counts["liftings.grid_calls"] += 1
        counts["liftings.grid_tables"] += _grid_tables(args)
    elif layer == "axioms.check":
        counts["axioms.trials"] += sum(c.trials for c in result.checks)
        counts["axioms.counterexamples"] += sum(not c.passed for c in result.checks)
    elif layer == "liftings.lift":
        counts["liftings.lift_calls"] += 1
    elif layer == "core.compose":
        counts["core.compose_calls"] += 1
    elif layer == "logic.semantics":
        counts["logic.semantics_calls"] += 1


class Tracer:
    def __init__(self):
        self.layers = sorted({layer for _, _, layer in TARGETS})
        self.layer_id = {layer: i for i, layer in enumerate(self.layers)}
        self.span_layer = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.stack = []
        self.open = Counter()
        self.counts = Counter()
        self.sites = Counter()  # "module.function" -> modules it was wrapped in
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, layer):
        layer_id = self.layer_id[layer]
        spans_layer, spans_start = self.span_layer, self.span_start
        spans_end, spans_parent = self.span_end, self.span_parent
        stack, open_, counts = self.stack, self.open, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_[layer]:
                result = fn(*args, **kwargs)
                _on_return(layer, args, result, counts)
                return result
            index = len(spans_start)
            spans_layer.append(layer_id)
            spans_parent.append(stack[-1] if stack else -1)
            spans_end.append(0.0)
            stack.append(index)
            open_[layer] += 1
            spans_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans_end[index] = clock()
                open_[layer] -= 1
                stack.pop()
            _on_return(layer, args, result, counts)
            return result
        return traced

    def _count(self, fn, counter):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installing --------------------------------------------------------

    def _patch_everywhere(self, module_name, name, make):
        original = getattr(importlib.import_module(module_name), name, None)
        if original is None:
            print(f"trace: {module_name}.{name} no longer exists", file=sys.stderr)
            return
        wrapper = make(original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "laxkit" and getattr(module, name, None) is original:
                self._patches.append((module, name, original))
                setattr(module, name, wrapper)
                self.sites[f"{module_name}.{name}"] += 1

    def install(self) -> None:
        for module_name, name, layer in TARGETS:
            self._patch_everywhere(module_name, name, lambda fn, l=layer: self._wrap(fn, l))
        for module_name, name, counter in COUNTED:
            self._patch_everywhere(module_name, name, lambda fn, c=counter: self._count(fn, c))
        from laxkit.core import FuzzyRel

        original = FuzzyRel.__post_init__
        self._patches.append((FuzzyRel, "__post_init__", original))
        FuzzyRel.__post_init__ = self._count(original, "core.rel_builds")

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results -----------------------------------------------------------

    def layer_times(self) -> tuple:
        """(busy, self) seconds per layer; self excludes child spans."""
        busy, child = Counter(), Counter()
        for layer, start, end, parent in zip(self.span_layer, self.span_start,
                                             self.span_end, self.span_parent):
            name = self.layers[layer]
            busy[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own = Counter()
        for index, (layer, start, end) in enumerate(zip(self.span_layer, self.span_start,
                                                        self.span_end)):
            own[self.layers[layer]] += end - start - child[index]
        return busy, own

    def covered(self) -> float:
        """Seconds of cli spans covered by their direct child spans."""
        cli = self.layer_id["cli"]
        return sum(end - start for start, end, parent in
                   zip(self.span_start, self.span_end, self.span_parent)
                   if parent >= 0 and self.span_layer[parent] == cli)

    def nested(self, outer: str, inner: str) -> float:
        """Seconds of `inner` spans that run inside an `outer` span."""
        outer_id, inner_id = self.layer_id[outer], self.layer_id[inner]
        total = 0.0
        for layer, start, end, parent in zip(self.span_layer, self.span_start,
                                             self.span_end, self.span_parent):
            if layer != inner_id:
                continue
            while parent >= 0 and self.span_layer[parent] != outer_id:
                parent = self.span_parent[parent]
            if parent >= 0:
                total += end - start
        return total

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"layers": self.layers, "sites": dict(self.sites),
                       "counts": dict(self.counts),
                       "columns": ["layer", "start", "end", "parent"],
                       "spans": [list(row) for row in zip(self.span_layer, self.span_start,
                                                          self.span_end, self.span_parent)]},
                      handle)
