"""Per-layer tracing by wrapping module attributes from outside the program.

``install`` replaces public functions of the ``kinglpds`` modules (and
``networkx.max_weight_matching``) by wrappers that record one span per call:
layer, start, end, parent span and operation index.  Every module namespace
that holds a reference to the function gets the wrapper, so calls through
``from .verify import verify_lpds`` are seen too.  Spans stay in memory until
``summary`` and ``dump`` read them after the round.

The ``grid`` primitives are not wrapped: they run millions of times per round
and a wrapper would dominate their cost, so it shows in the self time of
their callers instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (module, attribute, layer, counter taking (args, result) or None)
SPEC = [
    ("kinglpds.cli", "main", "cli", None),
    ("kinglpds.search", "minimum_lpds", "search", lambda a, r: r.nodes_explored),
    ("kinglpds.verify", "verify_lpds", "verify", lambda a, r: int(r.valid)),
    ("kinglpds.verify", "check_domination", "verify.domination", None),
    ("kinglpds.verify", "check_locating", "verify.locating", None),
    ("kinglpds.verify", "find_perfect_matching", "verify.matching", None),
    ("kinglpds.verify", "classify", "verify.classify", None),
    ("kinglpds.verify", "verify_window", "verify.window", lambda a, r: a[0].cells),
    ("kinglpds.pattern", "translation_canonical", "pattern.canonical", None),
    ("kinglpds.pattern", "canonicalize", "pattern.canonical", None),
    ("kinglpds.discharge", "first_pipeline", "discharge.pipeline1", None),
    ("kinglpds.discharge", "second_pipeline", "discharge.pipeline2", None),
    ("kinglpds.lemmas", "check_all", "lemmas", None),
    ("kinglpds.lemmas", "check_lemma1", "lemmas", lambda a, r: r.configs_examined),
    ("kinglpds.lemmas", "check_r_claims", "lemmas", lambda a, r: sum(v.configs_examined for v in r)),
    ("kinglpds.lemmas", "check_adjacent_sum", "lemmas", lambda a, r: r.configs_examined),
    ("networkx", "max_weight_matching", "matching", None),
]

# span fields
LAYER, START, END, PARENT, OP, COUNT = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0

    def wrap(self, layer: str, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if counter is not None:
                span[COUNT] = counter(args, result)
            return result

        return traced

    def install(self) -> None:
        for mod_name, attr, layer, counter in SPEC:
            original = getattr(importlib.import_module(mod_name), attr)
            wrapper = self.wrap(layer, original, counter)
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "networkx" or name.split(".")[0] == "kinglpds"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "layer": s[LAYER], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "op": s[OP], "count": s[COUNT]}) + "\n")

    def summary(self) -> dict:
        """Per-layer metrics of everything recorded so far (see README)."""
        spans = self.spans
        dur = [s[END] - s[START] for s in spans]
        self_t = list(dur)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                self_t[s[PARENT]] -= dur[i]

        def parent_layer(i):
            p = spans[i][PARENT]
            return spans[p][LAYER] if p >= 0 else None

        def outermost(i):
            p = spans[i][PARENT]
            while p >= 0:
                if spans[p][LAYER] == spans[i][LAYER]:
                    return False
                p = spans[p][PARENT]
            return True

        by_layer: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            by_layer.setdefault(s[LAYER], []).append(i)
        ids = lambda layer: by_layer.get(layer, [])
        total = lambda idx, vals: sum(vals[i] for i in idx)
        count = lambda idx: sum(spans[i][COUNT] or 0 for i in idx)
        ratio = lambda a, b: a / b if b else 0.0

        leaves = [i for i in ids("verify") if parent_layer(i) == "search"]
        dfs_s = total(ids("search"), self_t)
        nodes = count(ids("search"))
        verify_calls = len(ids("verify"))
        window_s = total(ids("verify.window"), dur)
        lemma_s = total([i for i in ids("lemmas") if outermost(i)], dur)
        configs = count(ids("lemmas"))
        return {
            "search.dfs_s": dfs_s,
            "search.nodes": nodes,
            "search.nodes_per_s": ratio(nodes, dfs_s),
            "search.leaves": len(leaves),
            "search.leaf_s": total(leaves, dur),
            "search.leaf_valid_ratio": ratio(count(leaves), len(leaves)),
            "pattern.canonical_s": total([i for i in ids("pattern.canonical") if outermost(i)], dur),
            "verify.calls": verify_calls,
            "verify.domination_s": total(ids("verify.domination"), self_t),
            "verify.locating_s": total(ids("verify.locating"), self_t),
            "verify.matching_s": total(ids("verify.matching"), self_t),
            "verify.classify_s": total(ids("verify.classify"), self_t),
            "verify.domination_per_verify": ratio(len(ids("verify.domination")), verify_calls),
            "verify.window_s": window_s,
            "verify.window_cells_per_s": ratio(count(ids("verify.window")), window_s),
            "matching.calls": len(ids("matching")),
            "matching.s": total(ids("matching"), dur),
            "discharge.pipeline1_s": total(ids("discharge.pipeline1"), dur),
            "discharge.pipeline2_s": total(ids("discharge.pipeline2"), dur),
            "lemmas.configs": configs,
            "lemmas.configs_per_s": ratio(configs, lemma_s),
            "lemmas.s": lemma_s,
            "cli.self_s": total(ids("cli"), self_t),
        }


COUNTS = ("search.nodes", "search.leaves", "verify.calls", "matching.calls", "lemmas.configs")
