"""Spans and counts at the layer boundaries of ``mmdist``, recorded from outside.

The tracer replaces module-level functions with wrappers while it is
installed and puts the originals back when it is removed; nothing under
``src/`` is edited.  A function is replaced at every place it is looked up:
every ``mmdist`` module (and the package namespace) that holds the same
function object under the same name gets the wrapper, because modules bind
what they import (``max_flow_value`` lives in both ``transport`` and
``box``, ``smallest_eps_for_defects`` in ``box``, ``lipschitz`` and
``limits``).

A span is ``(layer, op, parent, start, end)``; its self time is its duration
minus the time its child spans cover.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import functools
import sys
import time

#: (module, attribute, layer name) of every wrapped function
LAYERS = (
    ("mmdist.transport", "max_flow_value", "transport.max_flow_value"),
    ("mmdist.transport", "max_flow", "transport.max_flow"),
    ("mmdist.transport", "prokhorov_distance", "transport.prokhorov_distance"),
    ("mmdist.transport", "northwest_plan", "transport.northwest_plan"),
    ("mmdist.box", "_maximal_cliques", "box.maximal_cliques"),
    ("mmdist.box", "_best_flow_at", "box.best_flow_at"),
    ("mmdist.box", "_threshold_solve", "box.threshold_solve"),
    ("mmdist.box", "_max_weight_clique", "box.max_weight_clique"),
    ("mmdist.box", "box_pair", "box.box_pair"),
    ("mmdist.core", "pullback_pair", "core.pullback_pair"),
    ("mmdist.core", "metric_closure", "core.metric_closure"),
    ("mmdist.lipschitz", "Lip1Set.vertices", "lipschitz.vertices"),
    ("mmdist.lipschitz", "lip_point_distance", "lipschitz.lip_point_distance"),
    ("mmdist.matrixdist", "exact_mu_r", "matrixdist.exact_mu_r"),
    ("mmdist.matrixdist", "isomorphism_search", "matrixdist.isomorphism_search"),
    ("mmdist.limits", "witness_search", "limits.witness_search"),
    ("mmdist.cli", "main", "cli.main"),
)

#: generator functions: each ``next()`` is one span, each call one sweep
GENERATORS = {"box.maximal_cliques"}

#: (module, attribute, count) of functions that are counted, not timed: the
#: items ``_aggregate`` consumes are the r-tuples ``exact_mu_r`` enumerates
ITEM_COUNTERS = (
    ("mmdist.matrixdist", "_aggregate", "matrixdist.exact_mu_r.tuples"),
)


class Tracer:
    """Records spans while installed; one tracer per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, op, parent index, start, end]
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.parent_calls: dict[tuple[str, str], int] = {}
        self._stack: list[list] = []  # [span index, child seconds, name]
        self._saved: list[tuple] = []
        self.op = -1
        #: factor from this pass's wall seconds to calibrated seconds
        self.scale = 1.0

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        parent_name = parent[2] if parent else "op"
        key = (name, parent_name)
        self.parent_calls[key] = self.parent_calls.get(key, 0) + 1
        self.spans.append([self._name_id(name), self.op, parent[0] if parent else -1, time.perf_counter(), 0.0])
        self._stack.append([len(self.spans) - 1, 0.0, name])

    def leave(self) -> None:
        end = time.perf_counter()
        idx, child, name = self._stack.pop()
        span = self.spans[idx]
        span[4] = end
        dur = end - span[3]
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        if name in GENERATORS:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.count(name + ".sweeps")
                inner = fn(*args, **kwargs)
                while True:
                    tracer.enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.leave()
                    tracer.count(name + ".cliques")
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name + ".calls")
            tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.leave()
            if name == "lipschitz.vertices":
                tracer.count(name + ".count", len(out))
            return out
        return wrapper

    def _count_items(self, key: str, fn):
        """Wrap ``fn(r, items)`` so that each item it consumes counts once."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(r, items, *args, **kwargs):
            def counted():
                for item in items:
                    tracer.count(key)
                    yield item
            return fn(r, counted(), *args, **kwargs)
        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items()) if k == "mmdist" or k.startswith("mmdist.")]
        wrappers = [(mod_name, attr, self._wrap(name, orig), orig)
                    for mod_name, attr, name, orig in self._originals(LAYERS)]
        wrappers += [(mod_name, attr, self._count_items(key, orig), orig)
                     for mod_name, attr, key, orig in self._originals(ITEM_COUNTERS)]
        for mod_name, attr, wrapped, orig in wrappers:
            if "." in attr:  # a method: replace it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(sys.modules[mod_name], cls_name)
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    @staticmethod
    def _originals(table):
        for mod_name, attr, name in table:
            home = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                orig = getattr(home, cls_name).__dict__[meth]
            else:
                orig = getattr(home, attr)
            yield mod_name, attr, name, orig

    def remove(self) -> None:
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def layer_counts(self) -> dict[str, float]:
        """Counts of one traced pass, as the per-layer table names them."""
        c = self.counts
        flows_in_sweeps = self.parent_calls.get(("transport.max_flow_value", "box.best_flow_at"), 0)
        cliques = c.get("box.maximal_cliques.cliques", 0)
        return {
            "transport.max_flow_value.calls": c.get("transport.max_flow_value.calls", 0),
            "transport.max_flow.calls": c.get("transport.max_flow.calls", 0),
            "transport.prokhorov_distance.calls": c.get("transport.prokhorov_distance.calls", 0),
            "transport.northwest_plan.calls": c.get("transport.northwest_plan.calls", 0),
            "box.maximal_cliques.sweeps": c.get("box.maximal_cliques.sweeps", 0),
            "box.maximal_cliques.cliques": cliques,
            "box.best_flow_at.calls": c.get("box.best_flow_at.calls", 0),
            "box.best_flow_at.flow_ratio": flows_in_sweeps / cliques if cliques else 0.0,
            "box.threshold_solve.calls": c.get("box.threshold_solve.calls", 0),
            "box.max_weight_clique.calls": c.get("box.max_weight_clique.calls", 0),
            "box.box_pair.calls": c.get("box.box_pair.calls", 0),
            "core.pullback_pair.calls": c.get("core.pullback_pair.calls", 0),
            "core.metric_closure.calls": c.get("core.metric_closure.calls", 0),
            "lipschitz.vertices.calls": c.get("lipschitz.vertices.calls", 0),
            "lipschitz.vertices.count": c.get("lipschitz.vertices.count", 0),
            "lipschitz.lip_point_distance.calls": c.get("lipschitz.lip_point_distance.calls", 0),
            "matrixdist.exact_mu_r.tuples": c.get("matrixdist.exact_mu_r.tuples", 0),
            "limits.witness_search.maps": self.parent_calls.get(
                ("transport.prokhorov_distance", "limits.witness_search"), 0),
        }

    def dump(self) -> dict:
        return {
            "names": self.names,
            "fields": ["layer", "op", "parent", "start", "end"],
            "spans": [[self.names[s[0]], s[1], s[2], round(s[3], 9), round(s[4], 9)] for s in self.spans],
        }


#: layers whose self time the per-layer table reports
SELF_TIME_LAYERS = (
    "transport.max_flow_value",
    "transport.max_flow",
    "transport.prokhorov_distance",
    "box.maximal_cliques",
    "box.max_weight_clique",
    "box.box_pair",
    "core.pullback_pair",
    "core.metric_closure",
    "lipschitz.vertices",
    "lipschitz.lip_point_distance",
    "matrixdist.exact_mu_r",
    "matrixdist.isomorphism_search",
    "limits.witness_search",
    "cli.main",
)
