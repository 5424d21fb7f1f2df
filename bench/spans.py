"""In-memory spans around the public calls the CLI makes, and the per-layer
metrics derived from them.

``Tracer.instrument`` swaps each public function the CLI calls for a wrapper
that records a span (name, start, end, parent, request id) and keeps the
call's arguments and result.  After a request's root span has closed,
``Tracer.finish_request`` makes the extra calls that measure work the CLI
does not expose (the witness audit, reachability, pair universes, homotopy
class sizes, the oracle's unfoldings); their spans have no parent, so they
never count toward request latency.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict

from hdabisim import cli, paths
from hdabisim.bisim import verify_bisim_relation
from hdabisim.core import reachable
from hdabisim.paths import CubePath, enumerate_pointed_paths, homotopy_class
from hdabisim.unfold import unfold

# (module, attribute, span name): every public call on a request's path.
TARGETS = (
    (cli, "load_model", "model_io.load_model"),
    (cli, "dump_model", "model_io.dump_model"),
    (cli, "validate_model", "core.validate_model"),
    (cli, "reachable", "core.reachable"),
    (cli, "bisimilar", "bisim.bisimilar"),
    (cli, "labeled_bisimilar", "bisim.labeled_bisimilar"),
    (cli, "hp_bisimilar", "bisim.hp_bisimilar"),
    (cli, "hp_oracle", "bisim.hp_oracle"),
    (cli, "unfold", "unfold.unfold"),
    (cli, "is_tree", "unfold.is_tree"),
    (cli, "fan_shape_trace", "paths.fan_shape_trace"),
    (cli, "_emit", "cli.emit"),
    # The CLI imports are_homotopic from the paths module at call time.
    (paths, "are_homotopic", "paths.are_homotopic"),
)
ROOT = "cli.main"
_DECISIONS = ("bisim.bisimilar", "bisim.labeled_bisimilar", "bisim.hp_bisimilar")

# Per-layer time metrics: span names summed, per traced request.
TIME_METRICS = {
    "cli.emit_s": ("cli.emit",),
    "model_io.load_s": ("model_io.load_model",),
    "model_io.dump_s": ("model_io.dump_model",),
    "core.validate_s": ("core.validate_model",),
    "core.reachable_s": ("core.reachable",),
    "bisim.decide_s": _DECISIONS,
    "bisim.audit_s": ("bisim.verify_bisim_relation",),
    "bisim.oracle_s": ("bisim.hp_oracle",),
    "unfold.unfold_s": ("unfold.unfold",),
    "unfold.is_tree_s": ("unfold.is_tree",),
    "paths.homotopic_s": ("paths.are_homotopic",),
    "paths.fan_s": ("paths.fan_shape_trace",),
}
# Per-layer counts, per traced request.
COUNT_METRICS = {
    "cli.emit_bytes": "emit_bytes",
    "model_io.cubes_loaded": "cubes_loaded",
    "model_io.dump_bytes": "dump_bytes",
    "core.violations": "violations",
    "bisim.universe_pairs": "universe_pairs",
    "bisim.pairs_deleted": "pairs_deleted",
    "bisim.witness_pairs": "witness_pairs",
    "bisim.oracle_pairs": "oracle_pairs",
    "unfold.nodes": "nodes",
    "unfold.frontier_nodes": "frontier_nodes",
    "unfold.pointed_paths": "pointed_paths",
    "paths.class_members": "class_members",
}
# Ratios of two counts, each summed over the traced requests.
RATIO_METRICS = {
    "core.reachable_ratio": ("reachable", "reachable_of"),
    "bisim.survivor_ratio": ("witness_pairs", "witness_universe"),
    "unfold.nodes_per_member": ("nodes", "class_members"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.request: int | None = None
        self.calls: list[tuple[str, tuple, dict, object]] = []
        self.counts: Counter = Counter()
        self.self_s = 0.0
        self.requests = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, extra: bool = False) -> int:
        self.spans.append({"request": self.request, "name": name,
                           "start": time.perf_counter(), "end": None,
                           "parent": self.stack[-1] if self.stack else None,
                           "extra": extra})
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self.stack.pop()

    def timed(self, name: str, fn, *args, **kwargs):
        """An extra call outside any request span."""
        index = self._open(name, extra=True)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            self.calls.append((name, args, kwargs, result))
            return result
        return wrapper

    def instrument(self) -> None:
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- requests ------------------------------------------------------------

    def run_request(self, call):
        """Run `call` under a root span; returns its result."""
        self.request = self.requests
        self.requests += 1
        self.calls = []
        root = self._open(ROOT)
        try:
            return call()
        finally:
            self._close(root)
            span = self.spans[root]
            children = sum(s["end"] - s["start"] for s in self.spans[root + 1:]
                           if s["parent"] == root)
            self.self_s += span["end"] - span["start"] - children

    def finish_request(self, emitted: str) -> None:
        """Derive the request's counts, making the extra calls."""
        c = self.counts
        c["emit_bytes"] += len(emitted)
        loaded, valid = [], True
        reached = False
        for name, args, kwargs, result in self.calls:
            if name == "model_io.load_model":
                loaded.append(result.hda)
                c["cubes_loaded"] += len(result.hda.space)
            elif name == "model_io.dump_model":
                c["dump_bytes"] += os.path.getsize(args[1])
            elif name == "core.validate_model":
                c["violations"] += len(result.violations)
                valid = valid and result.ok
            elif name == "core.reachable":
                reached = True
                c["reachable"] += len(result)
                c["reachable_of"] += len(args[0].space)
            elif name in _DECISIONS:
                self._decision(name, args, kwargs, result)
            elif name == "bisim.hp_oracle":
                self._oracle(args, kwargs)
            elif name == "unfold.unfold":
                self._unfolding(result)
            elif name == "unfold.is_tree":
                c["pointed_paths"] += self.timed(
                    "paths.enumerate_pointed_paths", _count_pointed_paths,
                    args[0], args[1], kwargs["cap"])
        if valid and not reached:
            for hda in loaded:
                c["reachable"] += len(self.timed("core.reachable", reachable, hda))
                c["reachable_of"] += len(hda.space)

    def _decision(self, name, args, kwargs, decision) -> None:
        # The CLI passes labelings positionally, and only with --labeled.
        if name == "bisim.labeled_bisimilar":
            x, lx, y, ly = args
        else:
            x, y, *labelings = args
            lx, ly = labelings or (None, None)
        universe = universe_pairs(x.space, y.space, lx, ly)
        c = self.counts
        c["universe_pairs"] += universe
        c["pairs_deleted"] += decision.iterations
        if decision.witness:
            c["witness_pairs"] += len(decision.witness)
            c["witness_universe"] += universe
            self.timed("bisim.verify_bisim_relation", verify_bisim_relation,
                       x, y, decision.witness, lx, ly)

    def _oracle(self, args, kwargs) -> None:
        x, y, depth = args[:3]
        cap = kwargs["cap"]
        ux = self.timed("unfold.unfold", unfold, x, depth, cap)
        uy = self.timed("unfold.unfold", unfold, y, depth, cap)
        self.counts["oracle_pairs"] += universe_pairs(ux.tree.space, uy.tree.space)
        self._unfolding(ux)
        self._unfolding(uy)

    def _unfolding(self, unfolding) -> None:
        c = self.counts
        c["nodes"] += len(unfolding.tree.space)
        c["frontier_nodes"] += len(unfolding.frontier)
        base = unfolding.base.space
        for node in unfolding.nodes.values():
            members = self.timed("paths.homotopy_class", homotopy_class,
                                 CubePath(base, node.rep), unfolding.cap)
            c["class_members"] += len(members)

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        n = max(self.requests, 1)
        busy: defaultdict[str, float] = defaultdict(float)
        for s in self.spans:
            busy[s["name"]] += s["end"] - s["start"]
        out = {"cli.self_s": self.self_s / n}
        for metric, names in TIME_METRICS.items():
            out[metric] = sum(busy[name] for name in names) / n
        for metric, key in COUNT_METRICS.items():
            out[metric] = self.counts[key] / n
        for metric, (num, den) in RATIO_METRICS.items():
            den_value = self.counts[den]
            out[metric] = self.counts[num] / den_value if den_value else 0.0
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(s) + "\n")


def _count_pointed_paths(hda, depth: int, cap: int) -> int:
    """Pointed paths within `depth`, counted up to one past the cap, where
    is_tree stops."""
    count = 0
    for _path in enumerate_pointed_paths(hda, depth):
        count += 1
        if count > cap:
            break
    return count


def universe_pairs(xs, ys, lx=None, ly=None) -> int:
    """Equal-dimension pairs, label-filtered when labelings are given:
    the sum over n of |X_n| * |Y_n| restricted to equal labels."""
    total = 0
    for n in range(min(xs.max_dim(), ys.max_dim()) + 1):
        if lx is None:
            total += len(xs.by_dim(n)) * len(ys.by_dim(n))
            continue
        left = Counter(lx.assign.get(x) for x in xs.by_dim(n))
        right = Counter(ly.assign.get(y) for y in ys.by_dim(n))
        total += sum(count * right[label] for label, count in left.items())
    return total
