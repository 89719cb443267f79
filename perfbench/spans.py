"""Spans around the calls into each rbpspan module, recorded from outside the program.

Each entry of SITES names a module attribute, the layer its time belongs to and,
optionally, a counter. Wrapping the attribute at the module that calls it (for
example `rbpspan.circle.fill_tables`, which `solve_circle` looks up in its own
module) times exactly the calls made on the solve path. Untraced solves run
with no wrapper installed.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Optional


def _purple_pairs_tested(solution) -> int:
    """Pairs of purple edges with no shared endpoint, the pairs `solution_stats` tests."""
    from rbpspan.model import Color

    degree = defaultdict(int)
    count = 0
    for e in solution.edges:
        if e.color_class == Color.PURPLE:
            count += 1
            degree[e.u] += 1
            degree[e.v] += 1
    sharing = sum(d * (d - 1) // 2 for d in degree.values())
    return count * (count - 1) // 2 - sharing


# (module, attribute, layer, counter name, counter(args, result) -> int)
SITES = [
    ("rbpspan.cli", "parse_instance", "model.parse_s", None, None),
    ("rbpspan.cli", "collinearity_residual", "cli.dispatch_s", None, None),
    ("rbpspan.cli", "fit_circle", "cli.dispatch_s", None, None),
    ("rbpspan.cli", "solve_exact", "exact.core_self_s", None, None),
    ("rbpspan.cli", "solve_line", "line.core_s", None, None),
    ("rbpspan.cli", "solve_circle", "circle.core_self_s", None, None),
    ("rbpspan.cli", "approx_a", "approx.core_self_s", None, None),
    ("rbpspan.cli", "approx_union", "approx.core_self_s", None, None),
    ("rbpspan.cli", "is_rbp_spanning", "graphops.verify_s", None, None),
    # solve_exact imports allowed_edges inside its body, from rbpspan.model.
    ("rbpspan.model", "allowed_edges", "model.allowed_edges_s",
     "exact.ground_set_n", lambda args, res: len(res)),
    ("rbpspan.exact", "find_min_exchange_sequence", "exact.exchange_s",
     "exact.rounds", lambda args, res: int(res is not None)),
    ("rbpspan.graphops", "sorted_side_pairs", "graphops.side_pairs_s",
     "graphops.side_pairs_n", lambda args, res: len(res)),
    ("rbpspan.approx", "kruskal_mst", "graphops.kruskal_self_s", None, None),
    ("rbpspan.approx", "constrained_mst", "graphops.kruskal_self_s", None, None),
    ("rbpspan.circle", "kruskal_mst", "graphops.kruskal_self_s", None, None),
    ("rbpspan.circle", "fit_circle", "circle.fit_s", None, None),
    ("rbpspan.circle", "fill_tables", "circle.tables_s",
     "circle.dp_cells", lambda args, res: 4 * len(args[1]) ** 2),
]
for _mod in ("approx", "line", "circle", "exact"):
    SITES.append((f"rbpspan.{_mod}", "make_edge_set", "model.make_edge_set_s", None, None))
    SITES.append((f"rbpspan.{_mod}", "solution_stats", "graphops.stats_s",
                  "graphops.stats_pairs", lambda args, res: _purple_pairs_tested(res)))

ROOT_LAYER = "cli.output_self_s"   # self time of the whole `cli.main` call
TIME_LAYERS = sorted({site[2] for site in SITES} | {ROOT_LAYER})
COUNTERS = sorted({site[3] for site in SITES if site[3]})


class Tracer:
    """In-memory span recorder: one list entry per span, written out at the end."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: list[dict] = []   # per solve: counter name -> total
        self._stack: list[int] = []
        self._solve = -1
        self._installed: list[tuple] = []

    def begin(self, name: str, layer: str) -> int:
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name, "layer": layer, "solve": self._solve,
                           "parent": self._stack[-1] if self._stack else None,
                           "start": time.perf_counter(), "end": None})
        self._stack.append(sid)
        return sid

    def end(self, sid: int):
        self.spans[sid]["end"] = time.perf_counter()
        self._stack.pop()

    def solve(self, fn: Callable, *args):
        """Run one solve under a root span; returns fn's result."""
        self._solve += 1
        self.counts.append(defaultdict(int))
        sid = self.begin("cli.main", ROOT_LAYER)
        try:
            return fn(*args)
        finally:
            self.end(sid)

    def _wrap(self, fn, site: str, layer: str, counter: Optional[str], count):
        def traced(*args, **kwargs):
            sid = self.begin(site, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if counter:
                self.counts[self._solve][counter] += count(args, result)
            return result
        return traced

    def install(self):
        for mod_name, attr, layer, counter, count in SITES:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._installed.append((mod, attr, original))
            site = f"{mod_name.removeprefix('rbpspan.')}.{attr}"
            setattr(mod, attr, self._wrap(original, site, layer, counter, count))

    def uninstall(self):
        while self._installed:
            mod, attr, original = self._installed.pop()
            setattr(mod, attr, original)

    def per_solve(self) -> list[dict]:
        """Per solve: layer -> self seconds, plus every counter.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = [dict.fromkeys(TIME_LAYERS, 0.0) for _ in self.counts]
        for s in self.spans:
            out[s["solve"]][s["layer"]] += s["end"] - s["start"] - child_time[s["id"]]
        for row, counts in zip(out, self.counts):
            for name in COUNTERS:
                row[name] = counts.get(name, 0)
        return out

    def write(self, path):
        """One JSON object per line; times are perf_counter seconds."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
