"""Call-boundary tracing of the library, from outside it.

``Tracer.installed()`` rebinds module-level names in ``legendre_pairs``
modules to timing wrappers and restores them on exit.  Names are rebound in
the modules that call them (``decompress`` and ``candgen``, and
``grouptools.orbits`` for the benchmark's own set-up call), never in
``seqcore`` itself.  So a seqcore function called from inside another one
(``verify_legendre_pair`` calling ``paf_vector``) is part of its caller's
span and is not counted twice.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, List, Tuple

TRACED = {
    "legendre_pairs.decompress": (
        "uncompress_search", "orbit_search", "orbits", "block_from_codes",
        "sequence_from_block", "compress", "paf", "paf_vector", "psd_vector",
        "verify_legendre_pair",
    ),
    "legendre_pairs.candgen": ("candidates_d5", "odd_five_squares"),
    # the set-up of orbit_sample_l85 builds its own orbit table
    "legendre_pairs.grouptools": ("orbits",),
}

SEQCORE = ("psd_vector", "paf_vector", "verify_legendre_pair", "compress", "paf")
GROUPTOOLS = ("block_from_codes", "sequence_from_block")
SETUP_LAYERS = ("grouptools.orbits", "candgen.candidates_d5", "diophantine.odd_five_squares")

# (span id, parent span id, request id, layer name, start, end); request 0 is set-up
Span = Tuple[int, int, int, str, float, float]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.request = 0
        self._stack = [0]
        self._ids = itertools.count(1)

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.request, name, start, end))

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for modname, attrs in TRACED.items():
                mod = importlib.import_module(modname)
                for attr in attrs:
                    fn = getattr(mod, attr)
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Iterable[Span], work: Dict[str, Tuple[int, int]],
                  passes: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from the spans of one set-up and ``passes`` identical
    traced passes, reported per pass.

    ``work`` maps each engine name to the (nodes_visited, pairs) one pass of
    its searches returned.  Set-up layers report seconds; search layers report
    calls, time per call and, for the two engines, self time: the span minus
    the time in the wrapped calls it made.
    """
    spans = list(spans)
    child_s: Dict[int, float] = defaultdict(float)
    name_of = {}
    for sid, parent, _, name, start, end in spans:
        child_s[parent] += end - start
        name_of[sid] = name
    calls: Dict[str, int] = defaultdict(int)
    total_s: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    under: Dict[Tuple[str, str], int] = defaultdict(int)  # (parent layer, layer) -> calls
    setup_s: Dict[str, float] = defaultdict(float)
    for sid, parent, request, name, start, end in spans:
        if request == 0:
            setup_s[name] += end - start
            continue
        calls[name] += 1
        total_s[name] += end - start
        self_s[name] += end - start - child_s[sid]
        under[(name_of.get(parent, ""), name)] += 1
    for table in (calls, under):
        for key in table:
            table[key] //= passes
    for table in (total_s, self_s):
        for key in table:
            table[key] /= passes

    out: Dict[str, Tuple[float, str]] = {}
    dfs, orb = "decompress.uncompress_search", "decompress.orbit_search"
    nodes, dfs_pairs = work.get("uncompress_search", (0, 0))
    out[f"{dfs}.nodes"] = (nodes, "count")
    out[f"{dfs}.self_s"] = (self_s[dfs], "s")
    out[f"{dfs}.self_us_per_node"] = (_ratio(1e6 * self_s[dfs], nodes), "us")
    out[f"{dfs}.leaf_pass_ratio"] = (
        _ratio(dfs_pairs, under[(dfs, "seqcore.verify_legendre_pair")]), "ratio")
    sels, orb_pairs = work.get("orbit_search", (0, 0))
    psd_calls = under[(orb, "seqcore.psd_vector")]
    pool = under[(orb, "seqcore.paf_vector")]
    out[f"{orb}.selections"] = (sels, "count")
    out[f"{orb}.self_s"] = (self_s[orb], "s")
    out[f"{orb}.self_us_per_selection"] = (_ratio(1e6 * self_s[orb], sels), "us")
    out[f"{orb}.pool_entries"] = (pool, "count")
    out[f"{orb}.p2_pass_ratio"] = (_ratio(psd_calls, sels), "ratio")
    out[f"{orb}.psd_pass_ratio"] = (_ratio(pool, psd_calls), "ratio")
    out[f"{orb}.match_pass_ratio"] = (
        _ratio(orb_pairs, under[(orb, "seqcore.verify_legendre_pair")]), "ratio")
    for layer in [f"seqcore.{f}" for f in SEQCORE] + [f"grouptools.{f}" for f in GROUPTOOLS]:
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.us_per_call"] = (_ratio(1e6 * total_s[layer], calls[layer]), "us")
    for layer in SETUP_LAYERS:
        out[f"{layer}.s"] = (setup_s[layer], "s")
    return out
