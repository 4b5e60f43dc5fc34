"""Spans around the benchmark's calls into yieldopt's layers.

Spans are recorded from outside the package: ``bind`` hands the workloads
either the library's own functions (untraced, no added cost) or wrappers
that record one span per call.  Calls the library makes internally are not
traced.  Spans live in flat arrays while the run lasts and are written out
at its end.
"""

from __future__ import annotations

import time
from array import array
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# the public functions the workloads call, by layer (module of yieldopt)
LAYERS = {
    "dist": ("sample_array",),
    "instances": ("gen_upper_triangular", "supply_factor"),
    "policy": ("make_policy",),
    "engine": ("run_rewards", "serve_query"),
    "oracle": ("offline_opt_exact",),
    "matching": ("empirical_ratio",),
}


def _describe(name: str) -> Optional[Callable[..., Tuple[str, int]]]:
    """(tag, work) of one call from its arguments; the tag groups calls by input shape."""
    if name == "sample_array":
        return lambda dist, rng, size: (f"d={dist.d}", int(size))
    if name == "gen_upper_triangular":
        return lambda m, n, f, seed: (f"m={m} n={n}", 1)
    if name == "supply_factor":
        return lambda inst: (f"m={inst.m}", 1)
    if name == "make_policy":
        return lambda dist, *rest: (f"d={dist.d}", 1)
    if name == "run_rewards":
        return lambda inst, *rest: (f"m={inst.m} q={inst.total_queries}", inst.total_queries)
    if name == "offline_opt_exact":
        return lambda rz, penalty: (f"q={len(rz.rewards)}", len(rz.rewards))
    if name == "empirical_ratio":
        return lambda m, n, f, trials, seed: (f"m={m} f={f}", trials)
    return None  # serve_query: untagged, one unit of work, kept cheap


class Tracer:
    """Span store: name, tag, request id, parent, start/end ns, work, failed."""

    def __init__(self):
        self.names: List[str] = []
        self.tag_ids: Dict[str, int] = {"": 0}
        self.name = array("i")
        self.tag = array("i")
        self.req = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self.failed = array("b")
        self.stack: List[int] = []
        self.current_req = -1

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name_id: int, tag: str = "", work: int = 1) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.tag.append(self.tag_ids.setdefault(tag, len(self.tag_ids)))
        self.req.append(self.current_req)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.work.append(work)
        self.failed.append(0)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int, failed: bool = False) -> None:
        self.end[i] = time.perf_counter_ns()
        self.failed[i] = failed
        self.stack.pop()

    def wrap(self, layer: str, fn_name: str, fn: Callable) -> Callable:
        nid = self.name_id(f"{layer}.{fn_name}")
        describe = _describe(fn_name)

        def traced(*args):
            tag, work = describe(*args) if describe else ("", 1)
            i = self.open(nid, tag, work)
            try:
                out = fn(*args)
            except BaseException:
                self.close(i, True)
                raise
            self.close(i)
            return out

        return traced

    def arrays(self) -> Dict[str, np.ndarray]:
        cols = ("name", "tag", "req", "parent", "start", "end", "work", "failed")
        return {c: np.frombuffer(getattr(self, c), dtype=getattr(self, c).typecode) for c in cols}

    def tag_names(self) -> List[str]:
        return sorted(self.tag_ids, key=self.tag_ids.get)

    def save(self, path: str) -> None:
        names, tags = np.array(self.names), np.array(self.tag_names())
        np.savez_compressed(path, names=names, tags=tags, **self.arrays())


def bind(yo, tracer: Optional[Tracer]) -> SimpleNamespace:
    """The layer functions the workloads call, traced when ``tracer`` is given."""
    api = SimpleNamespace()
    for layer, names in LAYERS.items():
        module = getattr(yo, layer)
        for name in names:
            fn = getattr(module, name)
            setattr(api, name, fn if tracer is None else tracer.wrap(layer, name, fn))
    return api
