"""The exact integer flow, and its work cap, of ``offline_opt_exact`` and ``supply_factor``."""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from .errors import SizeLimit

_MAX_EXACT_WORK = 200_000_000  # ids and flow edges the pours and searches visit
_CLOSED = 1 << 62  # a search mark above every search's number


class _Flow:
    """Integer flow from query groups to advertisers, grown one level at a time.

    ``flow[g]`` maps advertiser ``a`` to the units group ``g`` delivers to
    it and ``into[a]`` holds the groups with such units.  ``group_mark`` and
    ``ad_mark`` hold the number of the last search that reached a node, or
    ``_CLOSED`` once a failed search has shown the node can never reach
    free demand.  ``work`` counts the ids and flow edges visited so far.
    Advertiser ``a`` takes ``demands[a]`` units, group ``g`` reaches ``elig[g]``.
    """

    def __init__(self, demands: Sequence[int], elig: Sequence[Tuple[int, ...]]):
        m = len(demands)
        self.demands = demands
        self.elig = elig
        self.used = [0] * m
        self.flow: List[Dict[int, int]] = [{} for _ in elig]
        self.into: List[Set[int]] = [set() for _ in demands]
        self.group_mark = [0] * len(elig)
        self.ad_mark = [0] * m
        self.via = [0] * m  # per search: the group an advertiser was reached from
        self.back = [0] * len(elig)  # per search: the advertiser whose units a group moves
        self.searches = 0
        self.work = 0

    def count(self, visits: int) -> None:
        self.work += visits
        if self.work > _MAX_EXACT_WORK:
            raise SizeLimit(f"counted work {self.work} exceeds exact-solver limit {_MAX_EXACT_WORK}")

    def levels(self, classes: Iterable[Tuple[int, int, int]]) -> Iterator[Tuple[int, int]]:
        """``(level, units the flow grows by)`` per level of ``(level, group, count)`` classes.

        The classes come level by level, in pour order within a level, each
        count at least 1: a zero-unit class would leave an empty flow edge.
        Each group pours its queries into its ids' remaining demand; what
        is left then goes by :meth:`search`, and what no search moves is
        dropped.
        """
        demands, used, elig, flow, into = self.demands, self.used, self.elig, self.flow, self.into
        group_mark = self.group_mark
        for lv, level in itertools.groupby(classes, key=itemgetter(0)):
            placed, visits, left = 0, 0, []
            for _, g, k in level:
                if group_mark[g] == _CLOSED:
                    continue
                ids, units = elig[g], flow[g]
                placed += k
                for a in ids:
                    room = demands[a] - used[a]
                    if room:
                        take = room if room < k else k
                        used[a] += take
                        units[a] = units.get(a, 0) + take
                        into[a].add(g)
                        k -= take
                        if not k:
                            visits += ids.index(a) + 1
                            break
                else:
                    visits += len(ids)
                    placed -= k
                    left.append((g, k))
            self.count(visits)
            for g, k in left:
                while k:
                    moved = self.search(g, k)
                    if not moved:
                        break
                    k -= moved
                    placed += moved
            yield lv, placed

    def search(self, g: int, need: int) -> int:
        """Units, at most ``need``, moved from group ``g`` along one shortest augmenting path.

        Breadth-first from ``g``: through a full advertiser, a group with
        units on it can move them to its other eligible advertisers.  Each
        node is reached once.  Returns 0, and closes every node reached, when
        no advertiser with room is reachable.
        """
        group_mark, ad_mark = self.group_mark, self.ad_mark
        if group_mark[g] == _CLOSED:
            return 0
        demands, used, elig, into, via, back = (
            self.demands, self.used, self.elig, self.into, self.via, self.back
        )
        self.searches += 1
        stamp = self.searches
        group_mark[g] = stamp
        todo, full = [g], []
        for g2 in todo:
            ids = elig[g2]
            followed = 0
            for a in ids:
                if ad_mark[a] >= stamp:  # reached in this search, or closed
                    continue
                ad_mark[a] = stamp
                via[a] = g2
                if used[a] < demands[a]:
                    self.count(ids.index(a) + 1 + followed)
                    return self._push(g, a, need)
                full.append(a)
                followed += len(into[a])
                for g3 in into[a]:
                    if group_mark[g3] < stamp:
                        group_mark[g3] = stamp
                        back[g3] = a
                        todo.append(g3)
            self.count(len(ids) + followed)
        for g2 in todo:
            group_mark[g2] = _CLOSED
        for a in full:
            ad_mark[a] = _CLOSED
        return 0

    def _push(self, g: int, end: int, need: int) -> int:
        # as many units as the path's bottleneck allows, moved from end back to g
        demands, used, via, back = self.demands, self.used, self.via, self.back
        flow, into = self.flow, self.into
        k = min(need, demands[end] - used[end])
        g2 = via[end]
        while g2 != g:
            a = back[g2]
            k = min(k, flow[g2][a])
            g2 = via[a]
        used[end] += k
        a = end
        while True:
            g2 = via[a]
            flow[g2][a] = flow[g2].get(a, 0) + k
            into[a].add(g2)
            if g2 == g:
                return k
            prev = back[g2]
            left = flow[g2][prev] - k
            if left:
                flow[g2][prev] = left
            else:
                del flow[g2][prev]
                into[prev].discard(g2)
            a = prev
