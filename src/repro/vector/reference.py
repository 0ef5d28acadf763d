"""The reference (per-edge) HNSW: the baseline for the vectorised index.

Production :class:`~repro.vector.hnsw.HNSWIndex` scores each frontier
expansion with one :func:`~repro.vector.distance.pairwise_distances`
call.  This module keeps the loop that preceded it:
:class:`ScalarHNSWIndex` scores one edge at a time with
:func:`~repro.vector.distance.single_distance`, in the same order and
with the same heap operations, so both build identical graphs and
return identical ids, distances and distance-computation counts.

Nothing in the production path imports this module, and
:mod:`repro.vector` does not re-export it.  ``tests/test_batch_parity.py``
asserts the parity, and benchmark E14 times the vectorised index against
this one.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.vector.distance import single_distance
from repro.vector.hnsw import HNSWIndex

__all__ = ["ScalarHNSWIndex"]


class ScalarHNSWIndex(HNSWIndex):
    """:class:`HNSWIndex` with every distance computed one edge at a time."""

    name = "hnsw-scalar"

    def _select_neighbours(
        self, query: np.ndarray, candidates: list[tuple[float, int]], m: int
    ) -> list[int]:
        kept: list[int] = []
        for distance, node in candidates:
            if len(kept) >= m:
                break
            dominated = False
            for other in kept:
                to_other = single_distance(
                    self.dataset.vectors[node],
                    self.dataset.vectors[other],
                    self.metric,
                )
                if to_other < distance:
                    dominated = True
                    break
            if not dominated:
                kept.append(node)
        if len(kept) < m:
            for _distance, node in candidates:
                if node not in kept:
                    kept.append(node)
                    if len(kept) >= m:
                        break
        return kept

    def _prune(self, node: int, layer: int, max_degree: int) -> None:
        origin = self.dataset.vectors[node]
        scored = sorted(
            (single_distance(origin, self.dataset.vectors[other], self.metric), other)
            for other in self._graph[layer][node]
        )
        self._graph[layer][node] = self._select_neighbours(origin, scored, max_degree)

    def _greedy_step(self, query: np.ndarray, start: int, layer: int) -> int:
        current = start
        current_distance = self._distance(query, current)
        improved = True
        while improved:
            improved = False
            for neighbour in self._graph[layer].get(current, []):
                distance = self._distance(query, neighbour)
                if distance < current_distance:
                    current = neighbour
                    current_distance = distance
                    improved = True
        return current

    def _search_layer(
        self, query: np.ndarray, entry_points: list[int], layer: int, ef: int
    ) -> list[tuple[float, int]]:
        visited: set[int] = set(entry_points)
        candidates: list[tuple[float, int]] = []
        best: list[tuple[float, int]] = []  # max-heap via negated distance
        for point in entry_points:
            distance = self._distance(query, point)
            heapq.heappush(candidates, (distance, point))
            heapq.heappush(best, (-distance, point))
        while candidates:
            distance, node = heapq.heappop(candidates)
            worst = -best[0][0]
            if distance > worst and len(best) >= ef:
                break
            for neighbour in self._graph[layer].get(node, []):
                if neighbour in visited:
                    continue
                visited.add(neighbour)
                neighbour_distance = self._distance(query, neighbour)
                worst = -best[0][0]
                if len(best) < ef or neighbour_distance < worst:
                    heapq.heappush(candidates, (neighbour_distance, neighbour))
                    heapq.heappush(best, (-neighbour_distance, neighbour))
                    if len(best) > ef:
                        heapq.heappop(best)
        return sorted((-negated, node) for negated, node in best)
