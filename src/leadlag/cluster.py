"""City similarity clustering over summed per-window distances.

Distances between normalized rows accumulate across every window where
both cities are active; average-linkage clustering then builds a binary
merge tree whose flat cuts give geographic preference clusters.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .charts import WindowStack

_HEIGHT_SLACK = 1e-12


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric city distances plus per-pair window coverage counts."""

    cities: tuple[str, ...]
    d: np.ndarray
    coverage: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.cities)
        if self.d.shape != (n, n):
            raise ValueError("distance matrix shape does not match city count")
        if not np.array_equal(self.d, self.d.T):
            raise ValueError("distance matrix must be exactly symmetric")
        if np.any(np.diag(self.d) != 0):
            raise ValueError("diagonal must be zero")
        if np.any(self.d < 0):
            raise ValueError("distances must be non-negative")

    def value(self, a: str, b: str) -> float:
        i, j = self.cities.index(a), self.cities.index(b)
        return float(self.d[i, j])


@dataclass(frozen=True)
class ClusterNode:
    """Leaf (city set, height 0) or internal merge of two subtrees."""

    height: float
    city: str | None = None
    left: "ClusterNode | None" = None
    right: "ClusterNode | None" = None

    def is_leaf(self) -> bool:
        return self.city is not None

    def leaves(self) -> tuple[str, ...]:
        if self.is_leaf():
            return (self.city,)
        return self.left.leaves() + self.right.leaves()


def summed_distances(windows: WindowStack, per_pair_mean: bool = False) -> DistanceMatrix:
    """Accumulate pairwise Euclidean distances over shared active windows.

    A city active in no window is dropped with a warning. Raw sums favor
    pairs with few shared windows; per_pair_mean=True divides each entry
    by its coverage count instead. Pairs never co-active keep distance 0
    with coverage 0, which the caller can spot in `coverage`.
    """
    if not windows:
        raise ValueError("no windows supplied")
    active = windows.active()
    ever_active = active.any(axis=0)
    silent = [c for c, on in zip(windows.cities, ever_active) if not on]
    if silent:
        warnings.warn(
            f"never active in any window, excluded: {', '.join(sorted(silent))}",
            stacklevel=2,
        )
    rows = np.flatnonzero(ever_active)
    kept = tuple(windows.cities[i] for i in rows)
    total = np.zeros((len(kept), len(kept)))
    coverage = np.zeros((len(kept), len(kept)), dtype=np.int64)
    for gram, on in zip(windows.grams(), active[:, rows]):
        # Unit rows: squared distance is 2 - 2*dot, clipped against roundoff.
        sq = np.clip(2.0 - 2.0 * gram[np.ix_(rows, rows)], 0.0, None)
        np.fill_diagonal(sq, 0.0)
        both = on[:, None] & on[None, :]
        total += np.where(both, np.sqrt(sq), 0.0)  # adding 0 leaves a sum's bits alone
        coverage += both
    np.fill_diagonal(coverage, 0)
    if per_pair_mean:
        total = np.divide(
            total, coverage, out=np.zeros_like(total), where=coverage > 0
        )
    total = (total + total.T) / 2.0
    np.fill_diagonal(total, 0.0)
    return DistanceMatrix(cities=kept, d=total, coverage=coverage)


def average_linkage(dist: DistanceMatrix) -> ClusterNode:
    """Root of the UPGMA merge tree, with a lexicographic smallest-pair tie-break.

    Inter-cluster distance is the unweighted mean over all cross pairs,
    maintained by the standard size-weighted update. Heights must come
    out non-decreasing; a violation is a hard error.
    """
    n = len(dist.cities)
    if n < 2:
        raise ValueError(f"need at least 2 cities to cluster, got {n}")
    # Slots stay in order of their clusters' smallest labels: merging slots
    # a < b keeps slot a, which holds the smaller label, and pops b.
    ids = sorted(range(n), key=dist.cities.__getitem__)
    d = dist.d.astype(float)[np.ix_(ids, ids)]
    nodes = [ClusterNode(height=0.0, city=dist.cities[i]) for i in ids]
    sizes = np.ones(n)
    last_height = 0.0

    while len(nodes) > 1:
        # The row-major argmin over the upper triangle is the smallest
        # distance, ties to the smallest label pair.
        upper = np.where(np.tri(len(nodes), dtype=bool), np.inf, d)
        a, b = divmod(int(np.argmin(upper)), len(nodes))
        height = d[a, b]
        if height < last_height - _HEIGHT_SLACK:
            raise RuntimeError("merge heights decreased; linkage update is broken")
        last_height = max(last_height, height)

        # Entries a and b of the new row are stale; b goes and a is masked.
        d[a] = d[:, a] = (sizes[a] * d[a] + sizes[b] * d[b]) / (sizes[a] + sizes[b])
        sizes[a] += sizes[b]
        d, sizes = np.delete(np.delete(d, b, 0), b, 1), np.delete(sizes, b)
        nodes[a] = ClusterNode(height=float(height), left=nodes[a], right=nodes.pop(b))

    return nodes[0]


def flat_cut(tree: ClusterNode, height: float) -> tuple[tuple[str, ...], ...]:
    """Clusters = maximal subtrees whose merge heights all sit below height."""
    if not height >= 0:  # also NaN
        raise ValueError(f"cut height must be non-negative, got {height}")
    clusters: list[tuple[str, ...]] = []

    def walk(node: ClusterNode) -> None:
        if node.is_leaf() or node.height < height:
            clusters.append(tuple(sorted(node.leaves())))
            return
        walk(node.left)
        walk(node.right)

    walk(tree)
    clusters.sort(key=lambda c: c[0])
    return tuple(clusters)


def _newick_label(label: str) -> str:
    if any(ch.isspace() or ch in "();:,[]'" for ch in label):
        return "'" + label.replace("'", "''") + "'"
    return label


def to_newick(tree: ClusterNode) -> str:
    """Serialize with branch lengths equal to merge-height differences."""

    def render(node: ClusterNode) -> str:
        if node.is_leaf():
            return _newick_label(node.city)
        parts = []
        for child in (node.left, node.right):
            parts.append(f"{render(child)}:{node.height - child.height:.17g}")
        return "(" + ",".join(parts) + ")"

    return render(tree) + ";"
