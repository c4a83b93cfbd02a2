"""City similarity clustering over summed per-window distances.

Distances between normalized rows accumulate across every window where
both cities are active; average-linkage clustering then builds a binary
merge tree whose flat cuts give geographic preference clusters.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .charts import ListenMatrix, WindowStack

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


@dataclass(frozen=True)
class Merge:
    left: frozenset[str]
    right: frozenset[str]
    height: float


@dataclass(frozen=True)
class ClusterTree:
    root: ClusterNode
    merges: tuple[Merge, ...] = field(default=())

    def leaves(self) -> tuple[str, ...]:
        return self.root.leaves()


def summed_distances(
    windows: Mapping[int, ListenMatrix],
    cities: Sequence[str] | None = None,
    per_pair_mean: bool = False,
) -> DistanceMatrix:
    """Accumulate pairwise Euclidean distances over shared active windows.

    A city active in no window is dropped with a warning. Raw sums favor
    pairs with few shared windows; per_pair_mean=True divides each entry
    by its coverage count instead. Pairs never co-active keep distance 0
    with coverage 0, which the caller can spot in `coverage`.
    """
    if not windows:
        raise ValueError("no windows supplied")
    stack = WindowStack.of(windows, "distances")
    row = {c: i for i, c in enumerate(stack.cities)}
    wanted = tuple(cities) if cities is not None else stack.cities
    for city in wanted:
        if city not in row:
            raise KeyError(f"unknown city {city!r}")

    active = stack.active()
    ever_active = active.any(axis=0)
    silent = [c for c in wanted if not ever_active[row[c]]]
    if silent:
        warnings.warn(
            f"never active in any window, excluded: {', '.join(sorted(silent))}",
            stacklevel=2,
        )
    kept = tuple(c for c in wanted if ever_active[row[c]])
    rows = np.array([row[c] for c in kept], dtype=np.int64)
    total = np.zeros((len(kept), len(kept)))
    coverage = np.zeros((len(kept), len(kept)), dtype=np.int64)
    for gram, on in zip(stack.grams(), active[:, rows]):
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


def average_linkage(dist: DistanceMatrix) -> ClusterTree:
    """UPGMA merge tree with a lexicographic smallest-pair tie-break.

    Inter-cluster distance is the unweighted mean over all cross pairs,
    maintained by the standard size-weighted update. Heights must come
    out non-decreasing; a violation is a hard error.
    """
    n = len(dist.cities)
    if n < 2:
        raise ValueError(f"need at least 2 cities to cluster, got {n}")
    d = dist.d.astype(float).copy()
    active: dict[int, ClusterNode] = {
        i: ClusterNode(height=0.0, city=dist.cities[i]) for i in range(n)
    }
    sizes = {i: 1 for i in range(n)}
    min_label = {i: dist.cities[i] for i in range(n)}
    merges: list[Merge] = []
    last_height = 0.0

    while len(active) > 1:
        # With ids in label order, the row-major argmin over the upper
        # triangle is the smallest distance, ties to the smallest label pair.
        ids = sorted(active, key=min_label.get)
        block = d[np.ix_(ids, ids)]
        block[np.tril_indices(len(ids))] = np.inf
        a, b = np.unravel_index(np.argmin(block), block.shape)
        i, j = ids[a], ids[b]
        height = d[i, j]
        if height < last_height - _HEIGHT_SLACK:
            raise RuntimeError("merge heights decreased; linkage update is broken")
        last_height = max(last_height, height)

        node = ClusterNode(height=float(height), left=active[i], right=active[j])
        merges.append(
            Merge(
                left=frozenset(active[i].leaves()),
                right=frozenset(active[j].leaves()),
                height=float(height),
            )
        )
        for k in active:
            if k in (i, j):
                continue
            d[i, k] = d[k, i] = (sizes[i] * d[i, k] + sizes[j] * d[j, k]) / (
                sizes[i] + sizes[j]
            )
        sizes[i] += sizes[j]
        active[i] = node
        del active[j], sizes[j], min_label[j]

    root = next(iter(active.values()))
    return ClusterTree(root=root, merges=tuple(merges))


def flat_cut(tree: ClusterTree, height: float) -> tuple[tuple[str, ...], ...]:
    """Clusters = maximal subtrees whose merge heights all sit below height."""
    if height < 0:
        raise ValueError(f"cut height must be non-negative, got {height}")
    clusters: list[tuple[str, ...]] = []

    def walk(node: ClusterNode) -> None:
        if node.is_leaf() or node.height < height:
            clusters.append(tuple(sorted(node.leaves())))
            return
        walk(node.left)
        walk(node.right)

    walk(tree.root)
    clusters.sort(key=lambda c: c[0])
    return tuple(clusters)


def cluster_map(partition: Iterable[tuple[str, ...]]) -> dict[str, int]:
    """Number clusters by smallest member and map each city to its cluster."""
    ordered = sorted(partition, key=lambda c: c[0])
    return {city: idx for idx, members in enumerate(ordered) for city in members}


def _newick_label(label: str) -> str:
    if any(ch in label for ch in "();:,[] \t'"):
        return "'" + label.replace("'", "''") + "'"
    return label


def to_newick(tree: ClusterTree) -> str:
    """Serialize with branch lengths equal to merge-height differences."""

    def render(node: ClusterNode) -> str:
        if node.is_leaf():
            return _newick_label(node.city)
        parts = []
        for child in (node.left, node.right):
            parts.append(f"{render(child)}:{node.height - child.height:.17g}")
        return "(" + ",".join(parts) + ")"

    return render(tree.root) + ";"


class _NewickParser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, what: str) -> ValueError:
        return ValueError(f"bad dendrogram at offset {self.pos}: {what}")

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def label(self) -> str:
        if self.peek() == "'":
            self.pos += 1
            out = []
            while True:
                if self.pos >= len(self.text):
                    raise self.error("unterminated quoted label")
                ch = self.text[self.pos]
                self.pos += 1
                if ch == "'":
                    if self.peek() == "'":
                        self.pos += 1
                        out.append("'")
                        continue
                    return "".join(out)
                out.append(ch)
        start = self.pos
        while self.peek() and self.peek() not in "();:,":
            self.pos += 1
        if start == self.pos:
            raise self.error("empty label")
        return self.text[start : self.pos]

    def number(self) -> float:
        start = self.pos
        while self.peek() and self.peek() not in "();,":
            self.pos += 1
        try:
            return float(self.text[start : self.pos])
        except ValueError:
            raise self.error("expected a branch length") from None

    def node(self) -> ClusterNode:
        if self.peek() != "(":
            return ClusterNode(height=0.0, city=self.label())
        self.take("(")
        left = self.node()
        self.take(":")
        left_len = self.number()
        self.take(",")
        right = self.node()
        self.take(":")
        right_len = self.number()
        self.take(")")
        h_left = left.height + left_len
        h_right = right.height + right_len
        if abs(h_left - h_right) > 1e-9 * max(1.0, abs(h_left)):
            raise self.error("subtree heights disagree; not an ultrametric tree")
        return ClusterNode(height=h_left, left=left, right=right)


def parse_newick(text: str) -> ClusterTree:
    """Inverse of to_newick for the constrained trees this package writes."""
    parser = _NewickParser(text.strip())
    root = parser.node()
    parser.take(";")
    if parser.pos != len(parser.text):
        raise parser.error("trailing characters")

    merges: list[Merge] = []

    def collect(node: ClusterNode) -> None:
        if node.is_leaf():
            return
        collect(node.left)
        collect(node.right)
        merges.append(
            Merge(
                left=frozenset(node.left.leaves()),
                right=frozenset(node.right.leaves()),
                height=node.height,
            )
        )

    collect(root)
    merges.sort(key=lambda m: (m.height, min(m.left | m.right)))
    return ClusterTree(root=root, merges=tuple(merges))
