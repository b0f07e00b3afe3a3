"""Threshold cells: the finite partition on which a tree ensemble is constant.

Every ordinal feature's declared interval is cut at the distinct thresholds the
bound ensemble actually tests, giving right-closed cells [lo, t1], (t1, t2], …,
(tk, hi]. Within a cell every split outcome — hence the whole score — is fixed,
so one representative point per cell makes exhaustive reasoning exact.
Representatives are cell midpoints, with half-unit offsets beyond the extreme
thresholds, clamped to the declared interval and nudged with ``nextafter`` so a
representative can never escape its cell even between adjacent floats.

Categorical and boolean features need no cutting: each declared value is its
own cell. ``CellSystem`` also compiles trees into a cell form (each test is
the bitmask of the cells it sends yes) used by both the exhaustive grid
evaluator here and the branch-and-bound engine in ffax.oracle, whose test
table by feature it builds in the same walk.
"""

import math
from bisect import bisect_left
from typing import Mapping, Sequence

import numpy as np

from .errors import CapacityError
from .model import (
    BOOLEAN,
    CATEGORICAL,
    ORDINAL,
    BooleanSplit,
    Instance,
    Leaf,
    MembershipSplit,
    ThresholdSplit,
    Tree,
    TreeEnsemble,
)

GRID_CAP = 10**7

# Compiled node forms: ("leaf", w, bit) | ("test", fid, mask, yes, no, yes_leaves,
# no_leaves) with yes iff bit ``cell`` of ``mask`` is set. An ordinal test
# "cell <= p" has mask (1 << (p + 1)) - 1, a membership test the OR of its value
# indices' bits, and a boolean test 0b10 (index 1 is True). A compiled tree's
# leaves are numbered in preorder, yes subtree first: leaf i has ``bit`` 1 << i,
# and a test's ``yes_leaves``/``no_leaves`` are the ORs of its subtrees' bits.
# The same walk builds what the oracle reads: ``tests`` maps each feature to
# ``(t, ((mask, yes_leaves, no_leaves), ...))`` for each tree ``t`` testing it, in
# tree order; ``blocks`` gives each tree's ``(offset, all its leaves)``, the offset
# the leaf count of the trees before it (the oracle's instance masks put all the
# leaves in one bit space); ``full`` is each feature's full-domain mask. Leaves
# stay numbered per tree, so the masks that key each tree's range memo stay small:
# numbered across the 25-tree interop model they reach 199 bits, and search slows.


def _ordinal_boundaries(lo: float, hi: float, thresholds) -> tuple[float, ...]:
    return tuple(sorted({float(t) for t in thresholds if lo <= t < hi}))


def _ordinal_reps(lo: float, hi: float, bounds: tuple[float, ...]) -> tuple[float, ...]:
    if not bounds:
        return (lo if lo == hi else (lo + hi) / 2.0,)
    reps = [max(lo, bounds[0] - 0.5)]
    for left, right in zip(bounds, bounds[1:]):
        mid = (left + right) / 2.0
        if mid <= left:  # adjacent floats: land strictly inside (left, right]
            mid = math.nextafter(left, right)
        reps.append(min(mid, right))
    reps.append(min(bounds[-1] + 0.5, hi))
    last = reps[-1]
    if last <= bounds[-1]:
        reps[-1] = math.nextafter(bounds[-1], hi) if hi > bounds[-1] else hi
    return tuple(reps)


class CellSystem:
    """Per-feature cell domains plus index-compiled trees for one ensemble."""

    def __init__(self, model: TreeEnsemble):
        self.model = model
        space = model.space
        self.kinds = tuple(f.kind for f in space.features)
        sizes: list[int] = []
        reps: list[tuple] = []
        self.boundaries: list[tuple[float, ...]] = []
        per_feature_thresholds: dict[int, set[float]] = {}
        for tree in model.trees:
            _collect_thresholds(tree.root, per_feature_thresholds)
        for spec in space.features:
            if spec.kind == CATEGORICAL:
                sizes.append(len(spec.values))
                reps.append(tuple(spec.values))
                self.boundaries.append(())
            elif spec.kind == BOOLEAN:
                sizes.append(2)
                reps.append((False, True))
                self.boundaries.append(())
            else:
                bounds = _ordinal_boundaries(
                    spec.lo, spec.hi, per_feature_thresholds.get(spec.fid, ())
                )
                self.boundaries.append(bounds)
                r = _ordinal_reps(spec.lo, spec.hi, bounds)
                sizes.append(len(r))
                reps.append(r)
        self.sizes = tuple(sizes)
        self.reps = tuple(reps)
        self._value_index = [
            {v: i for i, v in enumerate(spec.values)} if spec.kind == CATEGORICAL else None
            for spec in space.features
        ]
        self.full = tuple((1 << size) - 1 for size in self.sizes)
        trees, blocks, tests, offset = [], [], {}, 0
        for t, tree in enumerate(model.trees):
            count, found = [0], {}
            trees.append((tree.class_id, self._compile(tree.root, count, found)))
            blocks.append((offset, (1 << count[0]) - 1))
            offset += count[0]
            for fid, tree_tests in found.items():
                tests.setdefault(fid, []).append((t, tuple(tree_tests)))
        self.trees: tuple[tuple[int, tuple], ...] = tuple(trees)
        self.blocks = tuple(blocks)
        self.tests = {fid: tuple(per_tree) for fid, per_tree in tests.items()}

    # -- value <-> cell index --------------------------------------------

    def cell_of(self, fid: int, value) -> int:
        kind = self.kinds[fid]
        if kind == CATEGORICAL:
            return self._value_index[fid][value]
        if kind == BOOLEAN:
            return int(bool(value))
        return bisect_left(self.boundaries[fid], float(value))

    def cell_point(self, indices: Sequence[int]) -> tuple:
        return tuple(self.reps[fid][i] for fid, i in enumerate(indices))

    def instance_cells(self, point: Instance) -> tuple[int, ...]:
        return tuple(self.cell_of(fid, point.values[fid]) for fid in range(len(self.sizes)))

    def materialize(self, indices: Sequence[int], base: Instance, fixed) -> Instance:
        """Concrete point using ``base``'s exact values on the fixed features."""
        values = tuple(
            base.values[fid] if fid in fixed else self.reps[fid][indices[fid]]
            for fid in range(len(self.sizes))
        )
        return Instance(values=values)

    # -- tree compilation --------------------------------------------------

    def _compile(self, node, count: list[int], tests: dict):
        """The compiled form of ``node``; ``count[0]`` is the next leaf number,
        and each test kept is appended to ``tests[fid]`` after its subtrees'."""
        if isinstance(node, Leaf):
            count[0] += 1
            return ("leaf", node.weight, 1 << count[0] - 1)
        if isinstance(node, ThresholdSplit):
            spec = self.model.space[node.fid]
            t = node.threshold
            if t >= spec.hi:  # every domain value passes the test
                return self._compile(node.yes, count, tests)
            if t < spec.lo:  # no domain value passes
                return self._compile(node.no, count, tests)
            bounds = self.boundaries[node.fid]
            p = bisect_left(bounds, t)
            # In-range thresholds of the bound model are boundaries by
            # construction, so cells 0..p are exactly the values <= t.
            assert p < len(bounds) and bounds[p] == t
            mask = (1 << (p + 1)) - 1
        elif isinstance(node, MembershipSplit):
            index = self._value_index[node.fid]
            mask = 0
            for v in node.values:
                if v in index:
                    mask |= 1 << index[v]
            if not mask:
                return self._compile(node.no, count, tests)
            if mask == self.full[node.fid]:
                return self._compile(node.yes, count, tests)
        else:
            mask = 0b10
        start = count[0]
        yes = self._compile(node.yes, count, tests)
        middle = count[0]
        no = self._compile(node.no, count, tests)
        yes_leaves, no_leaves = (1 << middle) - (1 << start), (1 << count[0]) - (1 << middle)
        tests.setdefault(node.fid, []).append((mask, yes_leaves, no_leaves))
        return ("test", node.fid, mask, yes, no, yes_leaves, no_leaves)


def _collect_thresholds(node, acc: dict[int, set[float]]) -> None:
    if isinstance(node, Leaf):
        return
    if isinstance(node, ThresholdSplit):
        acc.setdefault(node.fid, set()).add(node.threshold)
    _collect_thresholds(node.yes, acc)
    _collect_thresholds(node.no, acc)


# --- exhaustive grid evaluation ----------------------------------------------


def grid_size(cells: CellSystem, free) -> int:
    size = 1
    for fid in free:
        size *= cells.sizes[fid]
    return size


def class_grid(cells: CellSystem, fixed: Mapping[int, int]) -> np.ndarray:
    """Predicted class for every cell combination of the non-fixed features.

    Returns an array with one axis per feature; fixed features contribute a
    length-1 axis pinned at the given cell index. Scores accumulate per class
    in tree-index order, so grid entries are bit-identical to ``evaluate`` at
    the corresponding representative points.
    """
    m = len(cells.sizes)
    free = [fid for fid in range(m) if fid not in fixed]
    size = grid_size(cells, free)
    if size > GRID_CAP:
        raise CapacityError(f"cell grid has {size} points (cap {GRID_CAP})", size=size)
    shape = tuple(1 if fid in fixed else cells.sizes[fid] for fid in range(m))
    axis_index = []
    for fid in range(m):
        ax = np.full(shape[fid], fixed[fid]) if fid in fixed else np.arange(shape[fid])
        axis_index.append(ax.reshape([-1 if d == fid else 1 for d in range(m)]))

    model = cells.model
    scores = [np.full(shape, b, dtype=np.float64) for b in model.base_score]
    full = np.ones(shape, dtype=bool)
    for class_id, root in cells.trees:
        _grid_add(root, full, scores[class_id], axis_index)
    if model.single_score:
        return (scores[1] >= 0.0).astype(np.int16)
    return np.argmax(np.stack(scores, axis=0), axis=0).astype(np.int16)


def _grid_add(node, reach: np.ndarray, score: np.ndarray, axis_index) -> None:
    if node[0] == "leaf":
        score[reach] += node[1]
        return
    _, fid, mask, yes, no, _, _ = node
    cond = np.isin(axis_index[fid], [i for i in range(mask.bit_length()) if mask >> i & 1])
    yes_mask = reach & cond
    if yes_mask.any():
        _grid_add(yes, yes_mask, score, axis_index)
    no_mask = reach & ~cond
    if no_mask.any():
        _grid_add(no, no_mask, score, axis_index)
