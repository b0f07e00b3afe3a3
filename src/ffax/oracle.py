"""Exact sufficiency/counterexample decisions over the full feature space.

The tree-ensemble engine is a best-bound-first branch and bound over boxes of
threshold-cell sub-domains, each held as a bitmask of its cells. A compiled
test is the bitmask of the cells it sends yes, so a box decides a test when
its domain lies inside the mask or outside it; a tree walk steps through the
decided tests in a loop and recurses only at an ambiguous one. The relaxation
bound is the per-tree sum of the extreme reachable leaf under the current
box, accumulated per class in tree-index order and subtracted last; IEEE
addition and subtraction are monotone in each argument, so the bound
dominates the exactly-evaluated score of every completion with no epsilon
anywhere. The floor, summed the same way from each tree's other extreme, is
at most that score for the same reason. A box with no ambiguous split has a
single reachable leaf per tree, hence an exact value (its floor equals its
bound); in the search with no threshold, popped best-first, the first such
box is a global optimum.

A threshold search (a flip query) asks only whether the objective reaches a
target somewhere. It returns the first popped box whose floor reaches the
target, determined or not, since every point of that box does. It pushes no
box whose bound cannot reach the target, and answers "unreachable" when its
heap empties. The floor is tested when a box is popped, so the boxes it pops
are a prefix of those that a search down to a determined box pops.

Branching picks the free feature with the largest total bound gap (sum of
hi-lo over trees whose path is ambiguous because of it, in tree-index order),
the lowest feature id on a tie, and splits its current sub-domain at the
first ambiguous test on that feature, in tree order, then in preorder with
the yes branch first.

The search is incremental: each heap entry carries its box's per-tree
``(lo, hi, first splits)`` ranges, where the map sends each feature with a
reachable ambiguous test to the first such test node in the tree's preorder.
A child box re-walks only the trees whose parent range maps the split feature;
every other tree keeps its parent's range object. The reuse is exact. If no
reachable test of a tree on ``fid`` is ambiguous, each of them sends the whole
of ``fid``'s sub-domain one way, and so does any narrowing of it; the tree
reaches the same nodes in the child box, each ambiguous or not as before, so
its leaves, range and first splits are those of the parent. For the same
reason only the re-walked trees can hold the first ambiguous test on ``fid``,
and the first of them in tree order names it. Bounds and gaps are still summed
over all trees in tree-index order, so they are bit-identical to a full
re-walk, and so are the pops and the result.

A witness is materialized from the first popped box whose floor reaches the
target: every feature whose instance cell lies in the box's domain keeps the
instance's exact value, fixed or free, and every other feature takes the
representative of its lowest cell in the box. This is exact: every point of
the box scores at least its floor. A witness that agrees with the instance on
a feature is what lets extraction decide a later trial that fixes the feature
without a call, and a box accepted before it is determined leaves more
features on the instance's cell.

Class change is decided per the model's tie rule: for a single-score binary
model with prediction 1 the query is min score < 0, with prediction 0 it is
max score >= 0; for multiclass it is a disjunction over rival classes c' of
max(score_c' - score_c) reaching 0, strictly when c' > c.

``brute_force_decide`` answers the same questions by enumerating the cell grid
(exact because the score is constant per cell) and serves as the check of the
search. It is not independent of compilation: ``class_grid`` walks the same
compiled trees (``CellSystem.trees``) over the same cell partition. Witnesses
are re-checked with ``evaluate`` on the model's own trees, and the tests
compare ``class_grid`` with ``evaluate`` at every cell's representative.
"""

import heapq
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .cells import CellSystem, class_grid
from .errors import CapabilityError, ContractError
from .model import (
    BOOLEAN,
    Instance,
    LinearModel,
    Model,
    TreeEnsemble,
    evaluate,
)


@dataclass(frozen=True)
class PartialAssignment:
    """Features in ``fixed`` are pinned to the instance's values; the rest
    range over their full declared domains (sub-domains during search are
    engine-internal)."""

    instance: Instance
    fixed: frozenset[int]


@dataclass(frozen=True)
class ScoreBounds:
    """Attained extrema of a class-score expression over all completions."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ContractError(f"bounds crossed: [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class SufficiencyResult:
    sufficient: bool
    witness: Instance | None = None


class _Objective:
    """Maximize (base+sum of pos-class trees) - (base+sum of neg-class trees)."""

    __slots__ = ("pos", "neg", "pos_trees", "neg_trees", "trees", "pos_base", "neg_base")

    def __init__(self, cells: CellSystem, pos: int | None, neg: int | None):
        model = cells.model
        self.pos, self.neg = pos, neg
        self.pos_trees = tuple(r for cid, r in cells.trees if cid == pos)
        self.neg_trees = tuple(r for cid, r in cells.trees if cid == neg)
        self.trees = self.pos_trees + self.neg_trees
        self.pos_base = model.base_score[pos] if pos is not None else 0.0
        self.neg_base = model.base_score[neg] if neg is not None else 0.0


_NO_SPLITS: dict = {}  # a leaf's first splits; shared, never mutated


def _tree_range(node, box):
    """(min leaf, max leaf, first splits) reachable under box.

    The map sends each feature with a reachable ambiguous test to the first
    such node in preorder, yes branch before no. Decided tests are walked in
    a loop; only an ambiguous one recurses, into both branches.
    """
    while node[0] == "test":
        _, fid, mask, yes, no = node
        dom = box[fid]
        inside = dom & mask
        if inside == dom:
            node = yes
        elif not inside:
            node = no
        else:
            lo_y, hi_y, first_y = _tree_range(yes, box)
            lo_n, hi_n, first_n = _tree_range(no, box)
            first = first_n | first_y  # a yes-side split comes before a no-side one
            first[fid] = node  # and this node before both
            # min and max, each keeping its first argument on a tie
            return lo_n if lo_n < lo_y else lo_y, hi_n if hi_n > hi_y else hi_y, first
    return node[1], node[1], _NO_SPLITS


def _bounds(obj: _Objective, ranges) -> tuple[float, float]:
    """Upper and lower bounds of the objective from per-tree ranges in objective order.

    The upper bound adds the positive trees' max leaves and the negative
    trees' min leaves, the lower bound the other extremes. Accumulation order
    matters: per-class sums are built in tree-index order, then subtracted,
    mirroring evaluate's exact float semantics.
    """
    n_pos = len(obj.pos_trees)
    pos_hi = pos_lo = obj.pos_base
    for lo, hi, _ in ranges[:n_pos]:
        pos_hi += hi
        pos_lo += lo
    if obj.neg is None:
        return pos_hi, pos_lo
    neg_lo = neg_hi = obj.neg_base
    for lo, hi, _ in ranges[n_pos:]:
        neg_lo += lo
        neg_hi += hi
    return pos_hi - neg_lo, pos_lo - neg_hi


def _split_box(box, node):
    """``box`` cut at the compiled test ``node``: the yes side, then the no side."""
    _, fid, mask, _, _ = node
    dom = box[fid]
    yes_box = list(box)
    no_box = list(box)
    yes_box[fid] = dom & mask
    no_box[fid] = dom & ~mask
    return tuple(yes_box), tuple(no_box)


def _maximize(obj: _Objective, box, fail_below: float | None = None, strict: bool = False):
    """Exact max of the objective and an optimal box.

    With ``fail_below`` set, search for a box whose every point reaches the
    target (>= fail_below, or > with strict) instead: no box whose bound
    cannot reach the target is pushed, the first popped box whose floor
    reaches it is returned with that floor, and an emptied heap gives
    (None, None).

    A heap entry carries its box's per-tree ranges; a child re-walks only the
    trees whose parent range maps the split feature, and the first of them
    gives the split.
    """
    target = fail_below
    if strict and target is not None:  # x > t exactly when x >= the next float above t
        target = math.nextafter(target, math.inf)
    ranges = [_tree_range(root, box) for root in obj.trees]
    bound, floor = _bounds(obj, ranges)
    heap = [(-bound, 0, box, ranges, floor)] if target is None or bound >= target else []
    seq = 1
    while heap:
        nbound, _, cur, ranges, floor = heapq.heappop(heap)
        if target is not None and floor >= target:
            return floor, cur
        gaps: dict[int, float] = {}
        for lo, hi, first in ranges:
            if first:
                gap = hi - lo
                for f in first:
                    gaps[f] = gaps.get(f, 0.0) + gap
        if not gaps:  # determined; a threshold search has returned it already
            return -nbound, cur
        fid, best = -1, -1.0  # every gap is >= 0
        for f, gap in gaps.items():
            if gap > best or (gap == best and f < fid):
                fid, best = f, gap
        touched = [t for t, r in enumerate(ranges) if fid in r[2]]
        for child in _split_box(cur, ranges[touched[0]][2][fid]):
            cranges = ranges.copy()
            for t in touched:
                cranges[t] = _tree_range(obj.trees[t], child)
            cbound, cfloor = _bounds(obj, cranges)
            if target is None or cbound >= target:
                heapq.heappush(heap, (-cbound, seq, child, cranges, cfloor))
                seq += 1
    if target is None:
        raise AssertionError("search exhausted without a determined box")
    return None, None


class _TreeOracle:
    """Per-model reusable state: cell system plus compiled objectives."""

    def __init__(self, model: TreeEnsemble):
        self.model = model
        self.cells = CellSystem(model)
        self._objectives: dict[tuple, _Objective] = {}

    def objective(self, pos: int | None, neg: int | None) -> _Objective:
        key = (pos, neg)
        if key not in self._objectives:
            self._objectives[key] = _Objective(self.cells, pos, neg)
        return self._objectives[key]

    def box_for(self, v: Instance, fixed) -> tuple:
        """Each fixed feature's domain is v's cell, each free one's all cells, as bitmasks."""
        cells = self.cells
        return tuple(
            1 << cells.cell_of(fid, v.values[fid]) if fid in fixed else (1 << size) - 1
            for fid, size in enumerate(cells.sizes)
        )

    def find_class_change(self, v: Instance, c: int, fixed) -> Instance | None:
        """A domain-valid x agreeing with v on ``fixed`` with class != c.

        x keeps v's exact value on every feature whose cell lies in the
        domain of the witness box, the first popped box whose floor flips,
        fixed or free (see the module docstring).
        """
        box = self.box_for(v, fixed)
        # (pos, neg, strict): a flip needs max(pos - neg) >= 0, or > 0 if strict
        if not self.model.single_score:  # ties go to the lower class id
            queries = [(rival, c, rival > c) for rival in range(self.model.k) if rival != c]
        elif c == 1:  # flip needs score < 0, i.e. max(-score) > 0
            queries = [(None, 1, True)]
        else:  # flip needs score >= 0
            queries = [(1, None, False)]
        for pos, neg, strict in queries:
            _, wbox = _maximize(self.objective(pos, neg), box, fail_below=0.0, strict=strict)
            if wbox is not None:
                return _witness_point(self.cells, v, box, wbox)
        return None

    def score_bounds(self, box, pair: tuple[int, int] | None) -> ScoreBounds:
        if pair is None and not self.model.single_score:
            raise ContractError("multiclass ensembles need an explicit (rival, predicted) pair")
        plus, minus = pair or (1, None)
        hi, _ = _maximize(self.objective(plus, minus), box)
        neg_hi, _ = _maximize(self.objective(minus, plus), box)
        return ScoreBounds(lo=-neg_hi, hi=hi)


def _witness_point(cells: CellSystem, v: Instance, box, wbox) -> Instance:
    """A point of the box ``wbox``, searched from ``box``, like v.

    It keeps v's exact value on every feature whose domain holds v's cell and
    takes the representative of the domain's lowest cell elsewhere. Only a
    domain the search split can have lost v's cell: every other one still
    equals ``box``'s, a fixed feature's cell or a free feature's full domain.
    """
    values = list(v.values)
    for fid, dom in enumerate(wbox):
        if dom != box[fid]:
            cell = cells.cell_of(fid, values[fid])
            if not dom >> cell & 1:
                values[fid] = cells.reps[fid][(dom & -dom).bit_length() - 1]
    return Instance(values=tuple(values))


_last_oracle: _TreeOracle | None = None  # the last model's, so one compiled model at most


def _tree_oracle(model: Model) -> _TreeOracle:
    """The compiled oracle of ``model``; CapabilityError unless it is a tree ensemble."""
    global _last_oracle
    if _last_oracle is None or _last_oracle.model is not model:
        if not isinstance(model, TreeEnsemble):
            raise CapabilityError(f"tree ensembles only, not {type(model).__name__}")
        _last_oracle = _TreeOracle(model)
    return _last_oracle


# --- linear models ------------------------------------------------------------


def _linear_extreme(model: LinearModel, v: Instance, fixed, want_max: bool) -> tuple[float, list]:
    """Extreme score over completions, with the achieving point's values.

    Each free feature takes its extreme endpoint, and the point is scored by
    ``model.score``, the very sum that evaluate() makes there.
    """
    values = []
    for fid, spec in enumerate(model.space.features):
        if fid in fixed:
            values.append(v.values[fid])
            continue
        w = model.weights[fid]
        lo, hi = (0.0, 1.0) if spec.kind == BOOLEAN else (spec.lo, spec.hi)
        lo_c, hi_c = w * lo, w * hi
        pick_hi = hi_c > lo_c if want_max else hi_c < lo_c
        x = hi if pick_hi else lo
        values.append(bool(x) if spec.kind == BOOLEAN else x)
    return model.score(values), values


def _linear_counterexample(model: LinearModel, v: Instance, c: int, fixed) -> Instance | None:
    """Closed form: each free feature takes its adversarial endpoint."""
    worst, point = _linear_extreme(model, v, fixed, want_max=c != 1)
    flips = worst < 0.0 if c == 1 else worst >= 0.0
    return Instance(values=tuple(point)) if flips else None


def decide_sufficiency_linear(
    model: LinearModel, v: Instance, c: int, subset: Iterable[int]
) -> SufficiencyResult:
    """``decide_sufficiency`` for a model that must be a LinearModel."""
    if not isinstance(model, LinearModel):
        raise CapabilityError("decide_sufficiency_linear needs a LinearModel")
    return decide_sufficiency(model, v, c, subset)


# --- public operations ---------------------------------------------------------


def _check_predicted(model: Model, v: Instance, c: int) -> None:
    if not isinstance(model, (TreeEnsemble, LinearModel)):
        raise CapabilityError(f"unsupported model kind {type(model).__name__}")
    actual = evaluate(model, v).class_id
    if actual != c:
        raise ContractError(f"instance is predicted class {actual}, not {c}")


def _check_features(model: Model, fids: Iterable[int]) -> frozenset[int]:
    """``fids`` as a set, after checking each is a feature id of ``model``."""
    fids = frozenset(fids)
    outside = fids - model.space.all_features()
    if outside:
        raise ContractError(
            f"feature ids {sorted(outside, key=str)} outside feature universe "
            f"0..{model.space.m - 1}"
        )
    return fids


def find_counterexample(
    model: Model, v: Instance, c: int, free: Iterable[int]
) -> Instance | None:
    """Witness x agreeing with v outside ``free`` with a different class, or None.

    For a tree ensemble, x also keeps v's exact value on every free feature
    where the flip it found does not need another cell (see the module
    docstring).
    """
    _check_predicted(model, v, c)
    fixed = model.space.all_features() - _check_features(model, free)
    return _find_counterexample_unchecked(model, v, c, fixed)


def _find_counterexample_unchecked(
    model: Model, v: Instance, c: int, fixed: frozenset[int]
) -> Instance | None:
    """``find_counterexample`` by the features it fixes, on inputs already checked."""
    if isinstance(model, LinearModel):
        return _linear_counterexample(model, v, c, fixed)
    return _tree_oracle(model).find_class_change(v, c, fixed)


def decide_sufficiency(
    model: Model, v: Instance, c: int, subset: Iterable[int]
) -> SufficiencyResult:
    """Does fixing ``subset`` to v's values force class c over the whole space?"""
    _check_predicted(model, v, c)
    witness = _find_counterexample_unchecked(model, v, c, _check_features(model, subset))
    return SufficiencyResult(sufficient=witness is None, witness=witness)


def score_bounds(
    model: TreeEnsemble, pa: PartialAssignment, pair: tuple[int, int] | None = None
) -> ScoreBounds:
    """Attained extrema of the score (or of s_plus - s_minus for ``pair``)."""
    oracle = _tree_oracle(model)
    box = oracle.box_for(pa.instance, _check_features(model, pa.fixed))
    return oracle.score_bounds(box, pair)


def brute_force_decide(
    model: TreeEnsemble, v: Instance, c: int, subset: Iterable[int]
) -> SufficiencyResult:
    """Decide sufficiency by enumerating the cell grid of the free features.

    Exact for tree ensembles (the score is constant per cell); refuses grids
    over 10^7 points and non-tree models.
    """
    cells = _tree_oracle(model).cells
    _check_predicted(model, v, c)
    fixed = _check_features(model, subset)
    fixed_cells = {fid: cells.cell_of(fid, v.values[fid]) for fid in fixed}
    classes = class_grid(cells, fixed_cells)
    bad = classes != c
    if not bad.any():
        return SufficiencyResult(sufficient=True)
    first = np.unravel_index(int(np.argmax(bad)), bad.shape)
    indices = [
        fixed_cells[fid] if fid in fixed_cells else int(first[fid])
        for fid in range(model.space.m)
    ]
    witness = cells.materialize(indices, v, fixed)
    return SufficiencyResult(sufficient=False, witness=witness)
