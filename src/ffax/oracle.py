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
target somewhere, so it is ordered for that question and not for the
optimum. It accepts the root if the root's floor reaches the target, and
answers "unreachable" at once if the root's bound cannot. Otherwise it pops
boxes by bound plus floor, highest first, and accepts a child as soon as it
is made if its floor reaches the target, before it would be pushed: every
point of that box reaches the target. It pushes no box whose bound cannot
reach the target, and answers "unreachable" when its heap empties. Every
"unreachable" is thus an exhaustive search and every accepted box a flip,
whatever the pop order; the order decides only which box is accepted.

Branching picks the free feature with the largest total bound gap (sum of
hi-lo over trees whose path is ambiguous because of it, in tree-index order),
the lowest feature id on a tie, and splits its current sub-domain at the
first ambiguous test on that feature, in tree order, then in preorder with
the yes branch first.

The search is incremental, over reachable leaves. ``CellSystem`` numbers
each compiled tree's leaves in preorder, yes subtree first, and gives each
test the leaf bits of its two subtrees. A leaf is reachable exactly when
every test on its path meets the box on its side (a yes side needs
``dom & mask``, a no side ``dom & ~mask``), a conjunction with one conjunct
per feature. At the root box no tree is walked. ``_TreeOracle`` lays the
leaves of all the model's trees out in one bit space, a block per tree, and
when it first sees an instance it makes one pass over the compiled tests: per
feature, the leaves some path test shuts out when the feature's domain is the
instance's cell (``at``), and when it is every other cell (``away``, the
one-sided slab below). Compilation drops every test that a full domain would
decide, so a free feature shuts out nothing, and the root's mask ``keep`` is
the complement of the OR of the fixed features' ``at`` masks (and the slab
feature's ``away`` mask); each tree reads its block of it. A child box
narrows only the split feature's domain, which only shrinks that feature's
conjunct, so the child's mask is the parent's ANDed with
``_admits(fid, dom)``: the leaves whose every path test on ``fid`` meets the
child's domain ``dom`` on its side, memoized per ``(fid, dom)``. The mask
also tells which reachable tests are ambiguous: those with reachable leaves
on both sides. A tree's ``(lo, hi, first splits)`` range is therefore a
function of its mask; it is memoized per tree, and a miss is one walk
restricted to the mask with the box walk's tie rules. The map sends each
feature with a reachable ambiguous test to the first such test node in the
tree's preorder, and the first tree in tree order that maps the split feature
names the split. Each heap entry carries its box's ranges with their masks,
and a child looks a range up only where its mask shrank. Bounds and gaps are
still summed over all trees in tree-index order, so they are bit-identical to
a full re-walk of every tree, and so are the pops and the result. The memos
live on the model's ``_TreeOracle`` and go with it.

A witness is materialized from the box that the threshold search accepts:
every feature whose instance cell lies in the box's domain keeps the
instance's exact value, fixed or free, and every other feature takes the
representative of its lowest cell in the box. This is exact: every point of
the box scores at least its floor. A witness that agrees with the instance on
a feature is what lets extraction decide a later trial that fixes the feature
without a call, and a box accepted before it is determined leaves more
features on the instance's cell. The instance's cells and shut-out masks are
computed once per instance (``_TreeOracle.instance_masks`` keeps the last
one's).

One-sided trials. A deletion trial of AXp extraction drops a feature ``f``
from a set ``C`` that forces the class, and asks whether fixing ``C - {f}``
admits a flip. A point whose ``f`` lies in the instance's cell is a point of
``box(C)``, which has none, so the trial names ``f`` as ``away`` and the
search runs only on the slab of ``box(C - {f})`` where ``f``'s domain is
every cell but the instance's. The verdict is the trial's, and so is every
call count; a feature with one cell gives an empty slab, hence "no flip"
without a search. The witness is read against the unsliced box: the slab
already moved ``f`` off the instance's cell, and read against the slab, an
unsplit ``f`` would keep the instance's value, a point outside the slab that
does not flip.

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
from .errors import CapabilityError, ContractError, ValidationError
from .model import (
    BOOLEAN,
    Instance,
    LinearModel,
    Model,
    TreeEnsemble,
    evaluate,
    validate_instance,
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
    """Maximize (base+sum of pos-class trees) - (base+sum of neg-class trees).

    ``trees`` lists the compiled roots in objective order, the ``n_pos``
    pos-class trees first, ``blocks`` each tree's ``(offset, all leaves)`` in
    the model's leaf space, ``memos`` each tree's range memo (reachable-leaf
    mask -> range, shared by every objective of the model), ``tests`` maps a
    feature to ``(t, its tests)`` for each tree ``t`` that tests it, in
    objective order, each test as ``(mask, yes leaves, no leaves)``, and
    ``admits`` memoizes ``_admits``.
    """

    __slots__ = (
        "neg", "n_pos", "trees", "pos_base", "neg_base", "blocks", "memos", "tests", "admits"
    )

    def __init__(self, cells: CellSystem, pos: int | None, neg: int | None, blocks, memos):
        model = cells.model
        self.neg = neg
        pos_order = [t for t, (cid, _) in enumerate(cells.trees) if cid == pos]
        order = pos_order + [t for t, (cid, _) in enumerate(cells.trees) if cid == neg]
        self.trees = tuple(cells.trees[t][1] for t in order)
        self.n_pos = len(pos_order)
        self.pos_base = model.base_score[pos] if pos is not None else 0.0
        self.neg_base = model.base_score[neg] if neg is not None else 0.0
        self.blocks = tuple(blocks[t] for t in order)
        self.memos = tuple(memos[t] for t in order)
        self.tests: dict[int, tuple] | None = None  # built by the first _admits
        self.admits: dict[tuple[int, int], tuple] = {}


def _tests_by_feature(trees) -> dict[int, tuple]:
    """Feature -> ``(t, its tests)`` per tree ``t`` that tests it, in order."""
    by_feature: dict[int, dict] = {}
    for t, root in enumerate(trees):
        stack = [root]
        while stack:
            node = stack.pop()
            if node[0] == "test":
                _, fid, mask, yes, no, yes_leaves, no_leaves = node
                by_feature.setdefault(fid, {}).setdefault(t, []).append(
                    (mask, yes_leaves, no_leaves)
                )
                stack += (yes, no)
    return {fid: tuple(per_tree.items()) for fid, per_tree in by_feature.items()}


_NO_SPLITS: dict = {}  # a leaf's first splits; shared, never mutated


def _leaf_range(node, reach: int):
    """(min leaf, max leaf, first splits) over the leaves in the mask ``reach``.

    ``reach`` must be the reachable leaves of some box. A test is ambiguous
    under that box exactly when both of its subtrees hold reachable leaves.
    The map sends each feature with a reachable ambiguous test to the first
    such node in preorder, yes branch before no. Decided tests are walked in
    a loop; only an ambiguous one recurses, into both branches.
    """
    while node[0] == "test":
        _, fid, _, yes, no, yes_leaves, no_leaves = node
        if not reach & no_leaves:
            node = yes
        elif not reach & yes_leaves:
            node = no
        else:
            lo_y, hi_y, first_y = _leaf_range(yes, reach)
            lo_n, hi_n, first_n = _leaf_range(no, reach)
            first = first_n | first_y  # a yes-side split comes before a no-side one
            first[fid] = node  # and this node before both
            # min and max, each keeping its first argument on a tie
            return lo_n if lo_n < lo_y else lo_y, hi_n if hi_n > hi_y else hi_y, first
    return node[1], node[1], _NO_SPLITS


def _range(obj: _Objective, t: int, reach: int):
    """Tree ``t``'s ``(lo, hi, first splits, reach)``, through its range memo."""
    memo = obj.memos[t]
    found = memo.get(reach)
    if found is None:
        found = memo[reach] = (*_leaf_range(obj.trees[t], reach), reach)
    return found


def _admits(obj: _Objective, fid: int, dom: int) -> tuple:
    """``(t, leaves)`` for each tree ``t`` where ``dom`` shuts out some leaf.

    ``leaves`` are the tree's leaves whose every path test on ``fid`` meets
    ``dom`` on its side: a yes side needs ``dom & mask``, a no side
    ``dom & ~mask``. A leaf is reachable under a box exactly when each test
    on its path meets the box on its side, so narrowing ``fid``'s domain to
    ``dom`` keeps a reachable leaf exactly when it is in ``leaves``. The mask
    is a negative int: it also sets every bit past the tree's last leaf.
    """
    if obj.tests is None:
        obj.tests = _tests_by_feature(obj.trees)
    admits = []
    for t, tests in obj.tests.get(fid, ()):
        leaves = -1  # every leaf
        for mask, yes_leaves, no_leaves in tests:
            inside = dom & mask
            if not inside:
                leaves &= ~yes_leaves
            elif inside == dom:
                leaves &= ~no_leaves
        if leaves != -1:
            admits.append((t, leaves))
    return tuple(admits)


def _bounds(obj: _Objective, ranges) -> tuple[float, float]:
    """Upper and lower bounds of the objective from per-tree ranges in objective order.

    The upper bound adds the positive trees' max leaves and the negative
    trees' min leaves, the lower bound the other extremes. Accumulation order
    matters: per-class sums are built in tree-index order, then subtracted,
    mirroring evaluate's exact float semantics.
    """
    n_pos = obj.n_pos
    pos_hi = pos_lo = obj.pos_base
    for lo, hi, _, _ in ranges[:n_pos]:
        pos_hi += hi
        pos_lo += lo
    if obj.neg is None:
        return pos_hi, pos_lo
    neg_lo = neg_hi = obj.neg_base
    for lo, hi, _, _ in ranges[n_pos:]:
        neg_lo += lo
        neg_hi += hi
    return pos_hi - neg_lo, pos_lo - neg_hi


def _split_box(box, node):
    """``box`` cut at the compiled test ``node``: the yes side, then the no side."""
    fid, mask = node[1], node[2]
    dom = box[fid]
    yes_box = list(box)
    no_box = list(box)
    yes_box[fid] = dom & mask
    no_box[fid] = dom & ~mask
    return tuple(yes_box), tuple(no_box)


def _maximize(
    obj: _Objective, box, keep: int, fail_below: float | None = None, strict: bool = False
):
    """Exact max of the objective and an optimal box.

    ``keep`` holds, in the model's leaf space, the leaves reachable under
    ``box`` (bits past them may be set): ``_TreeOracle.root`` builds both.

    With ``fail_below`` set, search for a box whose every point reaches the
    target (>= fail_below, or > with strict) instead, and return it with its
    floor: the root if its floor reaches the target, else the first child
    whose floor does, as soon as it is made. Boxes pop by bound plus floor,
    no box whose bound cannot reach the target is pushed, and an emptied
    heap gives (None, None).

    A heap entry carries its box's per-tree ranges, each with its mask of
    reachable leaves; a child ANDs a tree's mask with the leaves its split
    domain admits, and looks the range up by the new mask only if it shrank.
    """
    target = fail_below
    if strict and target is not None:  # x > t exactly when x >= the next float above t
        target = math.nextafter(target, math.inf)
    ranges = [_range(obj, t, keep >> off & leaves) for t, (off, leaves) in enumerate(obj.blocks)]
    bound, floor = _bounds(obj, ranges)
    order = -bound
    if target is not None:
        if floor >= target:
            return floor, box
        if bound < target:
            return None, None
        order -= floor  # a threshold search pops by bound plus floor
    heap = [(order, 0, box, ranges)]
    seq = 1
    admits_memo = obj.admits
    while heap:
        order, _, cur, ranges = heapq.heappop(heap)
        gaps: dict[int, float] = {}
        for lo, hi, first, _ in ranges:
            if first:
                gap = hi - lo
                for f in first:
                    gaps[f] = gaps.get(f, 0.0) + gap
        if not gaps:  # determined; a threshold search accepted it when it was made
            return -order, cur
        fid, best = -1, -1.0  # every gap is >= 0
        for f, gap in gaps.items():
            if gap > best or (gap == best and f < fid):
                fid, best = f, gap
        for _, _, first, _ in ranges:
            if fid in first:
                node = first[fid]
                break
        for child in _split_box(cur, node):
            key = (fid, child[fid])
            admits = admits_memo.get(key)
            if admits is None:
                admits = admits_memo[key] = _admits(obj, fid, child[fid])
            cranges = ranges.copy()
            for t, leaves in admits:
                reach = cranges[t][3]
                narrowed = reach & leaves
                if narrowed != reach:
                    cranges[t] = _range(obj, t, narrowed)
            cbound, cfloor = _bounds(obj, cranges)
            corder = -cbound
            if target is not None:
                if cfloor >= target:
                    return cfloor, child
                if cbound < target:
                    continue
                corder -= cfloor
            heapq.heappush(heap, (corder, seq, child, cranges))
            seq += 1
    if target is None:
        raise AssertionError("search exhausted without a determined box")
    return None, None


class _TreeOracle:
    """Per-model reusable state: cell system plus compiled objectives.

    The leaves of all the model's compiled trees share one bit space, each
    tree a block at an offset, in the order of ``cells.trees``; ``_shut``
    maps each feature to its tests there, ``(mask, yes leaves, no leaves)``.
    """

    def __init__(self, model: TreeEnsemble):
        self.model = model
        self.cells = CellSystem(model)
        self._objectives: dict[tuple, _Objective] = {}
        self._range_memos = tuple({} for _ in self.cells.trees)
        self._full = tuple((1 << size) - 1 for size in self.cells.sizes)
        blocks = []
        self._shut: dict[int, list] = {}
        offset = 0
        for _, root in self.cells.trees:
            leaves = root[2] if root[0] == "leaf" else root[5] | root[6]
            blocks.append((offset, leaves))
            stack = [root]
            while stack:
                node = stack.pop()
                if node[0] == "test":
                    _, fid, mask, yes, no, yes_leaves, no_leaves = node
                    self._shut.setdefault(fid, []).append(
                        (mask, yes_leaves << offset, no_leaves << offset)
                    )
                    stack += (yes, no)
            offset += leaves.bit_length()
        self._blocks = tuple(blocks)
        self._v_masks: tuple[Instance | None, tuple] = (None, ())

    def objective(self, pos: int | None, neg: int | None) -> _Objective:
        key = (pos, neg)
        if key not in self._objectives:
            self._objectives[key] = _Objective(
                self.cells, pos, neg, self._blocks, self._range_memos
            )
        return self._objectives[key]

    def instance_masks(self, v: Instance) -> tuple:
        """``(cells, at, away)`` of v, memoized for the last v.

        ``cells[fid]`` is ``1 << cell`` of v's cell. ``at[fid]`` holds the
        leaves, in the model's leaf space, that some path test on ``fid``
        shuts out when ``fid``'s domain is v's cell, and ``away[fid]`` those
        shut out when it is every other cell (the one-sided slab).
        """
        last, masks = self._v_masks
        if last is not v:
            cells = tuple(1 << cell for cell in self.cells.instance_cells(v))
            at = [0] * len(cells)
            away = [0] * len(cells)
            for fid, tests in self._shut.items():
                cell = cells[fid]
                slab = self._full[fid] ^ cell
                shut_at = shut_away = 0
                for mask, yes, no in tests:
                    shut_at |= no if cell & mask else yes
                    inside = slab & mask
                    if not inside:
                        shut_away |= yes
                    elif inside == slab:
                        shut_away |= no
                at[fid] = shut_at
                away[fid] = shut_away
            masks = (cells, at, away)
            self._v_masks = (v, masks)
        return masks

    def root(self, v: Instance, fixed, away: int | None = None) -> tuple[tuple, int]:
        """The box of a query and its ``keep`` mask of reachable leaves.

        Each fixed feature's domain is v's cell, each free one's all cells,
        as bitmasks. With ``away`` (a free feature) set, ``keep`` is the
        slab's, where ``away`` takes every cell but v's; the box is not
        sliced. A leaf is reachable exactly when no path test shuts it out,
        and a full domain shuts out none: compilation drops every test that
        a full domain would decide.
        """
        cells, at, slab = self.instance_masks(v)
        box = list(self._full)
        shut = 0 if away is None else slab[away]
        for fid in fixed:
            box[fid] = cells[fid]
            shut |= at[fid]
        return tuple(box), ~shut

    def find_class_change(
        self, v: Instance, c: int, fixed, away: int | None = None
    ) -> Instance | None:
        """A domain-valid x agreeing with v on ``fixed`` with class != c.

        x keeps v's exact value on every feature whose cell lies in the
        domain of the witness box, the box whose floor flips that the search
        accepts, fixed or free (see the module docstring). With ``away`` set,
        a free feature such that ``fixed | {away}`` forces c, only the slab
        where ``away`` leaves v's cell is searched (see "one-sided trials").
        """
        box, keep = self.root(v, fixed, away)
        search = box
        if away is not None:
            slab = box[away] & ~self.instance_masks(v)[0][away]
            if not slab:
                return None
            search = box[:away] + (slab,) + box[away + 1:]
        # (pos, neg, strict): a flip needs max(pos - neg) >= 0, or > 0 if strict
        if not self.model.single_score:  # ties go to the lower class id
            queries = [(rival, c, rival > c) for rival in range(self.model.k) if rival != c]
        elif c == 1:  # flip needs score < 0, i.e. max(-score) > 0
            queries = [(None, 1, True)]
        else:  # flip needs score >= 0
            queries = [(1, None, False)]
        for pos, neg, strict in queries:
            _, wbox = _maximize(self.objective(pos, neg), search, keep, 0.0, strict)
            if wbox is not None:
                return self._witness_point(v, box, wbox)
        return None

    def _witness_point(self, v: Instance, box, wbox) -> Instance:
        """A point of the box ``wbox``, searched from ``box``, like v.

        It keeps v's exact value on every feature whose domain holds v's cell
        and takes the representative of the domain's lowest cell elsewhere.
        Only a domain the search split can have lost v's cell: every other one
        still equals ``box``'s, a fixed feature's cell or a free feature's
        full domain.
        """
        masks = self.instance_masks(v)[0]
        reps = self.cells.reps
        values = list(v.values)
        for fid, dom in enumerate(wbox):
            if dom != box[fid] and not dom & masks[fid]:
                values[fid] = reps[fid][(dom & -dom).bit_length() - 1]
        return Instance(values=tuple(values))

    def score_bounds(self, v: Instance, fixed, pair: tuple[int, int] | None) -> ScoreBounds:
        if pair is None and not self.model.single_score:
            raise ContractError("multiclass ensembles need an explicit (rival, predicted) pair")
        plus, minus = pair or (1, None)
        box, keep = self.root(v, fixed)
        hi, _ = _maximize(self.objective(plus, minus), box, keep)
        neg_hi, _ = _maximize(self.objective(minus, plus), box, keep)
        return ScoreBounds(lo=-neg_hi, hi=hi)


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


def _check_predicted(model: Model, v: Instance, c: int | None = None) -> int:
    """The class ``model`` predicts for ``v``, which must be ``c`` if given.

    Refuses a model of another kind (``CapabilityError``) and a ``v`` outside
    the model's domain (``ValidationError``, from ``evaluate``).
    """
    if not isinstance(model, (TreeEnsemble, LinearModel)):
        raise CapabilityError(f"unsupported model kind {type(model).__name__}")
    actual = evaluate(model, v).class_id
    if c is not None and actual != c:
        raise ContractError(f"instance is predicted class {actual}, not {c}")
    return actual


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
    model: Model, v: Instance, c: int, fixed: frozenset[int], away: int | None = None
) -> Instance | None:
    """``find_counterexample`` by the features it fixes, on inputs already checked.

    ``away``, a free feature, may be given only when ``fixed | {away}`` forces
    ``c``: every flip then moves ``away`` out of v's cell, and a tree ensemble
    searches only there (see "one-sided trials" in the module docstring). A
    linear model ignores it.
    """
    if isinstance(model, LinearModel):
        return _linear_counterexample(model, v, c, fixed)
    return _tree_oracle(model).find_class_change(v, c, fixed, away)


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
    """Attained extrema of the score (or of s_plus - s_minus for ``pair``).

    The instance must be domain-valid, free features included: the oracle
    maps every feature of it to its cell.
    """
    oracle = _tree_oracle(model)
    violations = validate_instance(model.space, pa.instance)
    if violations:
        raise ValidationError(violations[0])
    return oracle.score_bounds(pa.instance, _check_features(model, pa.fixed), pair)


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
