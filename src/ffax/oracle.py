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
per feature. So the leaves that feature ``fid``'s domain ``dom`` shuts out
depend on ``(fid, dom)`` alone: ``_shut_out`` reads them, per tree, from
``CellSystem.tests``, the table of the compiled tests by feature that the
compile walk builds, memoized per model. The instance masks and every child
box of every objective read that one table. At the root box no tree is
walked: the leaves of all the model's trees share one bit space, a block per
tree at its ``CellSystem.blocks`` offset, and per instance the oracle
records each feature's shut-out leaves at the instance's cell (``at``) and
on every other cell (``away``, the one-sided slab below). The numbering
stays per tree, so each tree's range memo is keyed on a small mask.
Compilation drops every test that a full domain would decide, so a free
feature shuts out nothing, and the root's mask ``keep`` is the complement of
the OR of the fixed features' ``at`` masks (a one-sided slab also drops its
feature's ``away`` mask). A child box narrows only the split feature's
domain, so a tree's child mask is its parent's less what the new domain
shuts out. The mask also tells which reachable tests are ambiguous: those
with reachable leaves on both sides. A tree's ``(lo, hi, first splits)``
range is therefore a function of its mask; it is memoized per tree, and a
miss is one walk restricted to the mask with the box walk's tie rules. The
map sends each feature with a reachable ambiguous test to the first such
test node in the tree's preorder, and the first tree in tree order that maps
the split feature names the split. Each heap entry carries its box's ranges
with their masks, and a child looks a range up only where its mask shrank.
Bounds and gaps are still summed over all trees in tree-index order, so they
are bit-identical to a full re-walk of every tree, and so are the pops and
the result. The memos live on the model's ``_TreeOracle`` and go with it.

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
``box(C)``, which has none, so the trial names ``f`` as ``away`` and the box
it searches is the slab of ``box(C - {f})`` where ``f``'s domain is every
cell but the instance's. Before it searches a flip query, the trial checks
whether the query's slab is dominated. The twin of a slab point has ``f``
moved back to the instance's cell; it lies in ``box(C)``, so it does not
flip. Let ``keep`` be the root mask of ``C - {f}``, ``loose`` the slab's
reachable leaves (``keep`` less the slab's ``away`` mask) and ``tight``
those of ``box(C)`` (``keep`` less ``at[f]``). At a test on ``f`` the
instance's cell takes one side and every other cell the other, since
compilation drops a test that a full domain decides. A slab point and its
twin take the same path in a tree until its first test on ``f``; if they
part there, the point's leaf is one of the other side's leaves in ``loose``
and the twin's one of the instance's side's leaves in ``tight``. The slab is
dominated when, at every test on ``f`` of every tree of the query, the best
of the first leaves is no better for the query than the worst of the
second. Then each slab point scores, tree by tree, no better than its twin;
IEEE addition and subtraction are monotone in each argument, so the
per-class sums in tree-index order keep that order, as they keep the
bound's, and the query has no flip and is not searched. The leaf extremes
are read through the range memos: a range is a function of its mask, so a
mask that is no box's is memoized as safely as a box's. The rule's first
line is the one that came before it: when ``loose & ~tight`` is empty, as
it is when ``at[f] & keep`` is, no leaf past a test on ``f`` that the cells
take apart is reachable from the slab, and no query is searched. A feature
with one cell has no compiled test, so its ``at`` mask is 0 and its (empty)
slab is never searched. The oracle keeps no counterexample: the enumeration
session (``enumeration._Session``) keeps those of its one-sided trials and
answers a later trial from them before it asks the oracle (model rotation,
after Belov and Marques-Silva's MUS extraction), and a one-shot extraction
keeps none.

Class change is decided per the model's tie rule: for a single-score binary
model with prediction 1 the query is min score < 0, with prediction 0 it is
max score >= 0; for multiclass it is a disjunction over rival classes c' of
max(score_c' - score_c) reaching 0, strictly when c' > c. Each is one flip
query ``(pos, neg, target)``, max(score_pos - score_neg) >= target, whose
target is 0.0 or, for a strict one, the float above it (x > 0 exactly when
x >= that float).

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
    pos-class trees first, ``blocks`` their ``cells.blocks``, ``memos`` each
    tree's range memo (reachable-leaf mask -> range), and ``slots`` maps a
    model tree to its position in objective order, or None if the objective
    leaves it out. ``tests`` is ``cells.tests`` and ``shut`` the model's
    ``_shut_out`` memo. The memos are shared by every objective of the model,
    and no objective refers back to the model's ``_TreeOracle``.
    """

    __slots__ = (
        "neg", "n_pos", "trees", "pos_base", "neg_base", "blocks", "memos", "slots", "tests",
        "shut",
    )

    def __init__(self, cells: CellSystem, pos: int | None, neg: int | None, memos, shut):
        model = cells.model
        self.neg = neg
        pos_order = [t for t, (cid, _) in enumerate(cells.trees) if cid == pos]
        order = pos_order + [t for t, (cid, _) in enumerate(cells.trees) if cid == neg]
        self.trees = tuple(cells.trees[t][1] for t in order)
        self.n_pos = len(pos_order)
        self.pos_base = model.base_score[pos] if pos is not None else 0.0
        self.neg_base = model.base_score[neg] if neg is not None else 0.0
        self.blocks = tuple(cells.blocks[t] for t in order)
        self.memos = tuple(memos[t] for t in order)
        position = {t: i for i, t in enumerate(order)}
        self.slots = tuple(position.get(t) for t in range(len(cells.trees)))
        self.tests = cells.tests
        self.shut = shut


def _shut_out(tests, memo, fid: int, dom: int) -> tuple:
    """``(t, leaves)`` for each model tree ``t`` where ``dom`` shuts out some leaf.

    ``tests`` is a model's test table (``CellSystem.tests``) and ``memo`` a dict
    keyed on ``(fid, dom)``. ``leaves`` are the tree's leaves, in its own
    numbering, that some path test on ``fid`` shuts out when ``fid``'s domain
    is ``dom``: a test shuts out its yes side when ``dom`` misses its mask,
    and its no side when ``dom`` lies inside it. A leaf is reachable under a
    box exactly when no test on its path shuts it out, so narrowing ``fid``'s
    domain to ``dom`` keeps a reachable leaf exactly when it is not in
    ``leaves``.
    """
    key = (fid, dom)
    found = memo.get(key)
    if found is None:
        found = []
        for t, tree_tests in tests.get(fid, ()):
            shut = 0
            for mask, yes_leaves, no_leaves in tree_tests:
                inside = dom & mask
                if not inside:
                    shut |= yes_leaves
                elif inside == dom:
                    shut |= no_leaves
            if shut:
                found.append((t, shut))
        found = memo[key] = tuple(found)
    return found


_NO_SPLITS: dict = {}  # a leaf's first splits; shared, never mutated
_ABOVE_ZERO = math.nextafter(0.0, math.inf)  # x > 0 exactly when x >= this


def _leaf_range(node, reach: int):
    """(min leaf, max leaf, first splits) over the leaves in the mask ``reach``.

    ``reach`` must hold a leaf. The walk enters only subtrees that hold a
    leaf of ``reach``, so the extremes are right for any such set; the
    dominance rule of one-sided trials reads them for sets that are no box's.
    When ``reach`` is the reachable leaves of a box, a test is ambiguous under
    the box exactly when both of its subtrees hold reachable leaves, and the
    map sends each feature with a reachable ambiguous test to the first such
    node in preorder, yes branch before no. Decided tests are walked in a
    loop; only an ambiguous one recurses, into both branches.
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


def _maximize(obj: _Objective, box, keep: int, target: float | None = None):
    """Exact max of the objective and an optimal box.

    ``keep`` holds, in the model's leaf space, the leaves reachable under
    ``box`` (bits past them may be set): ``_TreeOracle.root`` builds both.

    With ``target`` set, search for a box whose every point reaches it (>=
    target) instead, and return it with its floor: the root if its floor
    reaches the target, else the first child whose floor does, as soon as it
    is made. Boxes pop by bound plus floor, no box whose bound cannot reach
    the target is pushed, and an emptied heap gives (None, None).

    A heap entry carries its box's per-tree ranges, each with its mask of
    reachable leaves; a child clears from a tree's mask the leaves that its
    split domain shuts out (``_shut_out``), and looks the range up by the new
    mask only if it shrank.
    """
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
    tests, shut_memo, slots = obj.tests, obj.shut, obj.slots
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
            cranges = ranges.copy()
            for t, shut in _shut_out(tests, shut_memo, fid, child[fid]):
                i = slots[t]
                if i is not None:
                    reach = cranges[i][3]
                    if reach & shut:
                        cranges[i] = _range(obj, i, reach & ~shut)
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
    """Per-model reusable state: the compiled ``cells`` and the memos of its queries.

    The test table, the leaf blocks and the full domains come from ``cells``.
    The oracle keeps the objectives, each tree's range memo, ``_shut`` (the
    ``_shut_out`` memo on ``(fid, dom)`` that the instance masks and the child
    boxes of every objective share) and the last instance's masks. It keeps
    no counterexample: the enumeration session does (``enumeration._Session``).
    """

    def __init__(self, model: TreeEnsemble):
        self.model = model
        self.cells = CellSystem(model)
        self._objectives: dict[tuple, _Objective] = {}
        self._range_memos = tuple({} for _ in self.cells.trees)
        self._shut: dict[tuple[int, int], tuple] = {}
        self._v_masks: tuple[Instance | None, tuple] = (None, ())

    def objective(self, pos: int | None, neg: int | None) -> _Objective:
        key = (pos, neg)
        if key not in self._objectives:
            self._objectives[key] = _Objective(self.cells, pos, neg, self._range_memos, self._shut)
        return self._objectives[key]

    def instance_masks(self, v: Instance) -> tuple:
        """``(cells, at, away)`` of v, memoized for the last v.

        ``cells[fid]`` is ``1 << cell`` of v's cell. ``at[fid]`` holds the
        leaves, in the model's leaf space, that some path test on ``fid``
        shuts out when ``fid``'s domain is v's cell, and ``away[fid]`` those
        shut out when it is every other cell (the one-sided slab): each is
        ``_shut_out``'s tree masks, shifted to their blocks.
        """
        last, masks = self._v_masks
        if last is not v:
            compiled = self.cells
            cells = tuple(1 << cell for cell in compiled.instance_cells(v))
            at = [0] * len(cells)
            away = [0] * len(cells)
            for fid in compiled.tests:
                cell = cells[fid]
                for side, dom in ((at, cell), (away, compiled.full[fid] ^ cell)):
                    for t, leaves in _shut_out(compiled.tests, self._shut, fid, dom):
                        side[fid] |= leaves << compiled.blocks[t][0]
            masks = (cells, at, away)
            self._v_masks = (v, masks)
        return masks

    def root(self, v: Instance, fixed) -> tuple[tuple, int]:
        """The box of a query and its ``keep`` mask of reachable leaves.

        Each fixed feature's domain is v's cell, each free one's all cells,
        as bitmasks. A leaf is reachable exactly when no path test shuts it
        out, and a full domain shuts out none: compilation drops every test
        that a full domain would decide.
        """
        cells, at, _ = self.instance_masks(v)
        box = list(self.cells.full)
        shut = 0
        for fid in fixed:
            box[fid] = cells[fid]
            shut |= at[fid]
        return tuple(box), ~shut

    def find_class_change(
        self, v: Instance, c: int, fixed, away: int | None = None
    ) -> Instance | None:
        """A domain-valid x agreeing with v on ``fixed`` with class != c.

        Each flip query is ``(pos, neg, target)``: some point where
        ``pos - neg`` reaches ``target``, 0.0 or, where the tie rule makes the
        flip strict, ``_ABOVE_ZERO``. x keeps v's exact value on every feature
        whose cell lies in the domain of the witness box, the box whose floor
        flips that the search accepts, fixed or free (see the module
        docstring). With ``away`` set, a free feature such that ``fixed |
        {away}`` forces c, the box searched is the slab where ``away`` leaves
        v's cell, and a query whose slab is dominated (``_dominated``) is not
        searched (see "one-sided trials"). Nothing is kept: the enumeration
        session keeps the counterexamples of its one-sided trials, and a
        one-shot extraction keeps none.
        """
        box, keep = self.root(v, fixed)
        if away is not None:
            cells, at, slab = self.instance_masks(v)
            cell, tight = cells[away], keep & ~at[away]  # tight: the forcing box's leaves
            keep &= ~slab[away]
            box = box[:away] + (box[away] & ~cell,) + box[away + 1:]
        if not self.model.single_score:  # ties go to the lower class id
            queries = [(rival, c, _ABOVE_ZERO if rival > c else 0.0)
                       for rival in range(self.model.k) if rival != c]
        elif c == 1:  # flip needs score < 0, i.e. -score > 0
            queries = [(None, 1, _ABOVE_ZERO)]
        else:  # flip needs score >= 0
            queries = [(1, None, 0.0)]
        for pos, neg, target in queries:
            obj = self.objective(pos, neg)
            if away is not None and self._dominated(obj, away, cell, keep, tight):
                continue
            _, wbox = _maximize(obj, box, keep, target)
            if wbox is not None:
                return self._witness_point(v, wbox)
        return None

    def _dominated(self, obj: _Objective, away: int, cell: int, loose: int, tight: int) -> bool:
        """Does every slab point score, tree by tree, no better for ``obj`` than its twin?

        ``cell`` is v's cell of ``away`` as a bitmask, ``loose`` the slab's
        reachable leaves and ``tight`` the forcing box's; the twin of a slab
        point has ``away`` back in v's cell (see "one-sided trials" in the
        module docstring).
        """
        apart = loose & ~tight  # the slab's leaves that fixing away shuts out
        if not apart:  # no test on away tells a slab point from its twin
            return True
        blocks, slots, n_pos = self.cells.blocks, obj.slots, obj.n_pos
        for t, tree_tests in self.cells.tests[away]:
            off, leaves = blocks[t]
            if not apart >> off & leaves:
                continue
            i = slots[t]
            if i is None:
                continue
            moved, kept, memo = loose >> off & leaves, tight >> off & leaves, obj.memos[i]
            for mask, yes_leaves, no_leaves in tree_tests:
                if cell & mask:  # v's cell goes yes: a slab point that parts goes no
                    there, here = moved & no_leaves, kept & yes_leaves
                else:
                    there, here = moved & yes_leaves, kept & no_leaves
                if there and here:
                    # a memo hit, the common case, makes no call
                    lo_there, hi_there = (memo.get(there) or _range(obj, i, there))[:2]
                    lo_here, hi_here = (memo.get(here) or _range(obj, i, here))[:2]
                    if hi_there > lo_here if i < n_pos else lo_there < hi_here:
                        return False
        return True

    def _witness_point(self, v: Instance, wbox) -> Instance:
        """A point of the box ``wbox`` like v.

        It keeps v's exact value on every feature whose domain holds v's cell
        and takes the representative of the domain's lowest cell elsewhere. A
        domain the search left unsplit holds v's cell, a fixed feature's cell
        or a free feature's full domain, unless it is a slab's.
        """
        masks = self.instance_masks(v)[0]
        reps = self.cells.reps
        values = list(v.values)
        for fid, dom in enumerate(wbox):
            if not dom & masks[fid]:
                values[fid] = reps[fid][(dom & -dom).bit_length() - 1]
        return Instance(values=tuple(values))

    def max_margin(self, v: Instance, fixed, plus: int | None, minus: int | None) -> float:
        """Attained max of ``score_plus - score_minus`` over the completions of v on ``fixed``.

        A class of None contributes no score. One search with no threshold;
        ``score_bounds`` takes its lower bound as ``-max_margin`` with the
        classes swapped.
        """
        box, keep = self.root(v, fixed)
        hi, _ = _maximize(self.objective(plus, minus), box, keep)
        return hi


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


def _linear_counterexample(model: LinearModel, v: Instance, c: int, fixed) -> Instance | None:
    """Closed form: each free feature takes its adversarial endpoint.

    Class 1 needs the min score (< 0 flips), class 0 the max (>= 0 flips);
    the point is scored by ``model.score``, the very sum evaluate() makes.
    """
    want_max = c != 1
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
    worst = model.score(values)
    flips = worst >= 0.0 if want_max else worst < 0.0
    return Instance(values=tuple(values)) if flips else None


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


def _check_pair(model: TreeEnsemble, pair) -> tuple[int, int | None]:
    """``score_bounds``'s ``(plus, minus)`` classes, after checking ``pair``.

    ``pair`` must be two distinct class ids of ``model`` (ints, not bools),
    or None for a single-score model, whose score is class 1's alone.
    """
    if pair is None:
        if not model.single_score:
            raise ContractError("multiclass ensembles need an explicit (rival, predicted) pair")
        return 1, None
    if not (
        isinstance(pair, tuple)
        and len(pair) == 2
        and all(isinstance(c, int) and not isinstance(c, bool) and 0 <= c < model.k for c in pair)
        and pair[0] != pair[1]
    ):
        raise ContractError(f"pair must be two distinct class ids in 0..{model.k - 1}, not {pair!r}")
    return pair


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
    searches only there, and not for a flip query whose every point there
    scores no better than its twin at v's cell (see "one-sided trials" in the
    module docstring). A linear model ignores it.
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
    model: TreeEnsemble,
    pa: PartialAssignment,
    pair: tuple[int, int] | None = None,
    *,
    _side: str | None = None,
) -> ScoreBounds:
    """Attained extrema of the score (or of s_plus - s_minus for ``pair``).

    The score is a single-score model's class-1 score; a multiclass model
    needs ``pair``, two distinct class ids ``(plus, minus)`` (``ContractError``
    otherwise). The instance must be domain-valid, free features included:
    the oracle maps every feature of it to its cell. Each bound is one
    ``_TreeOracle.max_margin`` search.

    ``_side``, private, asks for one bound only: ``"hi"`` or ``"lo"``. The
    other is not searched and comes back as ``-inf`` or ``+inf``.
    """
    oracle = _tree_oracle(model)
    violations = validate_instance(model.space, pa.instance)
    if violations:
        raise ValidationError(violations[0])
    fixed = _check_features(model, pa.fixed)
    plus, minus = _check_pair(model, pair)
    hi = oracle.max_margin(pa.instance, fixed, plus, minus) if _side != "lo" else math.inf
    lo = -oracle.max_margin(pa.instance, fixed, minus, plus) if _side != "hi" else -math.inf
    return ScoreBounds(lo=lo, hi=hi)


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
