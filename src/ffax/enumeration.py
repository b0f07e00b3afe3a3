"""Anytime enumeration of abductive (AXp) and contrastive (CXp) explanations.

An AXp is a subset-minimal feature set whose fixed instance values force the
prediction over the whole feature space; a CXp is a subset-minimal set whose
freeing admits a class-changing completion. The two families are each other's
minimal hitting sets, and the enumeration loop exploits that: it repeatedly
asks the hitting-set engine for a new candidate (a minimal hitting set of the
collected duals that is not a superset of any collected target), tests the
candidate with the exact oracle, and records either the candidate or a dual
explanation extracted from its complement. The extraction uses the duality
too: it skips, without an oracle call, every trial that misses a collected
explanation of the other kind. When no candidate exists the report is
complete and certified by duality. The collected families only grow during
a run, so the loop keeps one hitting-set state (``_HittingSets``) that holds
them as bitmasks and converts only the sets added since the last candidate.
The engine is one exact search whose first solution is shrunk to a minimal
hitting set. The state also saves the phase, the last candidate, and the
search tries its ids first (as MARCO's map solver keeps its last model), so
a candidate can differ from the one a stateless call returns: the sets a
complete run finds do not change, their discovery order and the calls
between them can, and the search visits far fewer nodes.

The loop is anytime: wall-clock, explanation-count, and oracle-call budgets
stop it between oracle calls, so every recorded explanation is fully
verified. All iteration orders are deterministic (ascending feature ids
unless an explicit scan order is given), which makes reports reproducible
and gives growing budgets prefix-compatible results.
"""

import math
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .cells import class_grid
from .errors import CapacityError, ContractError
from .model import Instance, Model, TreeEnsemble
from .oracle import _check_features, _check_predicted, _find_counterexample_unchecked, _tree_oracle

AXP = "axp"
CXP = "cxp"


@dataclass(frozen=True, slots=True)
class Explanation:
    """One AXp or CXp as the enumeration recorded it.

    The set is kept as the int ``mask``, bit i for feature i, and ``features``
    gives it as a frozenset: a report keeps every set it found, and a
    frozenset of a few ids takes hundreds of bytes where the mask takes tens.
    """

    kind: str  # "axp" | "cxp"
    mask: int
    discovery_index: int
    discovery_time: float
    oracle_calls: int  # cumulative count when this set was recorded

    @property
    def features(self) -> frozenset[int]:
        return frozenset(_ids(self.mask))


@dataclass(frozen=True)
class Budget:
    """Stopping rules for an enumeration session.

    At least one limit must be set unless ``unbounded`` is explicitly
    requested; an unbounded session runs until the hitting-set engine proves
    completeness.
    """

    seconds: float | None = None
    max_axps: int | None = None
    max_cxps: int | None = None
    max_oracle_calls: int | None = None
    unbounded: bool = False

    def __post_init__(self):
        limits = (self.seconds, self.max_axps, self.max_cxps, self.max_oracle_calls)
        for limit in limits:
            if limit is not None and not 0 <= limit < math.inf:
                raise ContractError(f"budget limits must be finite and >= 0, got {limit}")
        if self.unbounded and any(l is not None for l in limits):
            raise ContractError("an unbounded budget cannot carry limits")
        if not self.unbounded and all(l is None for l in limits):
            raise ContractError("set at least one budget limit or request unbounded=True")

    @classmethod
    def unlimited(cls) -> "Budget":
        return cls(unbounded=True)


class BudgetExceeded(Exception):
    """Internal control flow: the budget tripped between oracle calls."""


class _Clock:
    def __init__(self, budget: Budget):
        self.budget = budget
        self.t0 = time.perf_counter()
        self.calls = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def before_call(self) -> None:
        b = self.budget
        if b.seconds is not None and self.elapsed() >= b.seconds:
            raise BudgetExceeded
        if b.max_oracle_calls is not None and self.calls >= b.max_oracle_calls:
            raise BudgetExceeded
        self.calls += 1


@dataclass(frozen=True)
class EnumerationReport:
    """Everything one session collected, with budget accounting."""

    instance: Instance
    class_id: int
    mode: str
    complete: bool
    axps: tuple[Explanation, ...]
    cxps: tuple[Explanation, ...]
    oracle_calls: int
    wall_time: float
    budget: Budget

    def axp_sets(self) -> list[frozenset[int]]:
        return [e.features for e in self.axps]

    def cxp_sets(self) -> list[frozenset[int]]:
        return [e.features for e in self.cxps]

    def events(self) -> list[Explanation]:
        return sorted(self.axps + self.cxps, key=lambda e: e.discovery_index)


# --- minimal hitting sets -----------------------------------------------------


def minimal_hs(
    to_hit: Sequence[frozenset[int]],
    blocked: Sequence[frozenset[int]],
    m: int,
    _state: "_HittingSets | None" = None,
) -> frozenset[int] | None:
    """A subset-minimal hitting set of ``to_hit`` that contains no blocked set.

    Sets are ``int`` bitmasks inside. An id is forbidden when adding it would
    complete a blocked set. One exact depth-first search (``_exact_hs``) finds
    a hitting set that contains no blocked set: at each node it branches on
    the un-hit set with the fewest non-forbidden options (then the fewest
    elements, then the lexicographically smallest option list), trying first
    the ids of the state's phase, the last candidate it returned, then the
    rest, each in ascending order; its first solution is the candidate. The
    candidate is shrunk by dropping ids in ascending order while it still hits
    everything; subsets of non-supersets are non-supersets, so shrinking
    cannot re-introduce a blocked set. Returns None iff no hitting set avoids
    the blocked sets.

    The search is complete: a node fails exactly when no valid hitting set
    contains its chosen ids. Two prunes use that and cut only empty subtrees.
    After an id's branch fails, no solution below its later siblings contains
    it, so it is excluded there; and a node fails at once when some un-hit set
    has no option outside the forbidden and excluded ids; this holds whatever
    the order of the siblings. The branching set is still chosen from the
    forbidden ids alone, so the nodes visited are those of the unpruned
    search minus empty subtrees, and the first solution found is the same.

    ``_state`` carries the masks from one call to the next: a caller whose
    families only grow (the enumeration loop) passes the same ``_HittingSets``
    with the same ``m`` on every call, and each call converts only the sets
    appended since the last one, and stores its answer as the next call's
    phase. So the answer depends on the calls before it, and may be another
    minimal hitting set than the one a stateless call, which uses a fresh
    state with an empty phase, gives on the same families; it is None exactly
    when that one is. A state never forgets: it raises ``ContractError`` when
    given fewer sets than it already holds, and a set replaced in place is
    not noticed.
    """
    state = _HittingSets(m) if _state is None else _state
    state.absorb(to_hit, blocked, m)
    if state.empty:
        return None  # everything contains the empty set, which nothing hits
    rows = state.rows
    candidate = _exact_hs(rows, state.singles, state.blocks_with, state.phase)
    if candidate is None:
        return None
    for fid in _ids(candidate):
        trial = candidate & ~(1 << fid)
        if all(s & trial for s, _ in rows):
            candidate = trial
    state.phase = candidate
    return frozenset(_ids(candidate))


class _HittingSets:
    """The masks of a to-hit and a blocked family that only ever grow.

    ``rows`` holds each to-hit set as ``(mask, popcount)``;
    ``blocks_with[fid]`` lists the masks of the blocked sets that hold
    ``fid``, and ``singles`` the ids that are a blocked set on their own.
    ``empty`` is set once either family holds the empty set. ``phase`` is the
    mask of the last candidate ``minimal_hs`` returned through this state,
    whose ids the next search tries first.
    """

    def __init__(self, m: int):
        self.m = m
        self.universe = frozenset(range(m))
        self.rows: list[tuple[int, int]] = []
        self.blocks_with: list[list[int]] = [[] for _ in range(m)]
        self.singles = 0
        self.empty = False
        self.phase = 0
        self.absorbed = (0, 0)  # how many to-hit and blocked sets are held

    def absorb(self, to_hit, blocked, m: int) -> None:
        """Take in the sets of ``to_hit`` and ``blocked`` past those already held."""
        n_hit, n_blocked = self.absorbed
        if m != self.m:
            raise ContractError(f"hitting-set state built for m = {self.m}, called with m = {m}")
        if len(to_hit) < n_hit or len(blocked) < n_blocked:
            raise ContractError("a hitting-set state's families can only grow")
        new_hit = to_hit[n_hit:]
        for s in new_hit:
            if not s <= self.universe:
                raise ContractError(f"set {sorted(s)} outside feature universe 0..{m - 1}")
        for s in new_hit:
            mask = _mask(s)
            self.rows.append((mask, mask.bit_count()))
            self.empty |= not mask
        for b in blocked[n_blocked:]:
            if b <= self.universe:  # a blocked set reaching outside can never be completed
                mask = _mask(b)
                if not mask & (mask - 1):
                    self.singles |= mask
                    self.empty |= not mask
                for fid in b:
                    self.blocks_with[fid].append(mask)
        self.absorbed = (len(to_hit), len(blocked))


def _mask(s: Iterable[int]) -> int:
    return sum(map((1).__lshift__, s))


def _ids(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


def _exact_hs(
    rows: list[tuple[int, int]], forbidden: int, blocks_with: list[list[int]], phase: int
) -> int | None:
    """Complete search: branch on the currently most constrained un-hit set."""

    def dfs(chosen: int, forbidden: int, excluded: int, unhit: list[tuple[int, int]]) -> int | None:
        if not unhit:
            return chosen
        allowed = ~forbidden
        usable = allowed & ~excluded
        target, count, size = 0, len(blocks_with) + 1, 0
        for s, s_size in unhit:
            options = s & allowed
            if not options & usable:
                return None  # every way to hit s is forbidden or excluded
            n = options.bit_count()
            # fewest options, then fewest elements; of two equal-size option
            # lists, the one holding the lowest differing id is smaller
            if n < count or n == count and (
                s_size < size or s_size == size and options & (d := options ^ target) & -d
            ):
                target, count, size = options, n, s_size
        # the ids of the last candidate first (phase saving), then the rest
        children = target & ~excluded
        for fid in _ids(children & phase) + _ids(children & ~phase):
            bit = 1 << fid
            now = chosen | bit
            unchosen = ~now
            child = forbidden
            for b in blocks_with[fid]:
                rest = b & unchosen
                if not rest & (rest - 1):
                    child |= rest
            found = dfs(now, child, excluded, [row for row in unhit if not row[0] & bit])
            if found is not None:
                return found
            excluded |= bit  # no solution below a later sibling contains fid
        return None

    return dfs(0, forbidden, 0, rows)


# --- single-explanation extraction ---------------------------------------------


def _check_order(order: Sequence[int] | None, m: int) -> None:
    if order is not None and (len(order) != m or set(order) != set(range(m))):
        raise ContractError(f"scan order must be a permutation of the feature ids 0..{m - 1}")


def extract_axp(
    model: Model,
    v: Instance,
    c: int,
    seed: Iterable[int],
    order: Sequence[int] | None = None,
    _clock: _Clock | None = None,
    _verify_seed: bool = True,
    _moved: frozenset[int] | None = None,
    _targets: list[list[int]] | None = None,
) -> frozenset[int]:
    """Deletion-based shrink of a sufficient ``seed`` to an AXp; see ``_extract``.

    With ``_verify_seed=False`` the seed must force ``c``, unchecked: each
    trial searches only the points that move its dropped feature off ``v``'s
    cell, which decides the trial exactly only when the current set forces
    ``c``.
    """
    return _extract(AXP, model, v, c, seed, order, _clock, _verify_seed, _moved, _targets)


def extract_cxp(
    model: Model,
    v: Instance,
    c: int,
    seed: Iterable[int],
    order: Sequence[int] | None = None,
    _clock: _Clock | None = None,
    _verify_seed: bool = True,
    _moved: frozenset[int] | None = None,
    _targets: list[list[int]] | None = None,
) -> frozenset[int]:
    """Deletion-based shrink of a class-changing free ``seed`` to a CXp; see ``_extract``.

    The seed check's counterexample, or one that differs from ``v`` only on
    ``_moved`` (a subset of ``seed``), decides every trial that drops a
    feature where it has ``v``'s value, so those trials cost no oracle call.
    """
    return _extract(CXP, model, v, c, seed, order, _clock, _verify_seed, _moved, _targets)


_SEED_ERRORS = {
    AXP: "seed set does not force the prediction",
    CXP: "freeing the seed set admits no class change",
}


def _extract(kind, model, v, c, seed, order, clock, verify_seed, moved, targets) -> frozenset[int]:
    """Deletion-based shrink of a ``seed`` that holds as ``kind`` to a minimal one.

    The enumeration loop extracts its duals with it. Features are scanned in
    ascending id order (or the explicit ``order``); each is dropped iff the
    remainder still holds as ``kind`` (see ``_holds``). With ``verify_seed``
    the inputs are checked first: ``v`` predicted ``c``, the seed's ids, the
    order, and that the seed holds. The loop, which checked its inputs once,
    passes False and nothing is re-checked.

    The last counterexample seen is kept, as the set ``moved`` of features
    where it differs from ``v``, and decides a trial without an oracle call
    when it agrees with ``v`` on every feature the trial fixes; the oracle
    would have found a flip there too, so the decisions, hence the result,
    are those of a call per trial. In a CXp shrink the counterexample agrees
    with ``v`` outside the current set, so this is "it has ``v``'s value at
    the dropped feature". It never decides an AXp trial: a failed trial's
    counterexample differs from ``v`` at the feature that trial kept (else
    the current set would not force ``c``), and that feature stays fixed in
    every later trial.

    ``targets`` (the loop's ``_HittingSets.blocks_with``: the masks of the
    collected explanations of the other kind, listed under each of their
    ids) refutes a trial without an oracle call when some target meets the
    current set only at the dropped feature. The current set holds, so it
    meets every target; an AXp meets every CXp and a CXp every AXp, so a
    trial that misses a target fails, and a failing trial keeps ``current``.
    A skipped CXp trial would have found no counterexample, so ``moved`` is
    kept as well; the counterexample of a skipped AXp trial would never have
    decided a later AXp trial. So the result is the same and only calls are
    saved.

    An AXp trial is one-sided: it passes the dropped feature to the oracle
    as ``away``. The current set forces ``c``, so no point that keeps the
    dropped feature in ``v``'s cell flips, and the oracle searches only the
    points that move it off that cell. The verdict, hence the result and the
    call count, is that of a search of the whole box; the counterexample may
    be another, and it still differs from ``v`` at the dropped feature.
    """
    current = frozenset(seed)
    if verify_seed:
        _check_predicted(model, v, c)
        _check_features(model, current)
        _check_order(order, model.space.m)
        holds, moved = _holds(kind, model, v, c, current, clock, moved)
        if not holds:
            raise ContractError(_SEED_ERRORS[kind])
    mask = _mask(current)
    for fid in sorted(current) if order is None else [f for f in order if f in current]:
        bit = 1 << fid
        if targets is not None and any(t & mask == bit for t in targets[fid]):
            continue  # the trial misses a collected target, which refutes it
        trial = current - {fid}
        away = fid if kind == AXP else None
        holds, moved = _holds(kind, model, v, c, trial, clock, moved, away)
        if holds:
            current = trial
            mask ^= bit
    return current


def _holds(kind, model, v, c, features: frozenset[int], clock: _Clock | None, moved=None,
           away=None):
    """Does ``features`` hold as ``kind``? The answer and the last counterexample's ``moved``.

    An AXp set holds when fixing it forces ``c``, a CXp set when freeing it
    (fixing its complement) admits a class change. A set holds as one kind
    iff its complement fails as the other. ``moved`` holds the features where
    an earlier counterexample differs from ``v``; if none of them is fixed,
    that counterexample is one here too, and "a flip exists" needs no oracle call.
    Otherwise one oracle call decides, and a counterexample it finds
    replaces ``moved``. ``away``, the feature an AXp trial drops, goes to the
    oracle, which then searches only the points that move it off ``v``'s
    cell (see ``_extract``).
    """
    fixed = features if kind == AXP else model.space.all_features() - features
    if moved is None or not moved.isdisjoint(fixed):
        if clock is not None:
            clock.before_call()
        found = _find_counterexample_unchecked(model, v, c, fixed, away)
        if found is None:
            return kind == AXP, moved
        moved = frozenset(fid for fid, x in enumerate(v.values) if found.values[fid] != x)
    return kind == CXP, moved


# --- the enumeration loop -------------------------------------------------------


def enumerate_explanations(
    model: Model,
    v: Instance,
    c: int | None = None,
    budget: Budget | None = None,
    mode: str = "cxp-first",
    order: Sequence[int] | None = None,
) -> EnumerationReport:
    """Collect AXp's and CXp's until complete or until the budget trips.

    ``mode`` picks the target kind, the one tested on candidates: "cxp-first"
    (default) targets CXp's, "axp-first" targets AXp's; the other kind is the
    dual. Each candidate is a minimal hitting set of the collected duals that
    contains no collected target. A candidate that holds as a target is
    recorded; it is minimal by construction, since any proper subset misses
    some collected dual, which refutes the target condition outright. A
    candidate that fails leaves a complement that holds as a dual, and a dual
    is extracted from it, starting from the failed test's counterexample.
    """
    if mode not in ("cxp-first", "axp-first"):
        raise ContractError(f"unknown mode {mode!r}")
    c = _check_predicted(model, v, c)
    _check_order(order, model.space.m)
    budget = budget or Budget.unlimited()
    clock = _Clock(budget)
    m = model.space.m
    all_features = frozenset(range(m))
    target, dual = (CXP, AXP) if mode == "cxp-first" else (AXP, CXP)
    # read at call time, not bound at import: a wrapper swapped onto the module is called
    extract_dual = extract_axp if dual == AXP else extract_cxp

    axps: list[Explanation] = []
    cxps: list[Explanation] = []
    found = {AXP: axps, CXP: cxps}
    sets: dict[str, list[frozenset[int]]] = {AXP: [], CXP: []}
    hitting_sets = _HittingSets(m)
    complete = False
    index = 0

    def record(kind: str, features: frozenset[int]) -> None:
        nonlocal index
        entry = Explanation(
            kind=kind,
            mask=_mask(features),
            discovery_index=index,
            discovery_time=clock.elapsed(),
            oracle_calls=clock.calls,
        )
        found[kind].append(entry)
        sets[kind].append(features)
        index += 1

    try:
        while True:
            if budget.max_axps is not None and len(axps) >= budget.max_axps:
                break
            if budget.max_cxps is not None and len(cxps) >= budget.max_cxps:
                break
            candidate = minimal_hs(sets[dual], sets[target], m, _state=hitting_sets)
            if candidate is None:
                complete = True
                break
            holds, moved = _holds(target, model, v, c, candidate, clock)
            if holds:
                record(target, candidate)
            else:  # the complement holds as a dual, so it contains a new one
                record(dual, extract_dual(
                    model, v, c, all_features - candidate, order, _clock=clock,
                    _verify_seed=False, _moved=moved, _targets=hitting_sets.blocks_with,
                ))
    except BudgetExceeded:
        complete = False

    return EnumerationReport(
        instance=v,
        class_id=c,
        mode=mode,
        complete=complete,
        axps=tuple(axps),
        cxps=tuple(cxps),
        oracle_calls=clock.calls,
        wall_time=clock.elapsed(),
        budget=budget,
    )


# --- independent exhaustive oracle and the duality check ------------------------


def brute_force_all_xps(
    model: TreeEnsemble, v: Instance, c: int
) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """All AXp's and CXp's by subset scan over the exhaustive cell grid.

    Scans subsets in increasing cardinality with supersets of found sets
    pruned, so everything reported is subset-minimal. Feasible for m <= 20
    and grids up to 10^7 cells.
    """
    from itertools import combinations

    cells = _tree_oracle(model).cells
    m = model.space.m
    if m > 20:
        raise CapacityError(f"2^{m} subsets exceed the brute-force cap (m <= 20)", size=2**m)
    _check_predicted(model, v, c)
    classes = class_grid(cells, {})
    v_cells = cells.instance_cells(v)
    flip = classes != c

    def admits_flip(free: tuple[int, ...]) -> bool:
        free_set = set(free)
        ix = tuple(slice(None) if fid in free_set else v_cells[fid] for fid in range(m))
        return bool(flip[ix].any())

    axps: list[frozenset[int]] = []
    cxps: list[frozenset[int]] = []
    for size_ in range(m + 1):
        for combo in combinations(range(m), size_):
            s = frozenset(combo)
            if not any(found <= s for found in axps):
                others = tuple(fid for fid in range(m) if fid not in s)
                if not admits_flip(others):
                    axps.append(s)
            if not any(found <= s for found in cxps):
                if admits_flip(combo):
                    cxps.append(s)
    return axps, cxps


@dataclass(frozen=True)
class DualityViolation:
    side: str  # "axp" | "cxp"
    offender: frozenset[int]
    counterpart: frozenset[int] | None
    reason: str  # "misses" | "not-minimal" | "unreported" (a missing minimal hitting set)


def check_duality(
    axps: Iterable[frozenset[int]], cxps: Iterable[frozenset[int]]
) -> DualityViolation | None:
    """Verify each side is exactly the minimal hitting sets of the other.

    Every set must hit every dual and be a minimal hitting set of the duals;
    then no minimal hitting set of either side may be missing from the other,
    which ``minimal_hs`` decides with the reported sets blocked. Intended for
    complete reports; returns the first violation found, or None.
    """
    axps = [frozenset(s) for s in axps]
    cxps = [frozenset(s) for s in cxps]

    def first_violation(side: str, sets, duals) -> DualityViolation | None:
        for s in sets:
            for d in duals:
                if not s & d:
                    return DualityViolation(side, s, d, "misses")
            for fid in sorted(s):
                shrunk = s - {fid}
                if all(shrunk & d for d in duals):
                    return DualityViolation(side, s, None, "not-minimal")
        return None

    violation = first_violation("axp", axps, cxps) or first_violation("cxp", cxps, axps)
    if violation is not None:
        return violation
    # the ids that occur, renamed 0..n-1 in ascending order: the search's
    # answer is the same up to the renaming, and its size follows the input
    ids = sorted({fid for s in axps + cxps for fid in s})
    index = {fid: i for i, fid in enumerate(ids)}

    def renamed(sets):
        return [frozenset(index[fid] for fid in s) for s in sets]

    for side, sets, duals in (("axp", axps, cxps), ("cxp", cxps, axps)):
        missing = minimal_hs(renamed(duals), renamed(sets), len(ids))
        if missing is not None:
            return DualityViolation(side, frozenset(ids[i] for i in missing), None, "unreported")
    return None
