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
complete and certified by duality.

One session (``_Session``) owns a run's state: the call clock, the collected
explanations, the last counterexample and a store of the counterexamples of
its one-sided AXp trials. The store answers with no search a one-sided trial
of a later extraction, and a cxp-first candidate check whose candidate is
exactly the set that a stored point moves; it is looked up by that set. A
stored point flips, so the set it moves meets every AXp (an AXp it left
fixed would force the prediction); a candidate is a minimal hitting set of
the collected AXp's, so its proper subsets miss one. A stored point that
moves only candidate features thus moves the whole candidate, and the
look-up finds every stored answer. A public one-shot extraction makes a
session of its own that keeps no store, since no trial of one extraction
can read it; the oracle keeps no counterexample at all. The collected
families only grow during a run, so the session keeps one hitting-set state
(``_HittingSets``) that holds them as bitmasks and converts only the sets
added since the last candidate. The engine is one exact search whose first
solution is shrunk to a minimal hitting set. The state also saves the phase,
the last candidate, and the search tries its ids first (as MARCO's map
solver keeps its last model), so a candidate can differ from the one a
stateless call returns: the sets a complete run finds do not change, their
discovery order and the calls between them can, and the search visits far
fewer nodes.

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
    _session: "_Session | None" = None,
) -> frozenset[int]:
    """Deletion-based shrink of a sufficient ``seed`` to an AXp; see ``_extract``."""
    return _extract(AXP, model, v, c, seed, order, _session)


def extract_cxp(
    model: Model,
    v: Instance,
    c: int,
    seed: Iterable[int],
    order: Sequence[int] | None = None,
    _session: "_Session | None" = None,
) -> frozenset[int]:
    """Deletion-based shrink of a class-changing free ``seed`` to a CXp; see ``_extract``."""
    return _extract(CXP, model, v, c, seed, order, _session)


_SEED_ERRORS = {
    AXP: "seed set does not force the prediction",
    CXP: "freeing the seed set admits no class change",
}


def _extract(kind, model, v, c, seed, order, session) -> frozenset[int]:
    """Deletion-based shrink of a ``seed`` that holds as ``kind`` to a minimal one.

    Features are scanned in ascending id order (or the explicit ``order``);
    each is dropped iff the remainder still holds as ``kind``
    (``_Session.holds``). With no ``session`` this is a one-shot extraction:
    ``v`` predicted ``c``, the order, the seed's ids and that the seed holds
    are checked, in a session of its own that keeps no counterexample store.
    The enumeration loop passes its session, whose model, instance, class and
    order are used, and nothing is checked.

    The session's last counterexample decides a trial without an oracle call
    when it agrees with ``v`` on every feature the trial fixes; the oracle
    would have found a flip there too, so the decisions, hence the result,
    are those of a call per trial. In a CXp shrink the counterexample agrees
    with ``v`` outside the current set, so this is "it has ``v``'s value at
    the dropped feature". It never decides an AXp trial: a failed trial's
    counterexample differs from ``v`` at the feature that trial kept (else
    the current set would not force ``c``), and that feature stays fixed in
    every later trial.

    The session's collected explanations of the other kind (its
    ``_HittingSets.blocks_with``: their masks, listed under each of their
    ids) refute a trial without an oracle call when one of them meets the
    current set only at the dropped feature. The current set holds, so it
    meets every one; an AXp meets every CXp and a CXp every AXp, so a trial
    that misses one fails, and a failing trial keeps ``current``. A skipped
    CXp trial would have found no counterexample, so the last one is kept as
    well; the counterexample of a skipped AXp trial would never have decided
    a later AXp trial. So the result is the same and only calls are saved.

    An AXp trial is one-sided: it passes the dropped feature to the session
    as ``away``. The current set forces ``c``, so no point that keeps the
    dropped feature in ``v``'s cell flips, and only the points that move it
    off that cell are asked for: first from the session's store of earlier
    extractions' one-sided counterexamples, then from the oracle. The
    verdict, hence the result and the call count, is that of a search of the
    whole box; the counterexample may be another, and it still differs from
    ``v`` at the dropped feature. So a one-sided counterexample never answers
    a later trial of the extraction that found it, and a one-shot extraction
    keeps none.
    """
    current = frozenset(seed)
    if session is None:
        session = _Session(model, v, c, order, Budget.unlimited())
        _check_features(model, current)
        if not session.holds(kind, current, _mask(current)):
            raise ContractError(_SEED_ERRORS[kind])
    mask = _mask(current)
    targets = session.hitting_sets.blocks_with
    order = session.order
    for fid in sorted(current) if order is None else [f for f in order if f in current]:
        bit = 1 << fid
        if any(t & mask == bit for t in targets[fid]):
            continue  # the trial misses a collected target, which refutes it
        trial = current - {fid}
        if session.holds(kind, trial, mask ^ bit, fid if kind == AXP else None):
            current = trial
            mask ^= bit
    return current


# --- the enumeration session ------------------------------------------------------


class _Session:
    """The state of one enumeration: its clock, its sets and its counterexamples.

    ``_Session(model, v, c, order, budget)`` checks that ``v`` is predicted
    ``c`` (None asks for the prediction) and the scan order. It counts the
    oracle calls against ``budget`` (``before_call``) and keeps the
    explanations found (``found`` in discovery order, ``sets`` per kind,
    ``hitting_sets`` as masks), the last counterexample's moved mask
    (``moved``, bit ``fid`` set where it differs from ``v``; None before
    one) and ``store``, which files each one-sided counterexample as
    ``(moved, x)`` under every feature of its moved mask; ``by_moved`` maps
    each moved mask to the first counterexample filed with it. Only a later
    extraction or candidate check can read an entry (see ``_extract`` and
    ``counterexample``), so the enumeration loop sets the store up and a
    one-shot extraction's session keeps none (None, and ``by_moved`` stays
    empty). A session holds Instances and ints, and no oracle.
    """

    def __init__(self, model: Model, v: Instance, c: int | None, order, budget: Budget):
        self.c = _check_predicted(model, v, c)
        _check_order(order, model.space.m)
        self.model, self.v, self.order, self.budget = model, v, order, budget
        self.t0 = time.perf_counter()
        self.calls = 0
        self.everything = model.space.all_features()
        self.full = (1 << model.space.m) - 1
        self.found: list[Explanation] = []
        self.sets: dict[str, list[frozenset[int]]] = {AXP: [], CXP: []}
        self.hitting_sets = _HittingSets(model.space.m)
        self.moved: int | None = None
        self.store: dict[int, list[tuple[int, Instance]]] | None = None
        self.by_moved: dict[int, Instance] = {}

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def before_call(self) -> None:
        b = self.budget
        if b.seconds is not None and self.elapsed() >= b.seconds:
            raise BudgetExceeded
        if b.max_oracle_calls is not None and self.calls >= b.max_oracle_calls:
            raise BudgetExceeded
        self.calls += 1

    def record(self, kind: str, features: frozenset[int]) -> None:
        index = len(self.found)
        self.found.append(Explanation(kind, _mask(features), index, self.elapsed(), self.calls))
        self.sets[kind].append(features)

    def holds(self, kind: str, features: frozenset[int], mask: int, away: int | None = None) -> bool:
        """Does ``features``, whose bitmask is ``mask``, hold as ``kind``?

        An AXp set holds when fixing it forces ``c``, a CXp set when freeing
        it (fixing its complement) admits a class change. A set holds as one
        kind iff its complement fails as the other. If the last
        counterexample moves no fixed feature, it is one here too, and "a
        flip exists" needs no oracle call; else ``counterexample`` makes one.
        """
        fixed = mask if kind == AXP else self.full ^ mask
        if self.moved is None or self.moved & fixed:
            ids = features if kind == AXP else self.everything - features
            if self.counterexample(ids, fixed, away) is None:
                return kind == AXP
        return kind == CXP

    def counterexample(self, fixed, fixed_mask: int, away: int | None = None) -> Instance | None:
        """One oracle call: a point like ``v`` on ``fixed`` whose class is not ``c``, or None.

        ``fixed_mask`` is ``fixed`` as a bitmask. ``away``, the dropped
        feature of an AXp trial, may be given only when ``fixed | {away}``
        forces ``c``; every flip then moves ``away``. The store is looked up
        first, after the call is counted, so call totals do not depend on
        it. A one-sided trial takes the first point filed under ``away``
        whose moved mask misses ``fixed``: it agrees with ``v`` on ``fixed``
        and flips. A full trial (no ``away``) takes the point ``by_moved``
        files under its free mask, which moves exactly the free features: in
        a cxp-first candidate check, the only full trial of a run with a
        store, a stored point that moves only candidate features moves the
        whole candidate (see the module docstring), so no answer is missed.
        The loop reads no candidate check's counterexample, so reports do not
        depend on which point answers. Otherwise the oracle decides (see
        ``_find_counterexample_unchecked``), and the one-sided
        counterexample it finds is filed. A counterexample returned becomes
        the last one.
        """
        self.before_call()
        if away is None:
            free = self.full ^ fixed_mask
            x = self.by_moved.get(free)
            if x is not None:
                self.moved = free
                return x
        elif self.store:
            for moved, x in self.store.get(away, ()):
                if not moved & fixed_mask:
                    self.moved = moved
                    return x
        x = _find_counterexample_unchecked(self.model, self.v, self.c, fixed, away)
        if x is not None:
            values = x.values
            self.moved = moved = _mask(f for f, w in enumerate(self.v.values) if values[f] != w)
            if away is not None and self.store is not None:
                for fid in _ids(moved):
                    self.store.setdefault(fid, []).append((moved, x))
                self.by_moved.setdefault(moved, x)
        return x


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
    One ``_Session`` holds the run's state, and the run's extractions and
    candidate checks share its counterexample store.
    """
    if mode not in ("cxp-first", "axp-first"):
        raise ContractError(f"unknown mode {mode!r}")
    session = _Session(model, v, c, order, budget or Budget.unlimited())
    session.store = {}
    budget, sets = session.budget, session.sets
    target, dual = (CXP, AXP) if mode == "cxp-first" else (AXP, CXP)
    # read at call time, not bound at import: a wrapper swapped onto the module is called
    extract_dual = extract_axp if dual == AXP else extract_cxp
    complete = False
    try:
        while (budget.max_axps is None or len(sets[AXP]) < budget.max_axps) and (
            budget.max_cxps is None or len(sets[CXP]) < budget.max_cxps
        ):
            candidate = minimal_hs(sets[dual], sets[target], model.space.m, _state=session.hitting_sets)
            if candidate is None:
                complete = True
                break
            session.moved = None  # the candidate check reads no earlier counterexample
            if session.holds(target, candidate, _mask(candidate)):
                session.record(target, candidate)
            else:  # the complement holds as a dual, so it contains a new one
                seed = session.everything - candidate
                session.record(dual, extract_dual(model, v, session.c, seed, order, _session=session))
    except BudgetExceeded:
        pass

    return EnumerationReport(
        instance=v,
        class_id=session.c,
        mode=mode,
        complete=complete,
        axps=tuple(e for e in session.found if e.kind == AXP),
        cxps=tuple(e for e in session.found if e.kind == CXP),
        oracle_calls=session.calls,
        wall_time=session.elapsed(),
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
