"""Decompression: recover full ±1 pairs from a compressed candidate, and the
orbit-restricted whole-sequence search used at length 85.

Both engines are deterministic functions of (input, config, seed); search
shards never share mutable state, so results merge by concatenation.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from .candgen import CandidatePair
from .grouptools import LexRankCode, OrbitTable, lex_unrank_masks, orbits
from .seqcore import paf_rows

# No search calls these any more; the benchmark's tracer (bench/tracing.py)
# rebinds them by name in this module, so they stay importable from it.
from .grouptools import block_from_codes, sequence_from_block  # noqa: F401
from .seqcore import compress, paf, paf_vector, psd_vector, verify_legendre_pair  # noqa: F401

PSD_CEILING_TOL = 1e-6


class SearchConfigError(ValueError):
    """Inconsistent search configuration or candidate."""


@dataclass
class SearchConfig:
    strategy: str = "backtrack"  # "backtrack" | "orbit_restricted"
    budget_nodes: int = 10**9
    max_solutions: int = 0  # 0 = collect every solution found
    seed: int = 0
    psd_prune: bool = True
    # orbit_restricted strategy only:
    subgroup_generators: Tuple[int, ...] = ()
    ones_orbits: int = 0
    twos_orbits: int = 0
    exhaustive: bool = False
    p2_prefilter: bool = True
    hint_codes: Tuple[Tuple[int, int], ...] = ()  # (ones_rank, twos_rank) warm starts

    def validate(self) -> None:
        if self.budget_nodes <= 0:
            raise SearchConfigError("budget_nodes must be positive")
        if self.max_solutions < 0:
            raise SearchConfigError("max_solutions must be 0 (no limit) or positive")
        if self.strategy not in ("backtrack", "orbit_restricted"):
            raise SearchConfigError(f"unknown strategy {self.strategy!r}")
        if self.strategy == "orbit_restricted" and not self.subgroup_generators:
            raise SearchConfigError("orbit_restricted needs subgroup_generators")


@dataclass
class SearchResult:
    pairs: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = field(default_factory=list)
    codes: List[Optional[Tuple[dict, dict]]] = field(default_factory=list)
    nodes_visited: int = 0
    exhausted: bool = False


def _negative_counts(row: Sequence[int], m: int) -> List[int]:
    """Per-class count of -1 entries forced by the compression row sums."""
    counts = []
    for j, v in enumerate(row):
        if abs(v) > m or (m - v) % 2 != 0:
            raise SearchConfigError(
                f"row sum {v} at class {j} is unreachable with {m} ±1 entries"
            )
        counts.append((m - v) // 2)
    return counts


# The bottom of the DFS tree is scored a level at a time: the walk hands a
# subtree to one batched call once the option widths left multiply to at most
# TAIL_OPTIONS, if that spans at least 3 depths (2-depth tails at ℓ=45, up to
# 126 × 126 options, were no faster and took more memory).  Results do not
# depend on it.
TAIL_OPTIONS = 65_536
# Scores per (shifts × options × states) block of a batched level; 2**16 was
# no faster beyond noise on ℓ=25 first-pair searches and took ≈0.9 MB more.
TAIL_BLOCK = 2**14


@functools.lru_cache(maxsize=64)
def _options(m: int, k: int, laps: int) -> np.ndarray:
    """Every ±1 vector v of length m with k entries -1, in lex order of the
    -1 positions, as the float64 row [v | v's cyclic PAF at offsets 1..laps
    | 1]: the option side of _score_state's product.  Read-only: every
    search shares it."""
    combos = list(itertools.combinations(range(m), k))
    x = np.ones((len(combos), m + laps + 1))
    v = x[:, :m]
    np.put_along_axis(v, np.array(combos, dtype=np.intp).reshape(len(combos), k), -1, axis=1)
    for r in range(1, laps + 1):
        x[:, m + r - 1] = (v * np.roll(v, -r, axis=1)).sum(1)
    x.flags.writeable = False
    return x


@functools.lru_cache(maxsize=64)
def _tail_options(ell: int, d: int, j: int, k: int) -> np.ndarray:
    """Class j's _options(ℓ/d, k, ·) with the class's partners folded in:
    row (s, o) weights [entries i | part_A + part_B at each shift | 1] into
    option o's deficit z at shift s, the left factor of _score_block.  Entry
    i weighs Σ v_t over the class members i_t = i ± s (|q| <= 2; the class
    itself is 0 in every state scored), the shift's own part sum 1, and the
    1 gets 2 plus v's PAF at offset s/d when d | s.  Read-only: every
    search shares it."""
    m, h = ell // d, ell // 2
    x = _options(m, k, h // d)
    cls, shifts = np.arange(j, ell, d), np.arange(1, h + 1)
    q = np.zeros((h, len(x), ell + h + 1))
    for sign in (1, -1):  # no index repeats within one sign
        q[shifts - 1, :, (cls[:, None] + sign * shifts) % ell] += x[:, :m].T[:, None]
    q[shifts - 1, :, ell + shifts - 1] = 1
    q[:, :, -1] = 2
    q[d - 1::d, :, -1] += x[:, m:-1].T
    q = q.reshape(h * len(x), -1)
    q.flags.writeable = False
    return q


def _score_block(q: np.ndarray, order: np.ndarray, rows: np.ndarray, part: np.ndarray,
                 side: int, slack: np.ndarray):
    """Score every option of a class against every state of a block in one
    float64 GEMM, ``z = q @ x``.

    ``q`` is the class's _tail_options, ``order`` the lex index of each
    option in the search's order, ``rows`` the states' scored side (F × ℓ,
    0 where unassigned) and ``part`` their partial PAFs (F × 2 × ℓ//2).
    x stacks rows.T, part_A + part_B and 1, so z, shifts × options ×
    states, is new + 2 + part_other, the joint bound's deficit: an option
    survives when |z| <= slack at every shift.  It is exact: every operand
    and every partial sum is an integer of magnitude at most 3m + 2ℓ + 2,
    far below 2**53, in any summation order.  Return the survivors in
    (state, option) order as state indices, positions in ``order`` and
    their scored side's new partial PAFs (int32)."""
    x = np.empty((q.shape[1], len(rows)))  # C order: an F-order x took a threaded BLAS path
    np.concatenate((rows.T, (part[:, 0] + part[:, 1]).T, np.ones((1, len(rows)))), out=x)
    z = (q @ x).reshape(len(slack), -1)
    s, o = np.nonzero((np.abs(z) <= slack[:, None]).all(0).reshape(len(order), -1)[order].T)
    return s, o, z.take(order[o] * len(rows) + s, 1).T.astype(np.int32) - 2 - part[s, 1 - side]


def _psd_max(paf: np.ndarray, cos: np.ndarray) -> np.ndarray:
    """Max PSD over k != 0 of the rows whose PAFs at shifts 1..ℓ//2 are
    ``paf``, with ``cos`` the plan's ℓ//2 × ℓ//2 cos(2π·sk/ℓ): at odd ℓ,
    PSD_k = ℓ + 2 Σ_s PAF(s)·cos(2π·sk/ℓ) and PSD_k = PSD_(ℓ-k), so k =
    1..ℓ//2 covers every k != 0.  |PAF| <= ℓ and the angles are reduced,
    so the error is at most 8ℓ³·2**-53, below PSD_CEILING_TOL."""
    return 2 * (paf @ cos).max(-1) + 2 * len(cos) + 1


def _tail_start(widths: Sequence[int]) -> int:
    """First depth of the batched tail for these option widths per depth:
    the shallowest whose remaining widths multiply to at most TAIL_OPTIONS,
    or len(widths), no tail, when that spans fewer than 3 depths."""
    start, size = len(widths), 1
    while start and size * widths[start - 1] <= TAIL_OPTIONS:
        start -= 1
        size *= widths[start]
    return start if len(widths) - start >= 3 else len(widths)


class _Plan(NamedTuple):
    """What a DFS over one candidate needs besides its seed."""

    steps: Tuple[Tuple[int, int], ...]  # (side, class) per depth
    classes: np.ndarray  # classes[j] = (j, j + d, ...)
    plus: np.ndarray  # plus[j][t, s - 1] = classes[j][t] + s mod ℓ
    minus: np.ndarray  # likewise i - s
    own: np.ndarray  # _score_state's selector of the shifts d, 2d, ...
    slack: np.ndarray  # the joint bound's limit per depth and shift
    options: Tuple[np.ndarray, ...]  # each depth's _options, in lex order
    cos: np.ndarray  # cos 2π(s·k mod ℓ)/ℓ, s and k = 1..ℓ//2, for _psd_max


@functools.lru_cache(maxsize=64)
def _grid(ell: int, d: int) -> Tuple[np.ndarray, ...]:
    """The plan's classes, plus, minus, own and cos, which depend on (ℓ, d)
    alone.  Read-only: every search at ℓ with d classes shares them."""
    m, nshifts = ell // d, ell // 2
    classes = np.arange(ell).reshape(m, d).T
    shifts = np.arange(1, nshifts + 1)
    plus = (classes[:, :, None] + shifts) % ell
    minus = (classes[:, :, None] - shifts) % ell
    laps = nshifts // d
    own = np.zeros((laps, nshifts))
    own[np.arange(laps), np.arange(d - 1, nshifts, d)] = 1
    cos = np.cos(2 * np.pi / ell * (shifts[:, None] * shifts % ell))
    for x in (classes, plus, minus, own, cos):
        x.flags.writeable = False
    return classes, plus, minus, own, cos


def _plan(ell: int, a: Sequence[int], b: Sequence[int]) -> _Plan:
    """The search plan of candidate (a, b) at odd length ℓ."""
    d = len(a)
    if len(b) != d or d == 0 or ell % d != 0:
        raise SearchConfigError(f"candidate shape {d} does not divide ℓ={ell}")
    m, nshifts = ell // d, ell // 2
    negs = (_negative_counts(a, m), _negative_counts(b, m))
    classes, plus, minus, own, cos = _grid(ell, d)

    # most-constrained-first: fewest subset choices first
    order = sorted(
        range(d), key=lambda j: (math.comb(m, negs[0][j]) * math.comb(m, negs[1][j]), j)
    )
    steps = tuple((side, j) for j in order for side in (0, 1))

    # product a_i·a_(i+s) of a side is known from the later of the steps that
    # assign i and i + s; the bound's limit after a step is the count unknown.
    # Both steps depend on the classes alone, and each class has m entries
    at = np.empty((2, d), dtype=np.intp)
    at[:, order] = np.arange(2 * d).reshape(d, 2).T
    known = np.maximum(at[:, :, None], at[:, plus[:, 0] % d])
    fixed = np.bincount((known * nshifts + np.arange(nshifts)).ravel(),
                        minlength=len(steps) * nshifts)
    slack = 2 * ell - m * fixed.reshape(len(steps), nshifts).cumsum(0, dtype=np.int64)
    options = tuple(_options(m, negs[side][j], nshifts // d) for side, j in steps)
    return _Plan(steps, classes, plus, minus, own, slack, options, cos)


def _score_state(plan: _Plan, depth: int, order: np.ndarray, state: np.ndarray,
                 part: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The walk's step: _score_block's exact deficits for one state (2 × ℓ
    rows, ``part`` their partial PAFs), options × shifts, from the plan's
    options.  Return the survivors' positions in ``order`` and new PAFs.
    The walk takes the A side's last step from _a_ceiling instead."""
    side, j = plan.steps[depth]
    row = state[side]
    gain = row[plan.plus[j]] + row[plan.minus[j]]
    z = plan.options[depth] @ np.concatenate((gain, plan.own, (part[0] + part[1] + 2)[None]))
    live = (np.abs(z) <= plan.slack[depth]).all(1)[order].nonzero()[0]
    new = z.take(order[live], 0).astype(np.int32)
    new -= 2 + part[1 - side]
    return live, new


def _a_ceiling(plan: _Plan, state: np.ndarray, part: np.ndarray,
               psd_limit: float) -> Tuple[np.ndarray, np.ndarray]:
    """The PSD cut at the A side's last step, taken once for all children of
    a state one B step above it, which share A's row and partial PAF: which
    options, in lex order, have a completed PAF_A with _psd_max <=
    ``psd_limit`` (all of them at math.inf), and every option's PAF_A
    (float64, exact).  For a batch of states (P × 2 × ℓ, ``part`` P × 2 ×
    ℓ//2) both gain a leading state axis.  No seeded order is needed until
    _in_order takes the kept rows."""
    j = plan.steps[-2][1]
    row = state[..., 0, :]
    gain = row[..., plan.plus[j]] + row[..., plan.minus[j]]
    own = np.broadcast_to(plan.own, gain.shape[:-2] + plan.own.shape)
    paf = plan.options[-2][:, :-1] @ np.concatenate((gain, own), -2) + part[..., None, 0, :]
    return _psd_max(paf, plan.cos) <= psd_limit, paf


def _in_order(order: np.ndarray, keep: np.ndarray, paf: np.ndarray) -> Tuple[np.ndarray, ...]:
    """An _a_ceiling's kept rows in the search's ``order`` (the lex index of
    each position): their positions and int32 PAF_A, with each row's state
    index first for a batch, in (state, position) order."""
    *state, at = keep[..., order].nonzero()
    return (*state, at, paf[(*state, order[at])].astype(np.int32))


def _a_last_step(ceiling: Tuple[np.ndarray, np.ndarray], part: np.ndarray,
                 limit: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The walk's step at the A side's last step: the joint bound on the rows
    an _a_ceiling kept, |PAF_A + part_B + 2| <= limit."""
    kept, paf = ceiling
    live = (np.abs(paf + (part[1] + 2)) <= limit).all(1)
    return kept[live], paf[live]


def _a_last_level(plan: _Plan, order: np.ndarray, states: np.ndarray, part: np.ndarray,
                  parent: np.ndarray, psd_limit: float) -> Tuple[np.ndarray, ...]:
    """The tail's level at the A side's last step: the level above is a B
    step, so the states (F × 2 × ℓ) of one ``parent`` (nondecreasing) share
    A's row and PAF_A.  One _a_ceiling over each parent's first state, then
    each state's joint bound on the kept rows: what _score_block, then
    _psd_max, return state by state (state indices, positions in ``order``,
    int32 PAF_A), in the same order."""
    first = np.diff(parent, prepend=-1) != 0
    g, kept, paf = _in_order(order, *_a_ceiling(plan, states[first], part[first], psd_limit))
    count = np.bincount(g, minlength=first.sum())
    group = first.cumsum() - 1
    n = count[group]  # a state's rows are its parent's kept rows
    s = np.repeat(np.arange(len(states)), n)
    e = np.arange(len(s)) + np.repeat(count.cumsum()[group] - n.cumsum(), n)
    rows = paf[e]
    live = (np.abs(rows + (part[s, 1] + 2)) <= plan.slack[-2]).all(1)
    return s[live], kept[e[live]], rows[live]


def _shuffled(rng: random.Random, w: int) -> List[int]:
    """range(w) in rng.shuffle's order, from the same words: shuffle with _randbelow inlined."""
    perm, bits = list(range(w)), rng.getrandbits
    for n in range(w, 1, -1):
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        perm[n - 1], perm[r] = perm[r], perm[n - 1]
    return perm


def uncompress_search(ell: int, cand: CandidatePair, cfg: SearchConfig) -> SearchResult:
    """Depth-first search for ±1 pairs whose m-compressions equal (cand.a, cand.b).

    Entries are assigned a whole residue class at a time, sides interleaved
    within a class; each class j of a side has exactly (m - row_j)/2 entries
    equal to -1, so every completion compresses to the candidate.  Pruning:
    the joint PAF interval bound per shift, plus a PSD ceiling on the
    completed A side (_psd_max: a float64 cosine product on its exact PAF,
    no FFT).  psd_prune=False sets the ceiling to math.inf, which keeps every
    option at it by the same code.  A leaf has no unknown product left, so
    there the joint bound is PAF_A(s) + PAF_B(s) = -2 on shifts 1..ℓ//2:
    every leaf reached is a pair and is emitted as it is.  Even ℓ, which has
    no pair, is refused.

    The option matrices stay in lex order, shared by every search, like the
    plan's per-(ℓ, d) tables (_grid); a search keeps only its seeded option
    order, as lex indices per depth, each drawn on first use in depth order
    (_shuffled: shuffle's swaps, the same as drawing all up front).  Every option of a
    depth is scored at once by an exact float64 product: the PAF gain of
    option v in class j is ``v @ C_j`` plus a term of v alone at shifts ≡ 0
    (mod d), with ``C_j[t, s] = row[i_t + s] + row[i_t - s]``; the unknown
    products depend on the depth only.  The walk scores its one state per
    depth so (_score_state) down to the tail's first depth (_tail_start),
    the A side's last step from one PSD cut per frame above it (_a_ceiling
    in lex order, then _a_last_step; with one class the root is that step).
    A frame whose cut keeps nothing is counted whole in one step, its live
    children's subtrees included, and draws no order for them.  From the
    tail's first depth, one call scores the whole subtree a level at a time,
    every surviving state of a level against every option of the next
    (_score_block, with C_j folded into each class's _tail_options), keeping
    survivors in (state, option) order, which is preorder.  The tail's
    A-side last level takes one PSD cut per parent in the level above and
    the joint bound per state (_a_last_level).  Each option is one node, in
    the seeded order, so budgets cut the same tree prefix: a subtree counts
    its widths times its live states; when the budget or max_solutions cuts
    inside it, a leaf's preorder rank is its parent's, plus its option index
    and 1, plus the nodes below earlier live siblings.
    """
    cfg.validate()
    if cfg.strategy != "backtrack":
        raise SearchConfigError("uncompress_search requires strategy='backtrack'")
    if ell % 2 == 0:
        raise SearchConfigError(f"no Legendre pair has even length, got ℓ={ell}")
    plan = _plan(ell, cand.a, cand.b)
    steps, classes, plus, _, _, slack, options, _ = plan
    m, nshifts = plus.shape[1:]

    rng = random.Random(cfg.seed)
    orders = []  # per depth drawn so far, the lex index of each option in the seeded order

    def seeded(depth: int) -> np.ndarray:
        """A depth's seeded option order, drawn by _shuffled on first use after
        those of the depths above it: the swaps depend only on the length."""
        while len(orders) <= depth:
            orders.append(np.array(_shuffled(rng, len(options[len(orders)]))))
        return orders[depth]

    result = SearchResult()
    psd_limit = 2 * ell + 2 + PSD_CEILING_TOL if cfg.psd_prune else math.inf
    a_last_step = len(steps) - 2  # the A side is complete after it
    tail = _tail_start([len(x) for x in options])

    def chosen(depth: int, o) -> np.ndarray:
        """The ±1 values of the options at positions o of a depth's order,
        which is drawn: the positions came from it."""
        return options[depth][orders[depth][o], :m]

    def level(depth: int, states: np.ndarray, part: np.ndarray):
        """Score every option of a depth against every state: ``states`` are
        (F, 2, ℓ) rows, ``part`` their (F, 2, ℓ//2) partial PAFs.  Return the
        survivors in (state, option) order as state indices, option indices
        and their scored side's partial PAFs."""
        side, j = steps[depth]
        order = seeded(depth)
        q = _tail_options(ell, len(cand.a), j, (m - (cand.a, cand.b)[side][j]) // 2)
        chunk = max(1, TAIL_BLOCK // (len(order) * nshifts))
        found = []
        for lo in range(0, len(states), chunk):
            s, o, new = _score_block(q, order, states[lo:lo + chunk, side], part[lo:lo + chunk],
                                     side, slack[depth])
            found.append((s + lo, o, new))
        return found[0] if len(found) == 1 else [np.concatenate(x) for x in zip(*found)]

    def leaf_ranks(levels) -> np.ndarray:
        """Preorder rank of each leaf of a subtree, its root ranked 0."""
        below = [np.zeros(len(levels[-1][0]) if levels else 1, dtype=np.int64)]
        for i in range(len(levels) - 1, 0, -1):  # nodes below each survivor
            b = np.full(len(levels[i - 1][0]), len(options[tail + i]), dtype=np.int64)
            np.add.at(b, levels[i][0], below[0])
            below.insert(0, b)
        rank = np.zeros(1, dtype=np.int64)
        for (s, o), b in zip(levels, below):
            before = np.cumsum(b) - b  # nodes below the level's earlier survivors
            rank = rank[s] + o + 1 + before - before[np.searchsorted(s, s)]
        return rank

    rows = np.zeros((1, 2, ell), dtype=np.int8)  # the walk's state
    nodes, budget, stop = 0, cfg.budget_nodes, False

    def a_ceiling(part: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """_a_ceiling on the walk's state, its kept rows as positions in the
        seeded order of the A side's last step, drawn only if it keeps one."""
        keep, paf = _a_ceiling(plan, rows[0], part, psd_limit)
        if keep.any():
            return _in_order(seeded(a_last_step), keep, paf)
        return np.empty(0, dtype=np.intp), paf[:0]

    def enter(depth: int, part: np.ndarray, ceiling=None) -> list:
        """The walk frame [depth, surviving option indices, their partial PAFs,
        the partial PAFs at entry, survivors walked, options walked, its a_ceiling]."""
        live, new = (_a_last_step(ceiling, part, slack[depth]) if ceiling else
                     _score_state(plan, depth, seeded(depth), rows[0], part))
        return [depth, live.tolist(), new, part, 0, 0, None]

    def emit_tail(part: np.ndarray) -> Tuple[int, bool]:
        """Score the subtree below the walk's state from the tail's first
        depth on, a level at a time, and emit its leaves in preorder; return
        the nodes it adds and whether the search stops.  At the A side's
        last step _a_last_level scores the level from its states' parents.
        From depth len(steps) the subtree is the
        state alone, a leaf of rank 0."""
        # the frontier of states; its leaves once every depth is scored
        leaves, part, size, levels = rows, part[None], 0, []
        for depth in range(tail, len(steps)):
            if not len(leaves):
                break
            side, j = steps[depth]
            size += len(leaves) * len(options[depth])
            if depth == a_last_step:  # tail <= len(steps) - 3: levels[-1] exists
                s, o, new = _a_last_level(plan, seeded(depth), leaves, part, levels[-1][0],
                                          psd_limit)
            else:
                s, o, new = level(depth, leaves, part)
            levels.append((s, o))
            leaves = leaves[s]
            leaves[:, side, classes[j]] = chosen(depth, o)
            part = part[s]
            part[:, side] = new
        room = budget - nodes
        need = cfg.max_solutions - len(result.pairs) if cfg.max_solutions else 0
        cut, stops = size, False
        if size > room or 0 < need <= len(leaves):
            rank = leaf_ranks(levels)
            cut = min(room, int(rank[need - 1])) if 0 < need <= len(leaves) else room
            leaves, stops = leaves[: np.searchsorted(rank, cut, "right")], True
        for a, b in leaves.tolist():
            result.pairs.append((tuple(a), tuple(b)))
            result.codes.append(None)
        return cut, stops

    root = np.zeros((2, nshifts), dtype=np.int32)
    stack = []
    if tail == 0:
        nodes, stop = emit_tail(root)
    else:  # with one class (d = 1) the A side's last step is the root
        stack.append(enter(0, root, None if a_last_step else a_ceiling(root)))
    while stack:
        frame = stack[-1]
        depth, live, new, part, pos, taken, ceiling = frame
        side, j = steps[depth]
        if depth + 1 == a_last_step < tail and pos < len(live):
            if ceiling is None:
                ceiling = frame[6] = a_ceiling(part)
            if not len(ceiling[0]):
                # every live child's options are pruned: count their subtrees
                # with the frame's rest.  Each child's pre-visit count is
                # below this total, so it stops at the budget exactly when
                # counting child by child would
                nodes += (len(live) - pos) * len(options[a_last_step])
                pos = len(live)
        if pos == len(live):  # only pruned options, or children counted above, remain
            nodes += len(options[depth]) - taken
            if nodes > budget:
                nodes, stop = budget, True
                break
            rows[0, side, classes[j]] = 0
            stack.pop()
            continue
        k = live[pos]
        nodes += k - taken  # the pruned options walked before option k
        if nodes >= budget:
            nodes, stop = budget, True
            break
        nodes += 1
        frame[4:6] = pos + 1, k + 1
        rows[0, side, classes[j]] = chosen(depth, k)
        child = part.copy()
        child[side] = new[pos]
        if depth + 1 < tail:
            stack.append(enter(depth + 1, child, ceiling))
            continue
        added, stop = emit_tail(child)
        nodes += added
        if stop:
            break
    result.nodes_visited = nodes
    result.exhausted = not stop
    return result


# Selections decoded and filtered per numpy pass.  Results do not depend on
# it: survivors are matched one by one in selection order.  Each pass has a
# fixed cost of numpy and Python calls: 512 ran ≈27% faster than 256 at ℓ=21
# and ≈6% at ℓ=85, where its temporaries added ≈0.6 MB (1.5%) of peak memory.
CHUNK = 512


def _reduce(words: np.ndarray, total: int) -> np.ndarray:
    """(hi · 2**64 + lo) mod total, as int64, for rows [hi, lo] of uint64
    words and 0 < total < 2**63, exactly: hi mod total, then lo folded in
    by Horner in limbs of at most 64 - bitlen(total - 1) bits, so that
    every value stays below 2**64."""
    hi, lo = words.T.astype(np.uint64)
    t = np.uint64(total)
    width = min(64 - (total - 1).bit_length(), 63)
    r = hi % t
    pos = 64
    while pos:
        step = min(width, pos)
        pos -= step
        r <<= np.uint64(step)
        r |= lo >> np.uint64(pos) & np.uint64((1 << step) - 1)
        r %= t
    return r.view(np.int64)


def _selections(cfg: SearchConfig, n1: int, n2: int) -> Iterator[np.ndarray]:
    """Every selection at most once, in search order, as non-empty arrays of
    at most CHUNK keys rank2 · space1 + rank1 (0 <= rank1 < space1): the
    hints, then the rank-order scan or the seeded sampling.

    Keys are int64, or Python ints (object dtype) when space1 · space2 does
    not fit.  Every hint is checked before the first selection.  Sampling
    draws index i as v mod space1·space2, v the 16-byte blake2b digest of
    "seed:i" read big-endian, which is the pair (v mod space1, v // space1
    mod space2) as one key.  It draws no index past the budget.
    """
    k1, k2 = cfg.ones_orbits, cfg.twos_orbits
    space1, space2 = math.comb(n1, k1), math.comb(n2, k2)
    total = space1 * space2
    dtype = np.int64 if total < 2**63 else object
    for rank1, rank2 in cfg.hint_codes:
        # raise GroupError on an out-of-range hint; with no 2-orbits the only
        # twos rank is 0
        LexRankCode(n1, k1, rank1)
        LexRankCode(n2, k2, rank2)
    hints = np.array(
        list(dict.fromkeys(rank2 * space1 + rank1 for rank1, rank2 in cfg.hint_codes)), dtype=dtype
    )
    for lo in range(0, len(hints), CHUNK):
        yield hints[lo:lo + CHUNK]
    if cfg.exhaustive:
        # index i is (rank1, rank2) = divmod(i, space2); rank order never
        # repeats, so only the hints need dropping
        for lo in range(0, total, CHUNK):
            idx = np.arange(lo, min(lo + CHUNK, total), dtype=dtype)
            keys = idx % space2 * space1 + idx // space2
            if hints.size:
                keys = keys[np.isin(keys, hints, invert=True)]
            if keys.size:
                yield keys
        return
    # a selection is seen as its key, one int; the first draw of a key wins
    seen: Set[int] = set(hints.tolist())
    copy = hashlib.blake2b(f"{cfg.seed}:".encode(), digest_size=16).copy
    index, limit = 0, min(total, cfg.budget_nodes)
    while len(seen) < limit:
        digests = []
        append = digests.append
        for i in range(index, index + min(CHUNK, limit - len(seen))):
            h = copy()
            h.update(b"%d" % i)
            append(h.digest())
        index += len(digests)
        if dtype is object:
            keys = new = [int.from_bytes(d, "big") % total for d in digests]
        else:
            keys = _reduce(np.frombuffer(b"".join(digests), ">u8").reshape(-1, 2), total)
            new = keys.tolist()
        if not seen.isdisjoint(new):
            keys = new = [key for key in dict.fromkeys(new) if key not in seen]
        size = len(seen)
        seen.update(new)
        if len(seen) - size < len(new):  # a repeat within the chunk
            keys = list(dict.fromkeys(new))
        if len(seen) > size:
            yield np.asarray(keys, dtype=dtype)


def _orbit_columns(ell: int, table: OrbitTable, p2: bool) -> Tuple[np.ndarray, np.ndarray]:
    """How a selection's masks [ones | twos | never selected] give its
    sequence and its filters, both linear in the masks.

    Entry i of a sequence is residue i + 1, and the last entry is residue 0
    (always +1), as in sequence_from_block; column[i] is the mask column of
    the orbit holding that residue.  Row c of W sums over orbit c's entries
    i: the count in each class i mod 5 (when ``p2``), then cos and sin of
    2π(i + 1)k/ℓ for one frequency k per class of <generators, -1>, on which
    the PSD is constant.  O and -O make one class, whose least member is
    min(O[0], ℓ - O[-1]); r·k is reduced mod ℓ before the angle.
    """
    selectable = table.orbits_by_size.get(1, []) + table.orbits_by_size.get(2, [])
    column = np.full(ell, len(selectable))
    for c, orb in enumerate(selectable):
        column[[r - 1 for r in orb]] = c
    i = np.arange(ell)
    reps = sorted({min(o[0], ell - o[-1]) for orbs in table.orbits_by_size.values() for o in orbs})
    angle = 2 * np.pi / ell * ((i[:, None] + 1) * reps % ell)
    member = column == np.arange(len(selectable) + 1)[:, None]
    w = member @ np.concatenate((i[:, None] % 5 == np.arange(5 * p2), np.cos(angle), np.sin(angle)),
                                1, dtype=np.float64)
    for a in (column, w):  # shared by searches; _orbit_filter squares its product in place
        a.flags.writeable = False
    return column, w


@functools.lru_cache(maxsize=64)
def _orbit_setup(ell: int, generators: Tuple[int, ...], p2: bool) -> Tuple[OrbitTable, np.ndarray, np.ndarray]:
    """orbit_search's orbit table and _orbit_columns, which depend on (ℓ,
    generators, p2) alone.  Read-only: every search with them shares them.
    A miss calls this module's ``orbits`` by name, as the benchmark's tracer
    rebinds it."""
    table = orbits(ell, generators)
    return (table,) + _orbit_columns(ell, table, p2)


def _orbit_filter(ell: int, masks: np.ndarray, w: np.ndarray, p2: bool, limit: float) -> np.ndarray:
    """Which selections pass the p2 prefilter (when ``p2``) and the PSD
    ceiling ``limit`` (math.inf keeps every one), from one float64 GEMM
    z = Wᵀ @ masksᵀ (_orbit_columns), features × selections, so that both
    tests reduce over axis 0 of z and square it in place.

    p2 is exact: z holds integers of magnitude at most ℓ.  For k != 0,
    DFT_k = -2 Σ ω^(rk) over the selected residues r, so PSD_k = 4(Re² + Im²);
    its error is at most 8ℓ³·2**-53, far below PSD_CEILING_TOL.  A side of a
    pair has PSD <= 2ℓ + 2 at every k != 0, so this and the FFT of the ±1 row
    can only disagree on selections that no pair contains."""
    z = w.T @ masks.T.astype(np.float64)
    half = (len(z) + 5 * p2) // 2
    re, im = z[5 * p2:half], z[half:]
    np.square(re, out=re)
    re += np.square(im, out=im)
    keep = 4 * re.max(0) <= limit
    if p2:
        m5 = ell // 5
        keep &= ((m5 - 2 * z[:5]) ** 2).sum(0) == 4 * m5 + 1
    return keep


def _match(pool: Dict[bytes, list], pafs: np.ndarray, entries: Iterator[tuple],
           result: SearchResult, want: int) -> Optional[int]:
    """Add each PAF row (shifts 1..ℓ//2, int32) with its (sequence, codes)
    entry to ``pool`` in turn, and pair it with every pooled entry whose
    row is its complement -2 - PAF (the definition of a pair, so never
    checked again); a self-complementary row is the last entry of its own
    bucket and pairs with itself there.  Return the index of the row at
    which ``want`` pairs are reached (want 0: never), or None.  Pool keys
    are the bytes of C-ordered int32 rows, the rows' and their complements'
    from one view."""
    both = np.ascontiguousarray([pafs, -2 - pafs])
    keyed = both.view(np.dtype((np.void, both.strides[1]))).ravel().tolist()
    for i, key, comp, entry in zip(itertools.count(), keyed, keyed[len(pafs):], entries):
        pool.setdefault(key, []).append(entry)
        for other in pool.get(comp, ()):
            result.pairs.append((other[0], entry[0]))
            result.codes.append((other[1], entry[1]))
        if want and len(result.pairs) >= want:
            return i
    return None


def orbit_search(ell: int, cfg: SearchConfig) -> SearchResult:
    """Search block sequences built from whole multiplier orbits.

    The search is stream → decode → filter → pool, on an orbit table and
    filter matrix built once per process for each (ℓ, generators, p2)
    (_orbit_setup).  _selections yields keys, at most CHUNK at a time, from
    warm-start hints, then either an exhaustive scan or seeded counter-based
    sampling without replacement.  Each batch splits into ranks (rank1 =
    key mod space1, rank2 = key // space1) and LexRank masks, one table
    lookup per size class whose space is small (lex_unrank_masks).  Both
    filters, the exact compressed square-sum when 5 | ℓ and the PSD ceiling
    (math.inf with psd_prune off), run on the masks in orbit space
    (_orbit_filter: one GEMM per batch, one frequency per class of
    <generators, -1>).  The survivors alone get ±1 rows, exact integer PAF rows and codes, and _match pools
    them in selection order and emits every exact complement, PAF_A + PAF_B
    = -2, unchecked.  So budgets and max_solutions stop at the same
    selection as one at a time: the last batch is cut at the budget, and a
    max_solutions stop counts the selections up to the survivor that
    reached it.  Nodes count distinct selections, so the search is
    exhausted when they reach C(n1, k1)·C(n2, k2).
    """
    cfg.validate()
    if cfg.strategy != "orbit_restricted":
        raise SearchConfigError("orbit_search requires strategy='orbit_restricted'")
    p2 = ell % 5 == 0 and cfg.p2_prefilter
    table, column, w = _orbit_setup(ell, tuple(cfg.subgroup_generators), p2)
    n1 = table.class_count(1)
    n2 = table.class_count(2)
    k1, k2 = cfg.ones_orbits, cfg.twos_orbits
    if k1 < 0 or k2 < 0 or k1 > n1 or k2 > n2:
        raise SearchConfigError(
            f"selection counts ({k1},{k2}) exceed available orbits ({n1},{n2})"
        )
    want = (ell - 1) // 2
    if k1 * 1 + k2 * 2 != want:
        raise SearchConfigError(
            f"selection counts ({k1},{k2}) give block size {k1 + 2 * k2}, need {want}"
        )
    limit = 2 * ell + 2 + PSD_CEILING_TOL if cfg.psd_prune else math.inf

    result = SearchResult()
    pool: Dict[bytes, list] = {}  # PAF at shifts 1..ℓ//2 -> (sequence, codes) entries
    space1 = math.comb(n1, k1)
    nodes = 0
    for batch in _selections(cfg, n1, n2):
        batch = batch[:cfg.budget_nodes - nodes]
        ranks1, ranks2 = batch % space1, batch // space1
        twos = lex_unrank_masks(n2, k2, ranks2) if n2 else np.zeros((len(batch), 0), dtype=bool)
        masks = np.concatenate((lex_unrank_masks(n1, k1, ranks1), twos,
                                np.zeros((len(batch), 1), dtype=bool)), 1)
        live = np.flatnonzero(_orbit_filter(ell, masks, w, p2, limit))
        if live.size:  # most ℓ=55 and ℓ=85 batches have no survivor
            rows = 1 - 2 * masks[live][:, column].view(np.int8)
            pafs = paf_rows(rows.astype(np.int32), ell // 2 + 1)[:, 1:]  # |PAF| <= ℓ
            codes = [{1: (n1, k1, rank1), 2: (n2, k2, rank2)} if n2 else {1: (n1, k1, rank1)}
                     for rank1, rank2 in zip(ranks1[live].tolist(), ranks2[live].tolist())]
            last = _match(pool, pafs, zip(map(tuple, rows.tolist()), codes), result,
                          cfg.max_solutions)
            if last is not None:
                nodes += int(live[last]) + 1
                break
        nodes += len(batch)
        if nodes == cfg.budget_nodes:
            break

    result.nodes_visited = nodes
    # nodes count distinct selections, so all were searched exactly when
    # nodes reach their number; asking the stream would draw another chunk
    result.exhausted = nodes == space1 * math.comb(n2, k2)
    return result
