"""Decompression: recover full ±1 pairs from a compressed candidate, and the
orbit-restricted whole-sequence search used at length 85.

Both engines are deterministic functions of (input, config, seed); search
shards never share mutable state, so results merge by concatenation.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .candgen import CandidatePair
from .grouptools import LexRankCode, lex_unrank_masks, orbits
from .seqcore import compress, paf, paf_rows, psd_vector, verify_legendre_pair

# No search calls these any more; the benchmark's tracer (bench/tracing.py)
# rebinds them by name in this module, so they stay importable from it.
from .grouptools import block_from_codes, sequence_from_block  # noqa: F401
from .seqcore import paf_vector  # noqa: F401

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


def uncompress_search(ell: int, cand: CandidatePair, cfg: SearchConfig) -> SearchResult:
    """Depth-first search for ±1 pairs whose m-compressions equal (cand.a, cand.b).

    Entries are assigned a whole residue class at a time, sides interleaved
    within a class; each class j of a side has exactly (m - row_j)/2 entries
    equal to -1.  Pruning: joint PAF interval/parity bounds per shift, the
    per-side compression identity per shift class mod d, plus an optional PSD
    ceiling on the completed A side.

    Every option of a depth is scored at once when the search enters it: the
    PAF gain of option v in class j is ``v @ C_j`` plus a term of v alone at
    shifts ≡ 0 (mod d), with ``C_j[t, s] = row[i_t + s] + row[i_t - s]``; the
    unknown products depend on the depth only.  Each option still counts as
    one node, in the seeded order, so budgets cut the same tree prefix.
    """
    cfg.validate()
    if cfg.strategy != "backtrack":
        raise SearchConfigError("uncompress_search requires strategy='backtrack'")
    d = len(cand.a)
    if len(cand.b) != d or d == 0 or ell % d != 0:
        raise SearchConfigError(f"candidate shape {d} does not divide ℓ={ell}")
    m = ell // d
    negs = (_negative_counts(cand.a, m), _negative_counts(cand.b, m))

    classes = np.arange(ell).reshape(m, d).T  # classes[j] = (j, j + d, ...)
    # most-constrained-first: fewest subset choices first
    order = sorted(
        range(d), key=lambda j: (math.comb(m, negs[0][j]) * math.comb(m, negs[1][j]), j)
    )
    steps = [(side, j) for j in order for side in (0, 1)]
    nshifts = ell // 2
    shifts = np.arange(1, nshifts + 1)
    plus = (classes[:, :, None] + shifts) % ell
    minus = (classes[:, :, None] - shifts) % ell
    # at a half-period shift (even ℓ) i + s and i - s are one entry: gather
    # the second term from the class's own entry, still 0 while it is scored
    minus = np.where(minus == plus, classes[:, :, None], minus)

    # Shift classes mod d and their exact per-side targets from the
    # compression identity: sum of PAF(j) over j ≡ ±c (mod d), folded onto
    # tracked shifts 1..ℓ//2, equals paf(compressed, c) (halved for c = 0,
    # net of PAF(0) = ℓ).
    shift_class = np.minimum(shifts % d, -shifts % d)
    class_ids = sorted(set(shift_class.tolist()))
    fold = (shift_class[:, None] == class_ids).astype(np.int64)
    targets = [
        np.array([(paf(row, 0) - ell) // 2 if c == 0 else paf(row, c) for c in class_ids])
        for row in (cand.a, cand.b)
    ]
    own = shifts[shifts % d == 0]  # shifts that pair a class with itself
    # Every product is ±1, so per shift a partial PAF plus its unknown
    # products is ≡ ℓ (mod 2).  Hence the joint bound's gap minus slack is
    # always even, and the class bound's is ≡ its target minus ℓ times the
    # shifts in the class for every option at every depth: one parity test
    # per candidate (it fails for m = 2).
    parity_ok = all(((t - ell * fold.sum(0)) % 2 == 0).all() for t in targets)

    rng = random.Random(cfg.seed)
    values, intra, slack = [], [], []
    seen = np.zeros((2, ell), dtype=bool)
    unknown = np.full((2, nshifts), ell, dtype=np.int64)
    for side, j in steps:
        opts = list(itertools.combinations(classes[j].tolist(), negs[side][j]))
        rng.shuffle(opts)
        neg = np.array(opts, dtype=np.int64).reshape(len(opts), -1) // d
        v = np.ones((len(opts), m), dtype=np.int64)
        np.put_along_axis(v, neg, -1, axis=1)
        values.append(v)
        # products inside the class: the option's own cyclic PAF at s/d
        intra.append((v[:, :, None] * v[:, (np.arange(m)[:, None] + own // d) % m]).sum(1))
        # products fixed by this step: partners already assigned at i - s
        # (outside the class), and at i + s once the class itself is assigned
        done = seen[side, minus[j]].sum(0)
        seen[side, classes[j]] = True
        unknown[side] -= done + seen[side, plus[j]].sum(0)
        # bound limits after this step: unknowns per shift of both sides,
        # then per shift class of this side
        slack.append(np.concatenate((unknown.sum(0), unknown[side] @ fold)))

    result = SearchResult()
    psd_limit = 2 * ell + 2 + PSD_CEILING_TOL
    a_last_step = len(steps) - 2  # the A side is complete after it
    rows = np.zeros((2, ell), dtype=np.int64)

    def score(depth: int, part: Tuple[np.ndarray, np.ndarray]) -> list:
        """Score every option of a depth against the current rows; return the
        walk frame [depth, surviving option indices, their partial PAFs, the
        partial PAFs at entry, survivors walked, options walked]."""
        side, j = steps[depth]
        v = values[depth]
        gain = v @ (rows[side, plus[j]] + rows[side, minus[j]])
        gain[:, own - 1] += intra[depth]
        new = part[side] + gain
        gap = np.concatenate((-2 - new - part[1 - side], targets[side] - new @ fold), 1)
        lim = slack[depth]
        ok = ~(np.abs(gap) > lim).any(1)
        if cfg.psd_prune and depth == a_last_step and ok.any():
            idx = np.flatnonzero(ok)
            full = np.repeat(rows[:1], len(idx), 0)
            full[:, classes[j]] = v[idx]
            ok[idx[psd_vector(full)[:, 1:].max(1) > psd_limit]] = False
        live = np.flatnonzero(ok)
        return [depth, live.tolist(), new[live], part, 0, 0]

    nodes, budget, stop = 0, cfg.budget_nodes, False
    stack = [score(0, (np.zeros(nshifts, np.int64), np.zeros(nshifts, np.int64)))]
    if not parity_ok:  # no option of any depth passes: walk depth 0 as pruned
        stack[0][1] = []
    while stack:
        frame = stack[-1]
        depth, live, new, part, pos, taken = frame
        side, j = steps[depth]
        if pos == len(live):  # only pruned options remain at this depth
            nodes += len(values[depth]) - taken
            if nodes > budget:
                nodes, stop = budget, True
                break
            rows[side, classes[j]] = 0
            stack.pop()
            continue
        k = live[pos]
        nodes += k - taken  # the pruned options walked before option k
        if nodes >= budget:
            nodes, stop = budget, True
            break
        nodes += 1
        frame[4:] = pos + 1, k + 1
        rows[side, classes[j]] = values[depth][k]
        child = (new[pos], part[1]) if side == 0 else (part[0], new[pos])
        if depth + 1 < len(steps):
            stack.append(score(depth + 1, child))
            continue
        A, B = tuple(rows[0].tolist()), tuple(rows[1].tolist())
        rep = verify_legendre_pair(A, B)
        if rep.is_legendre_pair and compress(A, m) == cand.a and compress(B, m) == cand.b:
            result.pairs.append((A, B))
            result.codes.append(None)
            if cfg.max_solutions and len(result.pairs) >= cfg.max_solutions:
                stop = True
                break
    result.nodes_visited = nodes
    result.exhausted = not stop
    return result


def _selection_hash(seed: int, index: int, space1: int, space2: int) -> Tuple[int, int]:
    """Counter-based pseudo-random selection pair: splittable and reproducible."""
    digest = hashlib.blake2b(
        f"{seed}:{index}".encode(), digest_size=16
    ).digest()
    v = int.from_bytes(digest, "big")
    return (v % space1, (v // space1) % space2)


# Selections decoded and filtered per numpy pass.  Results do not depend on
# it: survivors are matched one by one in selection order.  At ℓ=85, 512 ran
# ≈7% faster but its float PSD temporaries raised peak memory by ≈3%.
CHUNK = 256


def _selections(cfg: SearchConfig, n1: int, n2: int) -> Iterator[Tuple[int, int]]:
    """Every (ones_rank, twos_rank) selection at most once, in search order:
    the hints, then the rank-order scan or the seeded sampling."""
    k1, k2 = cfg.ones_orbits, cfg.twos_orbits
    space1, space2 = math.comb(n1, k1), math.comb(n2, k2)
    # a selection is seen as the one int rank2 * space1 + rank1 (0 <= rank1 <
    # space1), half the memory of the tuple over a long sampling run
    seen: Set[int] = set()
    for rank1, rank2 in cfg.hint_codes:
        LexRankCode(n1, k1, rank1)  # raises GroupError on an out-of-range hint
        if n2:
            LexRankCode(n2, k2, rank2)
        key = rank2 * space1 + rank1
        if key not in seen:
            seen.add(key)
            yield rank1, rank2
    if cfg.exhaustive:
        # rank order never repeats, so only the hints need skipping
        for rank1 in range(space1):
            for rank2 in range(space2):
                if rank2 * space1 + rank1 not in seen:
                    yield rank1, rank2
        return
    index = 0
    while len(seen) < space1 * space2:
        rank1, rank2 = _selection_hash(cfg.seed, index, space1, space2)
        index += 1
        key = rank2 * space1 + rank1
        if key not in seen:
            seen.add(key)
            yield rank1, rank2


def orbit_search(ell: int, cfg: SearchConfig) -> SearchResult:
    """Search block sequences built from whole multiplier orbits.

    Stage 1 filters each selection (exact compressed square-sum when 5 | ℓ,
    then a PSD ceiling); stage 2 pairs up pool members whose PAF vectors are
    exact complements.  Selections arrive from warm-start hints, then either
    an exhaustive scan or seeded counter-based sampling without replacement.

    Selections are decoded and filtered CHUNK at a time: LexRank masks pick
    orbit columns into a (chunk × ℓ) ±1 matrix, the square-sum and the PSD
    ceiling run on the whole stack, and exact integer PAF rows are computed
    for the survivors only.  Survivors enter the pool in selection order, so
    budgets and max_solutions stop at the same selection as one at a time.
    """
    cfg.validate()
    if cfg.strategy != "orbit_restricted":
        raise SearchConfigError("orbit_search requires strategy='orbit_restricted'")
    table = orbits(ell, cfg.subgroup_generators)
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
    m5 = ell // 5 if ell % 5 == 0 else None
    psd_limit = 2 * ell + 2 + PSD_CEILING_TOL
    # Entry i of a sequence is residue i + 1, and the last entry is residue 0
    # (always +1), as in sequence_from_block.  column[i] is the mask column of
    # the orbit holding that residue, in [ones | twos | never selected].
    column = np.full(ell, n1 + n2)
    for c, orb in enumerate(table.orbits_by_size.get(1, []) + table.orbits_by_size.get(2, [])):
        column[[r - 1 for r in orb]] = c

    result = SearchResult()
    pool: Dict[bytes, List[int]] = {}  # PAF at shifts 1..ℓ//2 -> pool indices
    pool_seqs: List[Tuple[int, ...]] = []
    pool_codes: List[dict] = []
    stream = _selections(cfg, n1, n2)
    nodes, stop, rest = 0, False, []
    while not stop and nodes < cfg.budget_nodes:
        batch = list(itertools.islice(stream, min(CHUNK, cfg.budget_nodes - nodes)))
        if not batch:
            break
        ranks1, ranks2 = zip(*batch)
        masks = [lex_unrank_masks(n1, k1, ranks1)]
        if n2:
            masks.append(lex_unrank_masks(n2, k2, ranks2))
        masks.append(np.zeros((len(batch), 1), dtype=bool))
        rows = np.where(np.concatenate(masks, 1)[:, column], np.int8(-1), np.int8(1))
        live = np.arange(len(batch))
        if m5 is not None and cfg.p2_prefilter:
            compressed = rows.reshape(len(batch), m5, 5).sum(1)
            live = live[(compressed * compressed).sum(1) == 4 * m5 + 1]
        if cfg.psd_prune and live.size:
            live = live[psd_vector(rows[live])[:, 1:].max(1) <= psd_limit]
        rows = rows[live]
        pafs = paf_rows(rows.astype(np.int32), ell // 2 + 1)[:, 1:]  # |PAF| <= ℓ

        for i, row, pv, cv in zip(live.tolist(), rows.tolist(), pafs, -2 - pafs):
            rank1, rank2 = batch[i]
            seq = tuple(row)
            codes = {1: (n1, k1, rank1)}
            if n2:
                codes[2] = (n2, k2, rank2)
            key, comp = pv.tobytes(), cv.tobytes()
            mine = len(pool_seqs)
            pool_seqs.append(seq)
            pool_codes.append(codes)
            pool.setdefault(key, []).append(mine)
            for other in pool.get(comp, ()):
                if other != mine and verify_legendre_pair(pool_seqs[other], seq).is_legendre_pair:
                    result.pairs.append((pool_seqs[other], seq))
                    result.codes.append((pool_codes[other], codes))
            if comp == key and verify_legendre_pair(seq, seq).is_legendre_pair:
                result.pairs.append((seq, seq))
                result.codes.append((codes, codes))
            if cfg.max_solutions and len(result.pairs) >= cfg.max_solutions:
                stop, rest = True, batch[i + 1 :]
                break
        nodes += len(batch) - len(rest)

    result.nodes_visited = nodes
    result.exhausted = not rest and next(stream, None) is None
    return result
