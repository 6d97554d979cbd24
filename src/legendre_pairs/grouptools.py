"""Multiplier-subgroup orbits on Z_ℓ \\ {0}, LexRank subset codec, blocks.

The length-85 construction selects whole orbits of the subgroup generated by
a multiplier, encodes each selection as the lexicographic rank of a k-subset,
and turns the union of selected orbits into the -1 positions of a sequence.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .seqcore import SequenceError


class GroupError(ValueError):
    """Invalid generator, rank, subset, or code."""


@dataclass(frozen=True)
class OrbitTable:
    """Orbit partition of {1..ℓ-1} under multiplication by the generators.

    Within each size class, orbits are ordered by increasing first (smallest)
    element; each orbit is stored ascending.
    """

    ell: int
    generators: Tuple[int, ...]
    orbits_by_size: Dict[int, List[Tuple[int, ...]]] = field(default_factory=dict)

    def class_count(self, size: int) -> int:
        return len(self.orbits_by_size.get(size, []))


def orbits(ell: int, generators: Sequence[int]) -> OrbitTable:
    """Partition {1..ℓ-1} into orbits of the multiplier subgroup <generators>."""
    if ell < 2:
        raise GroupError(f"modulus must be >= 2, got {ell}")
    gens = tuple(int(g) % ell for g in generators)
    for g in gens:
        if math.gcd(g, ell) != 1:
            raise GroupError(f"generator {g} is not a unit mod {ell}")
    seen = [False] * ell
    by_size: Dict[int, List[Tuple[int, ...]]] = {}
    for start in range(1, ell):
        if seen[start]:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            t = frontier.pop()
            for g in gens:
                u = (t * g) % ell
                if u not in orbit:
                    orbit.add(u)
                    frontier.append(u)
        for t in orbit:
            seen[t] = True
        by_size.setdefault(len(orbit), []).append(tuple(sorted(orbit)))
    for size in by_size:
        by_size[size].sort(key=lambda orb: orb[0])
    return OrbitTable(ell=ell, generators=gens, orbits_by_size=by_size)


def lex_unrank(n: int, k: int, rank: int) -> Tuple[int, ...]:
    """The rank-th k-subset of {1..n}, 0-based, in lexicographic order."""
    if k < 0 or k > n:
        raise GroupError(f"subset size {k} out of range for universe {n}")
    total = math.comb(n, k)
    if not 0 <= rank < total:
        raise GroupError(f"rank {rank} out of range [0, {total})")
    subset: List[int] = []
    r = rank
    v = 1
    for remaining in range(k, 0, -1):
        while True:
            block = math.comb(n - v, remaining - 1)
            if r < block:
                subset.append(v)
                v += 1
                break
            r -= block
            v += 1
    return tuple(subset)


@functools.lru_cache(maxsize=16)
def _lex_tail(t: int) -> Tuple[np.ndarray, np.ndarray]:
    """Every subset of t elements as packed bits (first element = the high
    bit of the first byte), the j-subsets in lex order from row start[j].

    Among subsets of one size, lex order is descending order of the bit
    pattern read with the first element highest.
    """
    value = np.arange(2**t - 1, -1, -1).astype(">u2")
    bits = np.unpackbits(value.view(np.uint8).reshape(-1, 2), axis=1)[:, 16 - t:]
    rows = np.packbits(bits[np.argsort(bits.sum(1), kind="stable")], axis=1)
    start = np.cumsum([0] + [math.comb(t, j) for j in range(t)])
    for a in (rows, start):
        a.flags.writeable = False
    return rows, start


# A space of at most this many k-subsets, of at most 32 elements, is decoded
# by one lookup in a table of its subsets: at most 1 MiB, 0.55 MB at (20, 10).
_TABLE_ROWS = 2**18


@functools.lru_cache(maxsize=64)
def _lex_groups(n: int, k: int) -> Tuple[Tuple[Tuple[np.ndarray, ...], ...], np.ndarray, Optional[np.ndarray]]:
    """Decode tables of lex_unrank_masks: one per head group of 8 elements,
    then the _lex_tail rows and starts of a tail of 5 to 12 elements, or all
    n when n <= 12.  (A 16-element tail raised ℓ=85 peak memory by ≈8% while
    it built its 65,536 rows.)  When the k-subsets of all n elements fit one
    table (C(n, k) <= _TABLE_ROWS and n <= 32), the result is instead no head
    group, that table as packed rows in lex order (a rank is its row) and
    start None.  The head-group decode builds the table 4,096 ranks at a
    time, so building it holds little more than the table.

    In lex order the k-subsets that agree on a group are contiguous, their
    8-bit patterns (bit 7 = the group's first element) in descending order,
    and a pattern with c of the `left` elements still to place covers
    C(n_after, left - c) subsets.  A decode state is q = rank within the
    rest + left·(total + 1), total = C(n, k), so one sorted array per group
    holds every `left` as its own segment: `end[i]` is the state just past
    pattern i's range, `step[i]` what taking it subtracts from q to give the
    next group's state, and `byte[i]` the pattern.  Every rank is below total,
    so capping counts there changes no decision, and the tables are int64
    whenever a segment's sum of capped counts fits.  After the last head
    group, q // (total + 1) is the number of tail elements to take and
    q % (total + 1) their rank among the subsets of the tail.
    """
    total = math.comb(n, k)
    width = total + 1
    dtype = np.int64 if 256 * (k + 1) * width < 2**63 else object
    byte = np.arange(255, -1, -1, dtype=np.uint8)
    bits = np.unpackbits(byte[:, None], axis=1)
    rest = np.arange(k + 1)[:, None] - bits.sum(1, dtype=np.int64)  # left after each pattern
    base = np.arange(k + 1).astype(dtype)[:, None] * width
    head = max(n - 5, 0) // 8 * 8
    groups = []
    for g in range(0, head, 8):
        # the segments of the `left` values a k-subset can reach here
        live = slice(max(k - g, 0), min(k, n - g) + 1)
        after = rest[live]
        ways = np.array([min(math.comb(n - g - 8, j), total) for j in range(k + 1)], dtype=dtype)
        count = np.where(after >= 0, ways[after.clip(0)], 0)
        end = np.cumsum(count, 1)
        step = np.minimum(end - count, total) + base[live] - after.clip(0).astype(dtype) * width
        tables = ((np.minimum(end, total) + base[live]).reshape(-1), step.reshape(-1),
                  np.tile(byte, len(after)))
        for t in tables:
            t.flags.writeable = False
        groups.append(tables)
    tail, start = _lex_tail(n - head)
    if total > _TABLE_ROWS or n > 32:
        return tuple(groups), tail, start
    table = np.empty((total, -(-n // 8)), dtype=np.uint8)
    for lo in range(0, total, 4096):
        table[lo:lo + 4096] = _unrank_packed(k, total, groups, tail, start,
                                             np.arange(lo, min(lo + 4096, total)))
    table.flags.writeable = False
    return (), table, None


def _unrank_packed(k: int, total: int, groups: Sequence[Tuple[np.ndarray, ...]], tail: np.ndarray,
                   start: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Packed rows of the subsets of ranks r, by _lex_groups' head groups
    and tail."""
    q = r + k * (total + 1)
    packed = np.empty((len(r), len(groups) + tail.shape[1]), dtype=np.uint8)
    for g, (end, step, byte) in enumerate(groups):
        at = np.searchsorted(end, q, side="right")
        packed[:, g] = byte[at]
        q = q - step[at]
    left = (q // (total + 1)).astype(np.intp)
    packed[:, len(groups):] = tail.take(start[left] + (q % (total + 1)).astype(np.intp), axis=0)
    return packed


def lex_unrank_masks(n: int, k: int, ranks: Sequence[int]) -> np.ndarray:
    """Batched lex_unrank: row r is the membership mask of the ranks[r]-th
    k-subset of {1..n}, with column v-1 set when element v is in it.

    A space of at most _TABLE_ROWS subsets of at most 32 elements takes one
    lookup in the table of its subsets, as (16, 12) and (20, 10) do.  A
    larger one decodes 8 elements per numpy pass, one searchsorted per head
    group, then the tail by one lookup in _lex_tail (_lex_groups): three
    passes at (34, 15).  Exact integer work: ranks are int64 when the decode
    state fits and Python ints (object dtype) otherwise.
    """
    if k < 0 or k > n:
        raise GroupError(f"subset size {k} out of range for universe {n}")
    total = math.comb(n, k)
    groups, tail, start = _lex_groups(n, k)
    r = np.array(ranks, dtype=groups[0][0].dtype if groups else np.int64).reshape(-1)
    bad = (r < 0) | (r >= total)
    if bad.any():
        raise GroupError(f"rank {r[bad.argmax()]} out of range [0, {total})")
    packed = tail.take(r, axis=0) if start is None else _unrank_packed(k, total, groups, tail, start, r)
    return np.unpackbits(packed, axis=1, count=n).view(bool)


def lex_rank(n: int, subset: Iterable[int]) -> int:
    """Inverse of lex_unrank: 0-based lexicographic rank of an ascending subset."""
    elems = tuple(int(v) for v in subset)
    if any(e < 1 or e > n for e in elems):
        raise GroupError(f"subset {elems} not within {{1..{n}}}")
    if list(elems) != sorted(set(elems)):
        raise GroupError(f"subset must be strictly ascending, got {elems}")
    k = len(elems)
    rank = 0
    prev = 0
    for pos, e in enumerate(elems):
        for v in range(prev + 1, e):
            rank += math.comb(n - v, k - pos - 1)
        prev = e
    return rank


@dataclass(frozen=True)
class LexRankCode:
    """A k-subset of {1..n} addressed by its lexicographic rank."""

    n: int
    k: int
    rank: int

    def __post_init__(self):
        if not 0 <= self.rank < math.comb(self.n, self.k):
            raise GroupError(
                f"rank {self.rank} out of range for C({self.n},{self.k})"
            )

    def decode(self) -> Tuple[int, ...]:
        return lex_unrank(self.n, self.k, self.rank)


@dataclass(frozen=True)
class Block:
    """Ascending positions (residues in {1..ℓ-1}) of the -1 entries."""

    ell: int
    positions: Tuple[int, ...]

    def __post_init__(self):
        pos = self.positions
        if any(p < 1 or p >= self.ell for p in pos):
            raise GroupError(f"block positions must lie in 1..{self.ell - 1}")
        if list(pos) != sorted(set(pos)):
            raise GroupError("block positions must be strictly ascending")


def block_from_codes(table: OrbitTable, codes: Dict[int, LexRankCode]) -> Block:
    """Union of the orbits selected by per-size-class LexRank codes."""
    positions: List[int] = []
    for size, code in sorted(codes.items()):
        cls = table.orbits_by_size.get(size, [])
        if code.n != len(cls):
            raise GroupError(
                f"code universe {code.n} != {len(cls)} orbits of size {size}"
            )
        for idx in code.decode():
            positions.extend(cls[idx - 1])
    return Block(ell=table.ell, positions=tuple(sorted(positions)))


def codes_from_block(table: OrbitTable, block: Block) -> Dict[int, LexRankCode]:
    """Re-encode a block that is a union of whole orbits back to rank codes."""
    remaining = set(block.positions)
    selected: Dict[int, List[int]] = {}
    for size, cls in table.orbits_by_size.items():
        for idx, orb in enumerate(cls, start=1):
            members = set(orb)
            if members <= remaining:
                selected.setdefault(size, []).append(idx)
                remaining -= members
            elif members & remaining:
                raise GroupError(
                    f"block splits orbit {orb}; not a union of whole orbits"
                )
    if remaining:
        raise GroupError(f"positions {sorted(remaining)} not covered by any orbit")
    return {
        size: LexRankCode(
            n=len(table.orbits_by_size[size]),
            k=len(idxs),
            rank=lex_rank(len(table.orbits_by_size[size]), sorted(idxs)),
        )
        for size, idxs in selected.items()
    }


def sequence_from_block(block: Block) -> Tuple[int, ...]:
    """Length-ℓ ±1 sequence listing residues 1,2,...,ℓ-1,0 in order.

    Entry i holds the value at residue i+1 (mod ℓ): -1 exactly on the block,
    +1 elsewhere; the final entry is residue 0, always +1.  Starting the
    vector at residue 1 makes the m-compression line up with the block
    fixtures; PAF/PSD checks are unaffected (cyclic rotation).
    """
    posset = set(block.positions)
    return tuple(
        -1 if ((i + 1) % block.ell) in posset else 1 for i in range(block.ell)
    )


def block_from_sequence(ell: int, seq: Sequence[int]) -> Block:
    """Inverse of sequence_from_block (requires +1 at residue 0)."""
    if len(seq) != ell:
        raise SequenceError(f"length {len(seq)} != {ell}")
    if seq[ell - 1] != 1:
        raise GroupError("residue 0 carries -1; sequence is not block-coded")
    return Block(
        ell=ell,
        positions=tuple(i + 1 for i in range(ell - 1) if seq[i] == -1),
    )
