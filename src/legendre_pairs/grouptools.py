"""Multiplier-subgroup orbits on Z_ℓ \\ {0}, LexRank subset codec, blocks.

The length-85 construction selects whole orbits of the subgroup generated by
a multiplier, encodes each selection as the lexicographic rank of a k-subset,
and turns the union of selected orbits into the -1 positions of a sequence.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

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


@functools.lru_cache(maxsize=64)
def _lex_blocks(n: int, k: int) -> np.ndarray:
    """block[v-1, j] = C(n - v, j - 1): the subsets that take v when j
    elements are still to be placed (0 when none are).  A rank is below
    C(n, k), so capping a block there changes no decision of the decode and
    keeps int64 exact whenever C(n, k) fits."""
    total = math.comb(n, k)
    block = np.array(
        [[0] + [min(math.comb(n - v, j - 1), total) for j in range(1, k + 1)]
         for v in range(1, n + 1)],
        dtype=np.int64 if total < 2**63 else object,
    ).reshape(n, k + 1)
    block.flags.writeable = False
    return block


def lex_unrank_masks(n: int, k: int, ranks: Sequence[int]) -> np.ndarray:
    """Batched lex_unrank: row r is the membership mask of the ranks[r]-th
    k-subset of {1..n}, with column v-1 set when element v is in it.

    Exact integer work: ranks are int64 when C(n, k) < 2**63 and Python ints
    (object dtype) otherwise.
    """
    if k < 0 or k > n:
        raise GroupError(f"subset size {k} out of range for universe {n}")
    total = math.comb(n, k)
    block = _lex_blocks(n, k)
    r = np.array(ranks, dtype=block.dtype).reshape(-1)
    bad = (r < 0) | (r >= total)
    if bad.any():
        raise GroupError(f"rank {r[bad.argmax()]} out of range [0, {total})")
    left = np.full(len(r), k)
    masks = np.empty((n, len(r)), dtype=bool)
    for v, row in enumerate(block):  # as lex_unrank: take v, or skip its block
        size = row[left]
        take = np.less(r, size, out=masks[v])
        size[take] = 0
        r -= size
        left -= take
    return masks.T


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
