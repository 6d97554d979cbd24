"""Candidate compressed pairs: the d=5 conjecture-driven generator and the
general constraint-list generator for other compression shapes.

A candidate is a pair of integer sequences (a, b) of length d = ℓ/m that a
real Legendre pair could compress to: entry sums 1, joint PAF deficit -2m at
every nonzero shift, and (d=5 conjecture form) square-sum 4m+1 per side.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .diophantine import admits_unit_sum, odd_five_squares, signed_orderings
from .seqcore import paf, paf_vector, psd_vector


class ProfileError(ValueError):
    """A generation profile violates one of its count/parity identities."""


@dataclass(frozen=True)
class CandidatePair:
    """A compressed pair with its balanced-split coefficient x (d=5 only)."""

    a: Tuple[int, ...]
    b: Tuple[int, ...]
    ell: int
    m: int
    x: Optional[int] = None

    def check(self) -> None:
        """Re-validate the defining constraints from scratch."""
        d = len(self.a)
        if len(self.b) != d or self.ell != d * self.m:
            raise ValueError("inconsistent candidate shape")
        if sum(self.a) != 1 or sum(self.b) != 1:
            raise ValueError("entry sums must be 1")
        pa, pb = paf_vector(self.a), paf_vector(self.b)
        for s in range(1, d):
            if pa[s] + pb[s] != -2 * self.m:
                raise ValueError(f"joint PAF at shift {s} is {pa[s] + pb[s]}")
        if self.x is not None and pa[1] - pa[2] != self.x:
            raise ValueError("recorded x does not match PAF(1)-PAF(2)")


def _least_image(t: Tuple[int, ...]) -> Tuple[int, ...]:
    """The per-side canonical form: the least rotation or reversal of t."""
    rots = [t[i:] + t[:i] for i in range(len(t))]
    return min(rots + [r[::-1] for r in rots])


def _canonical_key(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Least image under per-side rotation/reversal and side swap, over the
    orientations whose first side has x >= 0.

    Lex order compares the first side first, so the least image of a pair
    is the pair of its sides' least images.
    """
    la, lb = _least_image(a), _least_image(b)
    keys = [key for key, first in (((la, lb), a), ((lb, la), b))
            if paf(first, 1) - paf(first, 2) >= 0]
    if not keys:  # complementary sides have opposite x
        raise ValueError("sides are not complementary: both have x < 0")
    return min(keys)


def canonicalize(pair: CandidatePair) -> CandidatePair:
    """Idempotent canonical form over shifts, reversals, and side swap."""
    a, b = _canonical_key(pair.a, pair.b)
    return CandidatePair(a=a, b=b, ell=pair.ell, m=pair.m,
                         x=paf(a, 1) - paf(a, 2))


def candidates_d5(m: int, x_filter: Optional[Set[int]] = None) -> List[CandidatePair]:
    """All canonical d=5 conjecture-form candidates for length ℓ = 5m.

    Both sides range over unit-sum signed arrangements of the all-odd
    five-square solutions of 4m+1; pairs are kept when the joint PAF deficit
    is exactly -2m at shifts 1 and 2 (shifts 3,4 follow by symmetry).  PAF
    is invariant under rotation and reversal, so each side is taken once, as
    its least image, and its partners are one lookup by (PAF(1), PAF(2)).
    """
    if m < 1 or m % 2 == 0:
        raise ValueError(f"m must be a positive odd integer, got {m}")
    tuples: Set[Tuple[int, ...]] = set()
    for sol in odd_five_squares(m):
        if admits_unit_sum(sol):
            tuples.update(signed_orderings(sol))
    by_profile: Dict[Tuple[int, int], List[Tuple[int, ...]]] = {}
    for t in {_least_image(t) for t in tuples}:
        by_profile.setdefault((paf(t, 1), paf(t, 2)), []).append(t)
    target = -2 * m
    keys: Set[Tuple[Tuple[int, ...], Tuple[int, ...]]] = set()
    for (p1, p2), firsts in by_profile.items():
        for a in firsts:
            for b in by_profile.get((target - p1, target - p2), ()):
                keys.add(_canonical_key(a, b))
    out = [CandidatePair(a=a, b=b, ell=5 * m, m=m, x=paf(a, 1) - paf(a, 2))
           for a, b in sorted(keys)]
    return [p for p in out if x_filter is None or p.x in x_filter]


@dataclass
class GenerationProfile:
    """Constraint list for the general candidate generator.

    abs_value_counts maps magnitude -> total count across the pair (2d
    entries in all); balanced additionally forces the per-side split in half.
    """

    ell: int
    m: int
    d: int
    abs_value_counts: Dict[int, int]
    balanced: bool = False
    x_filter: Optional[Set[int]] = None
    budget: Optional[int] = None
    seed: int = 0

    def validate(self) -> None:
        if self.ell != self.d * self.m:
            raise ProfileError(f"ell={self.ell} != d*m = {self.d * self.m}")
        total = sum(self.abs_value_counts.values())
        if total != 2 * self.d:
            raise ProfileError(
                f"magnitude counts sum to {total}, need 2*d = {2 * self.d}"
            )
        for mag, cnt in self.abs_value_counts.items():
            if cnt < 0:
                raise ProfileError(f"negative count for magnitude {mag}")
            if cnt == 0 and mag >= 1:  # a key below 1 adds values to the orders at any count
                continue
            if mag < 1 or mag > self.m or mag % 2 != self.m % 2:
                raise ProfileError(
                    f"magnitude {mag} outside the compressed alphabet for m={self.m}"
                )
            if self.balanced and cnt % 2 != 0:
                raise ProfileError(
                    f"balanced split needs an even count for magnitude {mag}, got {cnt}"
                )

    def side_counts(self) -> Optional[Dict[int, int]]:
        """Per-sequence magnitude counts when balanced, else None."""
        if not self.balanced:
            return None
        return {mag: cnt // 2 for mag, cnt in self.abs_value_counts.items()}

    def admits(self, a: Sequence[int], b: Sequence[int]) -> bool:
        """Check a concrete pair against every profile constraint."""
        self.validate()
        a, b = tuple(a), tuple(b)
        if len(a) != self.d or len(b) != self.d:
            return False
        counts: Dict[int, int] = {}
        for v in a + b:
            counts[abs(v)] = counts.get(abs(v), 0) + 1
        expected = {mag: cnt for mag, cnt in self.abs_value_counts.items() if cnt}
        if counts != expected:
            return False
        if self.balanced:
            half = {mag: cnt for mag, cnt in self.side_counts().items() if cnt}
            for side in (a, b):
                side_counts: Dict[int, int] = {}
                for v in side:
                    side_counts[abs(v)] = side_counts.get(abs(v), 0) + 1
                if side_counts != half:
                    return False
        if sum(a) != 1 or sum(b) != 1:
            return False
        pa, pb = paf_vector(a), paf_vector(b)
        if any(pa[s] + pb[s] != -2 * self.m for s in range(1, self.d)):
            return False
        # spectral condition: follows exactly from the PAF identity, but
        # recheck in float as an independent belt
        sa, sb = psd_vector(a), psd_vector(b)
        if any(abs(sa[k] + sb[k] - (2 * self.ell + 2)) > 1e-6 for k in range(1, self.d)):
            return False
        return True


def _shift_tables(d: int) -> Tuple[List[List[Tuple[int, int]]], List[List[int]]]:
    """Per position, the earlier positions of its side that each shift
    pairs it with; per depth, the products per shift still unknown after it.

    Positions fill a0, b0, a1, b1, ... with nonzero values, so entry pos
    meets at shift s the members of {(pos ± s) mod d} below pos, one at
    s = d/2.  Each shift lists two, padded with d, where rows hold a zero.
    """
    shifts = range(1, d // 2 + 1)
    met = [[[j for j in {(pos + s) % d, (pos - s) % d} if j < pos] for s in shifts]
           for pos in range(d)]
    unknown, left = [], [2 * d] * len(shifts)
    for depth in range(2 * d):
        left = [u - len(js) for u, js in zip(left, met[depth // 2])]
        unknown.append(left)
    return [[tuple(js + [d, d])[:2] for js in row] for row in met], unknown


def candidates_general(profile: GenerationProfile) -> Iterator[CandidatePair]:
    """Deterministic seeded stream of pairs satisfying the profile.

    Backtracking over positions in interleaved (a0, b0, a1, b1, ...) order
    with running joint-PAF interval/parity pruning; stops at profile.budget
    nodes when set.
    """
    profile.validate()
    d, m = profile.d, profile.m
    target = -2 * m
    rng = random.Random(profile.seed)
    mags = sorted(profile.abs_value_counts)
    square = max(mags) ** 2

    # magnitudes left to place, per side when balanced (a side's remaining
    # entries then use all of its own), else joint
    half = profile.side_counts()
    pools = [dict(half), dict(half)] if half else [dict(profile.abs_value_counts)] * 2

    rows = ([0] * (d + 1), [0] * (d + 1))
    # prefix sums of each side: sums[side][pos] = sum(row[:pos])
    sums = ([0] * (d + 1), [0] * (d + 1))
    links, unknown = _shift_tables(d)
    # per depth and shift: the largest |sum| of the products still unknown
    bounds = [[u * square for u in left] for left in unknown]
    nodes = 0
    budget = profile.budget

    # per-depth value orders, fixed by the seed for reproducibility
    orders: List[List[int]] = []
    for _ in range(2 * d):
        vals = [sign * mag for mag in mags for sign in (1, -1)]
        rng.shuffle(vals)
        orders.append(vals)

    def feasible(pool: Dict[int, int], need: int, cur: int) -> bool:
        """Can need more odd entries from pool bring the side's sum to 1?"""
        gap = 1 - cur
        if (gap - need) % 2 != 0:
            return False
        reach = 0
        for mag in reversed(mags):
            take = min(pool[mag], need)
            reach += take * mag
            need -= take
        return abs(gap) <= reach

    def pruned(partial: List[int], bound: List[int]) -> bool:
        for p, most in zip(partial, bound):
            if abs(target - p) > most:
                return True
        return False

    def step(depth: int, partial: List[int]) -> Iterator[CandidatePair]:
        nonlocal nodes
        if depth == 2 * d:
            a, b = tuple(rows[0][:d]), tuple(rows[1][:d])
            x = paf(a, 1) - paf(a, 2) if d == 5 else None
            if d != 5 or profile.x_filter is None or x in profile.x_filter:
                pair = CandidatePair(a=a, b=b, ell=profile.ell, m=m, x=x)
                pair.check()
                yield pair
            return
        side, pos = depth % 2, depth // 2
        row, prefix, pool, here = rows[side], sums[side], pools[side], links[pos]
        for v in orders[depth]:
            mag = abs(v)
            if pool.get(mag, 0) <= 0:
                continue
            if budget is not None and nodes >= budget:
                return
            nodes += 1
            pool[mag] -= 1
            # entries past pos are stale until placed, and nothing reads them
            row[pos] = v
            prefix[pos + 1] = prefix[pos] + v
            nxt = [p + v * (row[i] + row[j]) for p, (i, j) in zip(partial, here)]
            if feasible(pool, d - pos - 1, prefix[pos + 1]) and not pruned(nxt, bounds[depth]):
                yield from step(depth + 1, nxt)
            pool[mag] += 1

    yield from step(0, [0] * (d // 2))
