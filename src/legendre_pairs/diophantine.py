"""All-odd five-square representations of 4m+1 and the unit-sum filter.

Candidate m-compressed sequences must have square-sum 4m+1 with all entries
odd, and entry sum 1 after signing.  Targets are tiny, so enumeration is
plain backtracking over odd values bounded by the square root.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Set, Tuple

DiophSolution = Tuple[int, int, int, int, int]
SignedTuple = Tuple[int, int, int, int, int]


def odd_five_squares(m: int) -> List[DiophSolution]:
    """All canonical (ascending) all-odd positive solutions of Σa_i² = 4m+1.

    Complete and duplicate-free, sorted lexicographically.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError(f"m must be a positive odd integer, got {m}")
    target = 4 * m + 1
    solutions: List[DiophSolution] = []

    def descend(largest: int, remaining: int, slots: int, acc: List[int]) -> None:
        if slots == 0:
            if remaining == 0:
                solutions.append(tuple(reversed(acc)))
            return
        # each remaining slot is odd >= 1 and <= current largest
        hi = min(largest, math.isqrt(remaining))
        if hi % 2 == 0:
            hi -= 1
        # odd squares are 1 (mod 8), so remaining ≡ slots and remaining - v² ≥ slots - 1
        for v in range(hi, 0, -2):
            acc.append(v)
            descend(v, remaining - v * v, slots - 1, acc)
            acc.pop()

    hi0 = math.isqrt(target)
    descend(hi0 if hi0 % 2 else hi0 - 1, target, 5, [])
    return sorted(solutions)


def admits_unit_sum(sol: DiophSolution) -> bool:
    """True iff some signing ε ∈ {−1,+1}⁵ gives Σ ε_i·sol_i = 1."""
    for signs in itertools.product((-1, 1), repeat=5):
        if sum(s * v for s, v in zip(signs, sol)) == 1:
            return True
    return False


def signed_orderings(sol: DiophSolution) -> List[SignedTuple]:
    """All ordered signed arrangements of sol with entry sum 1.

    Duplicate-free and sorted; empty when no signing reaches sum 1.
    """
    out: Set[SignedTuple] = set()
    for perm in set(itertools.permutations(sol)):
        for signs in itertools.product((-1, 1), repeat=5):
            t = tuple(s * v for s, v in zip(signs, perm))
            if sum(t) == 1:
                out.add(t)
    return sorted(out)
