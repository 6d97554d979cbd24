"""Exact sequence algebra: PAF, PSD, m-compression, Legendre-pair verification.

All ±1 sequences are plain tuples/lists of ints indexed 0..ℓ-1.  Everything
integer-valued is computed exactly; floating point only enters through the
DFT-based PSD, which is diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

SQRT5 = math.sqrt(5.0)


class SequenceError(ValueError):
    """Invalid sequence input (bad alphabet, length, shift, or divisor)."""


def normalize_pm_one(entries: Iterable[int]) -> Tuple[int, ...]:
    """Validate a ±1 sequence of odd length and normalize its sum to +1.

    Sequences with entry sum -1 are globally negated; even length or
    |sum| != 1 is rejected.
    """
    seq = tuple(int(v) for v in entries)
    if not seq:
        raise SequenceError("empty sequence")
    bad = [v for v in seq if v not in (-1, 1)]
    if bad:
        raise SequenceError(f"entries must be -1 or +1, got {bad[:3]}")
    if len(seq) % 2 == 0:
        raise SequenceError(f"length must be odd, got {len(seq)}")
    total = sum(seq)
    if total == -1:
        seq = tuple(-v for v in seq)
    elif total != 1:
        raise SequenceError(f"entry sum must be ±1, got {total}")
    return seq


def paf(seq: Sequence[int], s: int) -> int:
    """Periodic autocorrelation sum_i a[i]*a[(i+s) mod n], exact."""
    n = len(seq)
    if not 0 <= s < n:
        raise SequenceError(f"shift {s} out of range for length {n}")
    return sum(seq[i] * seq[(i + s) % n] for i in range(n))


def paf_vector(seq: Sequence[int]) -> Tuple[int, ...]:
    """All PAF values; index s holds paf(seq, s).

    Exact: int64 while no sum can overflow it, Python ints (object dtype)
    otherwise.
    """
    n = len(seq)
    big = n > 0 and int(max(map(abs, seq))) ** 2 * n >= 2**63
    return tuple(paf_rows(np.array(seq, dtype=object if big else np.int64), n).tolist())


def paf_rows(rows: np.ndarray, count: int) -> np.ndarray:
    """PAF at shifts 0..count-1 of each sequence along the last axis.

    A strided view of the rotations (no copy) contracted with the rows, in
    the rows' own integer dtype: exact when no sum overflows it, and memory
    stays O(rows × ℓ).
    """
    n = rows.shape[-1]
    if not 0 <= count <= n:  # the view must stay inside the doubled rows
        raise SequenceError(f"shift count {count} out of range for length {n}")
    twice = np.concatenate((rows, rows), -1)
    step = twice.strides[-1]
    # [..., s, i] = rows[..., (i + s) mod n].  Views made by as_strided
    # instead raised the peak RSS of long orbit runs by ≈1 MB after a few
    # hundred ℓ=85 searches; np.ndarray views do not.
    rotations = np.ndarray(
        rows.shape[:-1] + (count, n), twice.dtype, buffer=twice,
        strides=twice.strides[:-1] + (step, step),
    )
    return np.einsum("...si,...i->...s", rotations, rows)


def psd(seq: Sequence[int], k: int) -> float:
    """|DFT(seq)[k]|^2 in floating point."""
    n = len(seq)
    if not 0 <= k < n:
        raise SequenceError(f"index {k} out of range for length {n}")
    return float(psd_vector(seq)[k])


def psd_vector(seq: Sequence[int]) -> np.ndarray:
    """PSD at every index, via one dense DFT (lengths here are tiny).

    A 2-D input is a stack of sequences: the DFT runs along the last axis,
    so row r of the result is the PSD vector of row r.
    """
    a = np.asarray(seq, dtype=float)
    return np.abs(np.fft.fft(a)) ** 2


def compress(seq: Sequence[int], m: int) -> Tuple[int, ...]:
    """m-compression: entry j sums the original entries at indices ≡ j (mod d).

    Requires m | len(seq); the result has length d = len(seq)/m and preserves
    both the entry sum and the PSD at multiplied indices.
    """
    n = len(seq)
    if m < 1 or n % m != 0:
        raise SequenceError(f"compression factor {m} does not divide length {n}")
    d = n // m
    return tuple(sum(seq[j + i * d] for i in range(m)) for j in range(d))


@dataclass(frozen=True)
class PsdExact:
    """A value rat + coef*sqrt(5) with exact rational components."""

    rat: Fraction
    coef: Fraction

    @property
    def x(self) -> int:
        """The even integer such that the value is rat + (sqrt(5)/2)*x."""
        two = 2 * self.coef
        if two.denominator != 1:
            raise ValueError(f"coefficient {self.coef} is not a half-integer")
        return int(two)

    def to_float(self) -> float:
        return float(self.rat) + float(self.coef) * SQRT5

    def __str__(self) -> str:
        return f"{self.rat} + ({self.coef})*sqrt(5)"


def psd_at_m_exact(c: Sequence[int]) -> PsdExact:
    """Exact PSD of a length-5 integer sequence at index 1, in Q(sqrt 5).

    For the m-compression of a length-5m sequence this equals the original
    PSD at index m.  Value: p2 - e2/2 + (sqrt(5)/2)(PAF(1) - PAF(2)).
    """
    c = tuple(int(v) for v in c)
    if len(c) != 5:
        raise SequenceError(f"exact evaluation needs length 5, got {len(c)}")
    p2 = sum(v * v for v in c)
    total = sum(c)
    e2 = (total * total - p2) // 2 if (total * total - p2) % 2 == 0 else None
    if e2 is None:
        # p2 and total^2 always share parity for integer entries
        raise SequenceError("non-integer e2; entries must be integers")
    paf1 = paf(c, 1)
    paf2 = paf(c, 2)
    return PsdExact(rat=Fraction(p2) - Fraction(e2, 2), coef=Fraction(paf1 - paf2, 2))


def psd_at_m_exact3(c: Sequence[int]) -> Fraction:
    """Exact PSD of a length-3 integer sequence at index 1 (rational).

    cos(2*pi/3) = -1/2, so the value is PAF(0) - PAF(1): no irrational part.
    """
    c = tuple(int(v) for v in c)
    if len(c) != 3:
        raise SequenceError(f"exact length-3 evaluation needs length 3, got {len(c)}")
    return Fraction(paf(c, 0) - paf(c, 1))


@dataclass
class VerificationReport:
    """Outcome of the exact Legendre-pair test plus spectral diagnostics."""

    is_legendre_pair: bool
    failing_shift: Optional[int] = None
    x_value: Optional[int] = None
    psd_at_m: Optional[Tuple[PsdExact, PsdExact]] = None
    n1_n2: Optional[Tuple[int, int]] = None


def verify_legendre_pair(a: Sequence[int], b: Sequence[int]) -> VerificationReport:
    """Exact integer test: PAF_A(s) + PAF_B(s) = -2 for every shift s != 0.

    Inputs are normalized to entry sum +1 first.  When 5 | ℓ the report also
    carries x = PAF(1)-PAF(2) of the compressed A-side and the exact integer
    split (n1, n2) of 2ℓ+2; when 3 | ℓ (and 5 does not divide ℓ) the split
    comes from the rational length-3 evaluation.
    """
    a = normalize_pm_one(a)
    b = normalize_pm_one(b)
    if len(a) != len(b):
        raise SequenceError(f"length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    pa = paf_vector(a)
    pb = paf_vector(b)
    failing = None
    for s in range(1, n // 2 + 1):
        if pa[s] + pb[s] != -2:
            failing = s
            break
    report = VerificationReport(is_legendre_pair=failing is None, failing_shift=failing)
    if n % 5 == 0:
        m = n // 5
        ca, cb = compress(a, m), compress(b, m)
        ea, eb = psd_at_m_exact(ca), psd_at_m_exact(cb)
        report.x_value = ea.x
        report.psd_at_m = (ea, eb)
        if ea.rat.denominator == 1 and eb.rat.denominator == 1:
            report.n1_n2 = (int(ea.rat), int(eb.rat))
    elif n % 3 == 0:
        m = n // 3
        va = psd_at_m_exact3(compress(a, m))
        vb = psd_at_m_exact3(compress(b, m))
        if va.denominator == 1 and vb.denominator == 1:
            report.n1_n2 = (int(va), int(vb))
    return report


# --- shared plain-text sequence format ------------------------------------
#
# One sequence per line, comma-separated integer entries, with an optional
# leading "ℓ=<n>;" header.

def parse_sequence(line: str) -> Tuple[int, ...]:
    text = line.strip()
    if not text:
        raise SequenceError("empty sequence line")
    declared = None
    if ";" in text:
        head, _, rest = text.partition(";")
        head = head.strip()
        for prefix in ("ℓ=", "l=", "L=", "len="):
            if head.startswith(prefix):
                declared = int(head[len(prefix):])
                text = rest
                break
        else:
            raise SequenceError(f"unrecognized header {head!r}")
    try:
        entries = tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok)
    except ValueError as exc:
        raise SequenceError(f"cannot parse sequence line: {exc}") from None
    if declared is not None and declared != len(entries):
        raise SequenceError(f"declared length {declared} != {len(entries)} entries")
    return entries


def format_sequence(seq: Sequence[int]) -> str:
    return ",".join(str(int(v)) for v in seq)


def read_sequences(path) -> list:
    """Parse every non-blank, non-comment line of a sequence file."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            out.append(parse_sequence(stripped))
    return out
