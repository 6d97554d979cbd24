"""Exact sequence algebra: examples pinned to known values plus randomized
identity sweeps against independent oracles."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from legendre_pairs.refdata import ell85, ell87
from legendre_pairs.seqcore import (
    SequenceError,
    compress,
    format_sequence,
    normalize_pm_one,
    paf,
    paf_rows,
    paf_vector,
    parse_sequence,
    psd,
    psd_at_m_exact,
    psd_vector,
    verify_legendre_pair,
)


def paf_oracle(seq, s):
    """Independent PAF via numpy roll; the implementation uses index sums."""
    a = np.asarray(seq)
    return int(np.dot(a, np.roll(a, -s)))


def l87_first_pair():
    data = ell87()
    return tuple(data["pairs"][0]["a"]), tuple(data["pairs"][0]["b"])


class TestPaf:
    def test_all_ones(self):
        assert paf([1, 1, 1, 1, 1], 2) == 5

    def test_compressed_block_values(self):
        assert paf([1, 3, 3, 1, -7], 1) == 1
        assert paf([1, 3, 3, 1, -7], 2) == -35
        assert paf([1, 3, 3, 1, -7], 1) - paf([1, 3, 3, 1, -7], 2) == 36

    def test_hand_value(self):
        assert paf([1, 1, -1, 1, -1], 1) == -3

    def test_against_oracle(self):
        rnd = random.Random(11)
        for _ in range(100):
            n = rnd.randrange(3, 40)
            seq = [rnd.choice([-1, 1]) for _ in range(n)]
            s = rnd.randrange(n)
            assert paf(seq, s) == paf_oracle(seq, s)

    def test_shift_out_of_range(self):
        with pytest.raises(SequenceError):
            paf([1, 1, -1], 3)
        with pytest.raises(SequenceError):
            paf([1, 1, -1], -1)


class TestPafVector:
    def test_small(self):
        assert paf_vector([1, 1, -1]) == (3, -1, -1)

    def test_all_ones_even(self):
        assert paf_vector([1, 1, 1, 1]) == (4, 4, 4, 4)

    def test_reversed_block(self):
        v = paf_vector([3, 1, 1, 3, -7])
        assert v[1] == -35 and v[2] == 1

    def test_matches_definition(self):
        """The numpy path against the O(ℓ²) definition, exactly and as
        Python ints: random ±1 sequences, integer rows and the witnesses."""

        def definition(seq):
            n = len(seq)
            return tuple(sum(seq[i] * seq[(i + s) % n] for i in range(n)) for s in range(n))

        rnd = random.Random(5)
        seqs = [[rnd.choice([-1, 1]) for _ in range(n)] for n in range(3, 202)]
        seqs += [(3, 1, 1, 3, -7), (1, 3, 3, 1, -7), (5, -3, 1), (), (2**40, -3, 5), (10**30, 1)]
        seqs += [tuple(rnd.randrange(-9, 10) for _ in range(rnd.randrange(1, 40))) for _ in range(50)]
        data85 = ell85()["first_pair"]
        for block in (data85["a_block"], data85["b_block"]):
            seqs.append([-1 if ((i + 1) % 85) in set(block) else 1 for i in range(85)])
        for pair in ell87()["pairs"]:
            seqs += [pair["a"], pair["b"]]
        for seq in seqs:
            v = paf_vector(seq)
            assert v == definition(seq)
            assert all(type(x) is int for x in v)

    def test_rows_stacked_and_count_checked(self):
        rows = np.array([[1, 1, -1, 1, -1], [3, 1, 1, 3, -7]], dtype=np.int64)
        assert paf_rows(rows, 3).tolist() == [list(paf_vector(r))[:3] for r in rows.tolist()]
        with pytest.raises(SequenceError):
            paf_rows(rows, 6)

    def test_symmetry(self):
        rnd = random.Random(3)
        for _ in range(50):
            n = rnd.randrange(3, 30)
            seq = [rnd.choice([-1, 1]) for _ in range(n)]
            v = paf_vector(seq)
            for s in range(1, n):
                assert v[s] == v[n - s]
            assert v[0] == sum(e * e for e in seq)


class TestPsd:
    def test_all_ones(self):
        for n in (3, 7, 10):
            assert psd([1] * n, 0) == pytest.approx(n * n)
            for k in range(1, n):
                assert psd([1] * n, k) == pytest.approx(0.0, abs=1e-9)

    def test_block_sequence_at_m(self):
        data = ell85()
        # reconstruct the first A sequence from its printed block
        posset = set(data["first_pair"]["a_block"])
        seq = [-1 if ((i + 1) % 85) in posset else 1 for i in range(85)]
        assert psd(seq, 17) == pytest.approx(126.2492236, abs=1e-6)

    def test_wiener_khinchin(self):
        rnd = random.Random(29)
        for _ in range(200):
            n = rnd.randrange(3, 65)
            seq = [rnd.choice([-1, 1]) for _ in range(n)]
            v = paf_vector(seq)
            k = rnd.randrange(n)
            via_paf = sum(v[j] * math.cos(2 * math.pi * j * k / n) for j in range(n))
            assert psd(seq, k) == pytest.approx(via_paf, abs=1e-8)

    def test_stacked_rows(self):
        rnd = random.Random(31)
        for n in (5, 45, 85):
            rows = [[rnd.choice([-1, 1]) for _ in range(n)] for _ in range(7)]
            stacked = psd_vector(rows)
            assert stacked.shape == (7, n)
            for r, row in enumerate(rows):
                np.testing.assert_array_equal(stacked[r], psd_vector(row))


class TestCompress:
    def test_identity(self):
        seq = (1, -1, 1, 1, -1)
        assert compress(seq, 1) == seq

    def test_all_ones(self):
        assert compress([1] * 6, 2) == (2, 2, 2)

    def test_block_fixture(self):
        data = ell85()
        posset = set(data["first_pair"]["a_block"])
        seq = [-1 if ((i + 1) % 85) in posset else 1 for i in range(85)]
        assert compress(seq, 17) == (1, 3, 3, 1, -7)

    def test_divisibility_error(self):
        with pytest.raises(SequenceError):
            compress([1, 1, -1], 2)

    def test_alphabet_and_sum(self):
        rnd = random.Random(17)
        for _ in range(100):
            d, m = rnd.choice([(3, 3), (5, 3), (5, 5), (7, 3)])
            seq = [rnd.choice([-1, 1]) for _ in range(d * m)]
            c = compress(seq, m)
            assert sum(c) == sum(seq)
            assert all(abs(v) <= m and v % 2 == m % 2 for v in c)

    def test_psd_identity(self):
        rnd = random.Random(23)
        for _ in range(200):
            d, m = rnd.choice([(3, 5), (5, 3), (5, 7), (7, 5), (5, 17)])
            n = d * m
            seq = [rnd.choice([-1, 1]) for _ in range(n)]
            c = compress(seq, m)
            for k in range(d):
                assert psd(c, k) == pytest.approx(psd(seq, k * m), abs=1e-8)

    def test_paf_grouping_identity(self):
        rnd = random.Random(31)
        for _ in range(100):
            d, m = rnd.choice([(3, 3), (5, 5), (5, 9), (7, 3)])
            n = d * m
            seq = [rnd.choice([-1, 1]) for _ in range(n)]
            c = compress(seq, m)
            v = paf_vector(seq)
            for s in range(d):
                grouped = sum(v[j] for j in range(n) if j % d == s)
                assert paf(c, s) == grouped


class TestPsdAtMExact:
    def test_block_values(self):
        e = psd_at_m_exact([1, 3, 3, 1, -7])
        assert e.rat == 86 and e.x == 36
        assert e.to_float() == pytest.approx(126.2492236, abs=1e-6)
        e2 = psd_at_m_exact([3, 1, 1, 3, -7])
        assert e2.rat == 86 and e2.x == -36
        assert e2.to_float() == pytest.approx(45.75077641, abs=1e-6)

    def test_constant_sequence(self):
        e = psd_at_m_exact([1, 1, 1, 1, 1])
        assert e.rat == 0 and e.coef == 0

    def test_unit_sum_shortcut(self):
        # with entry sum 1, the rational part is (5*p2 - 1)/4
        rnd = random.Random(41)
        for _ in range(50):
            m = rnd.choice([1, 3, 5, 7])
            seq = [rnd.choice([-1, 1]) for _ in range(5 * m)]
            c = compress(seq, m)
            if sum(c) != 1:
                continue
            p2 = sum(v * v for v in c)
            assert psd_at_m_exact(c).rat == Fraction(5 * p2 - 1, 4)

    def test_exact_vs_float(self):
        rnd = random.Random(43)
        for _ in range(300):
            m = rnd.randrange(1, 18)
            n = 5 * m
            seq = [rnd.choice([-1, 1]) for _ in range(n)]
            e = psd_at_m_exact(compress(seq, m))
            f = psd(seq, m)
            assert f == pytest.approx(e.to_float(), rel=1e-6, abs=1e-9)

    def test_length_error(self):
        with pytest.raises(SequenceError):
            psd_at_m_exact([1, 1, 1])


class TestNormalize:
    def test_negates_minus_one_sum(self):
        assert normalize_pm_one([-1, -1, 1]) == (1, 1, -1)

    def test_rejects_even_length(self):
        with pytest.raises(SequenceError):
            normalize_pm_one([1, -1, 1, -1])

    def test_rejects_bad_sum(self):
        with pytest.raises(SequenceError):
            normalize_pm_one([1, 1, 1, 1, -1])

    def test_rejects_alphabet(self):
        with pytest.raises(SequenceError):
            normalize_pm_one([1, 2, -1])


class TestVerify:
    def test_tiny_pair(self):
        rep = verify_legendre_pair([1, 1, -1], [1, 1, -1])
        assert rep.is_legendre_pair and rep.failing_shift is None
        assert rep.n1_n2 == (4, 4)

    def test_published_l87_pairs(self):
        data = ell87()
        for pair in data["pairs"]:
            rep = verify_legendre_pair(pair["a"], pair["b"])
            assert rep.is_legendre_pair
            assert compress(pair["a"], 3) == tuple(data["compressed_a"])
            assert compress(pair["b"], 3) == tuple(data["compressed_b"])

    def test_flipped_entry_fails_with_shift(self):
        a, b = l87_first_pair()
        # flipping one entry changes the sum to ±3, so flip a +1 and a -1
        mutated = list(a)
        i = mutated.index(1)
        j = mutated.index(-1)
        mutated[i], mutated[j] = -1, 1
        rep = verify_legendre_pair(mutated, b)
        assert not rep.is_legendre_pair
        assert rep.failing_shift is not None

    def test_single_flip_normalizes_then_fails(self):
        a, b = l87_first_pair()
        # flipping one +1 gives sum -1; ingestion negates globally, and the
        # negated sequence is not a Legendre mate of b
        mutated = list(a)
        mutated[mutated.index(1)] = -1
        rep = verify_legendre_pair(mutated, b)
        assert not rep.is_legendre_pair
        assert rep.failing_shift is not None

    def test_double_flip_same_sign_is_rejected(self):
        a, b = l87_first_pair()
        mutated = list(a)
        idx = [i for i, v in enumerate(mutated) if v == 1][:2]
        for i in idx:
            mutated[i] = -1
        with pytest.raises(SequenceError):
            verify_legendre_pair(mutated, b)

    def test_length_mismatch(self):
        with pytest.raises(SequenceError):
            verify_legendre_pair([1, 1, -1], [1, 1, 1, 1, -1])

    def test_x_even_and_opposite(self):
        data = ell85()
        posa = set(data["first_pair"]["a_block"])
        posb = set(data["first_pair"]["b_block"])
        a = [-1 if ((i + 1) % 85) in posa else 1 for i in range(85)]
        b = [-1 if ((i + 1) % 85) in posb else 1 for i in range(85)]
        rep = verify_legendre_pair(a, b)
        assert rep.is_legendre_pair and rep.x_value % 2 == 0
        ea, eb = rep.psd_at_m
        assert ea.x == -eb.x
        assert rep.n1_n2[0] + rep.n1_n2[1] == 2 * 85 + 2


class TestTextFormat:
    def test_round_trip(self):
        seq = (1, -1, 1, 1, -1)
        assert parse_sequence(format_sequence(seq)) == seq

    def test_header(self):
        assert parse_sequence("ℓ=3;1,1,-1") == (1, 1, -1)
        with pytest.raises(SequenceError):
            parse_sequence("ℓ=4;1,1,-1")

    def test_garbage(self):
        with pytest.raises(SequenceError):
            parse_sequence("1,x,-1")
