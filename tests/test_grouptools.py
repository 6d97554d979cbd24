"""Orbit tables, the LexRank codec, and the block decode chain."""

import itertools
import math
import random

import numpy as np
import pytest

from legendre_pairs import grouptools
from legendre_pairs.grouptools import (
    Block,
    GroupError,
    LexRankCode,
    block_from_codes,
    block_from_sequence,
    codes_from_block,
    lex_rank,
    lex_unrank,
    lex_unrank_masks,
    orbits,
    sequence_from_block,
)
from legendre_pairs.refdata import ell85
from legendre_pairs.seqcore import SequenceError, compress, verify_legendre_pair


@pytest.fixture
def no_table(monkeypatch):
    """Decode by head groups wherever they apply, as a space too large for
    one table is decoded."""
    monkeypatch.setattr(grouptools, "_TABLE_ROWS", 0)
    grouptools._lex_groups.cache_clear()
    yield
    grouptools._lex_groups.cache_clear()


def every_subset_mask(n, k):
    """The k-subsets of n elements as mask rows in lex order, the order of
    itertools.combinations."""
    total = math.comb(n, k)
    subsets = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n), k)),
                          dtype=np.intp, count=total * k).reshape(total, k)
    want = np.zeros((total, n), dtype=bool)
    np.put_along_axis(want, subsets, True, axis=1)
    return want


class TestOrbits:
    def test_multiplier_69_mod_85(self):
        table = orbits(85, [69])
        assert len(table.orbits_by_size[1]) == 16
        assert len(table.orbits_by_size[2]) == 34
        assert table.orbits_by_size[1][:3] == [(5,), (10,), (15,)]
        assert table.orbits_by_size[2][0] == (1, 69)
        assert table.orbits_by_size[2][1] == (2, 53)

    def test_identity_multiplier(self):
        table = orbits(9, [1])
        assert len(table.orbits_by_size[1]) == 8
        assert table.orbits_by_size[1] == [(i,) for i in range(1, 9)]

    def test_partition_and_closure(self):
        for ell, gens in ((85, [69]), (87, [1]), (15, [2])):
            table = orbits(ell, gens)
            everything = sorted(
                t for orbs in table.orbits_by_size.values() for o in orbs for t in o
            )
            assert everything == list(range(1, ell))
            for orbs in table.orbits_by_size.values():
                for o in orbs:
                    members = set(o)
                    for g in gens:
                        assert {(t * g) % ell for t in members} == members

    def test_orbit_sizes_divide_subgroup_order(self):
        ell, gens = 85, [69]
        # subgroup generated in the unit group
        subgroup = {1}
        frontier = [1]
        while frontier:
            t = frontier.pop()
            for g in gens:
                u = (t * g) % ell
                if u not in subgroup:
                    subgroup.add(u)
                    frontier.append(u)
        order = len(subgroup)
        table = orbits(ell, gens)
        for size in table.orbits_by_size:
            assert order % size == 0

    def test_non_unit_generator(self):
        with pytest.raises(GroupError):
            orbits(85, [5])


class TestLexRank:
    def test_published_codes(self):
        assert lex_unrank(16, 12, 12) == (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 14, 15)
        assert lex_unrank(34, 15, 1321116338) == (
            3, 4, 5, 7, 10, 11, 22, 24, 25, 27, 28, 29, 30, 31, 34,
        )
        assert lex_rank(16, (1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 14, 15)) == 42
        assert lex_rank(
            34, (2, 8, 10, 11, 12, 15, 19, 21, 23, 25, 26, 28, 29, 33, 34)
        ) == 1275934280

    def test_first_and_last(self):
        assert lex_unrank(9, 4, 0) == (1, 2, 3, 4)
        assert lex_rank(9, (6, 7, 8, 9)) == math.comb(9, 4) - 1

    def test_lex_order_matches_itertools(self):
        # itertools.combinations emits ascending tuples in lexicographic order
        for n, k in ((6, 3), (16, 12)):
            for rank, subset in enumerate(itertools.combinations(range(1, n + 1), k)):
                assert lex_unrank(n, k, rank) == subset
                assert lex_rank(n, subset) == rank

    def test_round_trip_sampled_34_15(self):
        rnd = random.Random(85)
        total = math.comb(34, 15)
        for _ in range(2000):
            r = rnd.randrange(total)
            assert lex_rank(34, lex_unrank(34, 15, r)) == r

    def test_rank_out_of_range(self):
        with pytest.raises(GroupError):
            lex_unrank(6, 3, math.comb(6, 3))
        with pytest.raises(GroupError):
            lex_rank(6, (1, 2, 7))

    @staticmethod
    def assert_masks_decode(n, k, ranks):
        masks = lex_unrank_masks(n, k, ranks)
        assert masks.shape == (len(ranks), n)
        for rank, row in zip(ranks, masks):
            assert tuple(v + 1 for v in range(n) if row[v]) == lex_unrank(n, k, rank)

    def test_masks_every_rank_small(self):
        for n in range(11):
            for k in range(n + 1):
                self.assert_masks_decode(n, k, list(range(math.comb(n, k))))

    @pytest.mark.parametrize("n", [8, 9, 16, 17])
    def test_masks_every_rank_at_group_boundaries(self, n, no_table):
        """Every rank of every k, decoded by head groups, where the 8-element
        groups end or leave one element over."""
        for k in range(n + 1):
            assert (lex_unrank_masks(n, k, range(math.comb(n, k))) == every_subset_mask(n, k)).all()

    @pytest.mark.parametrize("n, t", [(12, 12), (13, 5), (20, 12), (21, 5)])
    def test_masks_every_rank_at_tail_edges(self, n, t, no_table):
        """Every rank of every k, decoded by head groups, where the directly
        decoded tail of t elements covers all n, first follows a head group,
        spans 12 and then 5 elements."""
        for k in range(n + 1):
            groups, rows, start = grouptools._lex_groups(n, k)
            assert n - 8 * len(groups) == t and start is not None
            assert (lex_unrank_masks(n, k, np.arange(math.comb(n, k))) == every_subset_mask(n, k)).all()
        rows, start = grouptools._lex_tail(t)
        assert rows.shape == (2**t, -(-t // 8)) and len(start) == t + 1
        assert not rows.flags.writeable and not start.flags.writeable

    @pytest.mark.parametrize("n, k", [(20, 9), (20, 10), (20, 11), (21, 8),
                                      (21, 9), (21, 10), (21, 11), (32, 5), (33, 5)])
    def test_masks_every_rank_at_table_edges(self, n, k):
        """Every rank of the largest spaces that one table lookup decodes,
        C(20, 10) and C(21, 8) subsets, and of the smallest that it does not:
        C(21, 9) > 2**18, and (33, 5) with more than 32 elements."""
        total = math.comb(n, k)
        groups, rows, start = grouptools._lex_groups(n, k)
        assert (start is None) == (total <= 2**18 and n <= 32)
        if start is None:
            assert not groups and rows.shape == (total, -(-n // 8)) and total <= 2**18
        assert not rows.flags.writeable
        assert (lex_unrank_masks(n, k, np.arange(total)) == every_subset_mask(n, k)).all()
        for bad in (-1, total):
            with pytest.raises(GroupError, match=f"rank {bad} out of range"):
                lex_unrank_masks(n, k, [0, bad])

    @pytest.mark.parametrize("n,k", [(16, 12), (34, 15), (70, 35)])
    def test_masks_sampled(self, n, k):
        # C(70, 35) > 2**63: ranks are decoded as Python ints
        total = math.comb(n, k)
        rnd = random.Random(n)
        self.assert_masks_decode(n, k, [0, total - 1] + [rnd.randrange(total) for _ in range(300)])

    def test_masks_rank_out_of_range(self):
        for n, k in ((6, 3), (70, 35)):
            for bad in (-1, math.comb(n, k)):
                with pytest.raises(GroupError, match=f"rank {bad} out of range"):
                    lex_unrank_masks(n, k, [0, bad])

    @pytest.mark.parametrize("n, k", [(20, 10), (16, 12), (34, 15), (70, 35)])
    def test_unchecked_decode_matches(self, n, k):
        """_unrank_masks, the decode without checks that orbit_search uses,
        equals lex_unrank_masks on the one-table path ((20, 10), (16, 12)),
        the head-group path ((34, 15)) and a space with object-dtype tables
        (C(70, 35) > 2**63), for int64 and object rank arrays alike; only
        lex_unrank_masks checks ranks."""
        total = math.comb(n, k)
        groups, rows, start = grouptools._lex_groups(n, k)
        assert (start is None) == ((n, k) in ((20, 10), (16, 12)))
        assert bool(groups and groups[0][0].dtype == object) == (n == 70)
        rnd = random.Random(n)
        ranks = [0, total - 1] + [rnd.randrange(total) for _ in range(500)]
        want = lex_unrank_masks(n, k, ranks)
        for dtype in ((np.int64, object) if total < 2**63 else (object,)):
            got = grouptools._unrank_masks(n, k, np.array(ranks, dtype=dtype))
            assert got.dtype == bool and (got == want).all()
        for bad in (-1, total):
            with pytest.raises(GroupError, match=f"rank {bad} out of range"):
                lex_unrank_masks(n, k, [0, bad])

    def test_counting(self):
        assert math.comb(16, 12) == 1820
        assert math.comb(34, 15) == 1855967520
        assert math.comb(16, 12) * math.comb(34, 15) == 3377860886400


class TestBlocks:
    def setup_method(self):
        self.data = ell85()
        self.table = orbits(85, self.data["generators"])
        fp = self.data["first_pair"]
        self.codes_a = {
            1: LexRankCode(16, 12, self.data["code_pairs"][0]["a"]["ones"]),
            2: LexRankCode(34, 15, self.data["code_pairs"][0]["a"]["twos"]),
        }
        self.codes_b = {
            1: LexRankCode(16, 12, self.data["code_pairs"][0]["b"]["ones"]),
            2: LexRankCode(34, 15, self.data["code_pairs"][0]["b"]["twos"]),
        }
        self.printed_a = sorted(fp["a_block"])
        self.printed_b = sorted(fp["b_block"])

    def test_blocks_match_printed_lists(self):
        blk_a = block_from_codes(self.table, self.codes_a)
        blk_b = block_from_codes(self.table, self.codes_b)
        assert list(blk_a.positions) == self.printed_a
        assert list(blk_b.positions) == self.printed_b

    def test_full_selection(self):
        codes = {
            1: LexRankCode(16, 16, 0),
            2: LexRankCode(34, 34, 0),
        }
        blk = block_from_codes(self.table, codes)
        assert list(blk.positions) == list(range(1, 85))

    def test_mismatched_universe(self):
        with pytest.raises(GroupError):
            block_from_codes(self.table, {1: LexRankCode(15, 12, 12)})

    def test_sequences_verify_and_compress(self):
        seq_a = sequence_from_block(block_from_codes(self.table, self.codes_a))
        seq_b = sequence_from_block(block_from_codes(self.table, self.codes_b))
        assert compress(seq_a, 17) == (1, 3, 3, 1, -7)
        assert compress(seq_b, 17) == (3, 1, 1, 3, -7)
        rep = verify_legendre_pair(seq_a, seq_b)
        assert rep.is_legendre_pair and rep.x_value == 36

    def test_empty_block(self):
        assert sequence_from_block(Block(ell=3, positions=())) == (1, 1, 1)

    def test_block_sequence_round_trip(self):
        blk = block_from_codes(self.table, self.codes_a)
        seq = sequence_from_block(blk)
        assert block_from_sequence(85, seq) == blk
        assert codes_from_block(self.table, blk) == self.codes_a

    def test_multiplier_invariance(self):
        # whole-orbit sequences are invariant under index multiplication
        seq = sequence_from_block(block_from_codes(self.table, self.codes_a))
        g = 69
        vals = {((i + 1) % 85): seq[i] for i in range(85)}
        for r in range(1, 85):
            assert vals[r] == vals[(r * g) % 85]


class TestRejections:
    @pytest.mark.parametrize("call, error, message", [
        (lambda: orbits(1, (1,)), GroupError, "modulus must be >= 2, got 1"),
        (lambda: lex_unrank(3, 4, 0), GroupError, "subset size 4 out of range for universe 3"),
        (lambda: lex_unrank_masks(3, -1, [0]), GroupError,
         "subset size -1 out of range for universe 3"),
        (lambda: lex_rank(5, (3, 2)), GroupError, "subset must be strictly ascending"),
        (lambda: Block(ell=7, positions=(0, 3)), GroupError, r"must lie in 1\.\.6"),
        (lambda: Block(ell=7, positions=(3, 2)), GroupError, "must be strictly ascending"),
        (lambda: codes_from_block(orbits(7, (2,)), Block(ell=7, positions=(1, 2))), GroupError,
         r"block splits orbit \(1, 2, 4\)"),
        # a block of another length is the only way past the orbits' cover of 1..ℓ-1
        (lambda: codes_from_block(orbits(7, (2,)), Block(ell=9, positions=(8,))), GroupError,
         r"positions \[8\] not covered by any orbit"),
        (lambda: block_from_sequence(7, (1,) * 5), SequenceError, "length 5 != 7"),
        (lambda: block_from_sequence(3, (1, 1, -1)), GroupError, "residue 0 carries -1"),
    ], ids=["modulus", "unrank-size", "masks-size", "rank-order", "block-range", "block-order",
            "split-orbit", "uncovered", "sequence-length", "residue-0"])
    def test_raises(self, call, error, message):
        with pytest.raises(error, match=message):
            call()
