"""Decompression engines: exhaustive counts against independent oracles,
budget/determinism contracts, and the orbit-restricted search."""

import dataclasses
import functools
import gc
import hashlib
import itertools
import math
import random
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legendre_pairs import decompress, grouptools
from legendre_pairs.candgen import CandidatePair, candidates_d5
from legendre_pairs.decompress import (
    SearchConfig,
    SearchConfigError,
    orbit_search,
    uncompress_search,
)
from legendre_pairs.grouptools import GroupError, lex_unrank_masks, orbits
from legendre_pairs.refdata import ell85, x_table
from legendre_pairs.seqcore import compress, paf, paf_rows, psd_vector, verify_legendre_pair


def oracle_realizations(ell, cand):
    """Independent oracle: enumerate every per-class subset combination of
    both sides and filter by the exact pair condition via FFT autocorrelation."""
    d = len(cand.a)
    m = ell // d

    def side_all(row):
        per_class = []
        for v in row:
            k = (m - v) // 2
            per_class.append(list(itertools.combinations(range(m), k)))
        seqs = []
        for combo in itertools.product(*per_class):
            seq = np.ones(ell, dtype=np.int64)
            for j, neg in enumerate(combo):
                for i in neg:
                    seq[j + i * d] = -1
            seqs.append(seq)
        return np.array(seqs)

    sa, sb = side_all(cand.a), side_all(cand.b)

    def paf_keys(block):
        spec = np.abs(np.fft.rfft(block.astype(np.float64), axis=1)) ** 2
        pv = np.rint(np.fft.irfft(spec, n=ell, axis=1)).astype(np.int64)
        return pv[:, 1 : ell // 2 + 1]

    ka, kb = paf_keys(sa), paf_keys(sb)
    index = defaultdict(list)
    for i, key in enumerate(map(tuple, kb)):
        index[key].append(i)
    pairs = []
    for i, key in enumerate(map(tuple, ka)):
        comp = tuple(-2 - v for v in key)
        for j in index.get(comp, ()):
            pairs.append((tuple(int(v) for v in sa[i]), tuple(int(v) for v in sb[j])))
    return sorted(pairs)


class TestUncompressSearch:
    def test_l15_counts_match_oracle(self):
        for cand in candidates_d5(3):
            res = uncompress_search(15, cand, SearchConfig())
            assert res.exhausted
            assert sorted(res.pairs) == oracle_realizations(15, cand)

    def test_l15_pipeline_x_set_and_soundness(self):
        xs = set()
        for cand in candidates_d5(3):
            res = uncompress_search(15, cand, SearchConfig())
            for A, B in res.pairs:
                rep = verify_legendre_pair(A, B)
                assert rep.is_legendre_pair
                assert compress(A, 3) == cand.a and compress(B, 3) == cand.b
                assert rep.n1_n2 == (16, 16)
                xs.add(rep.x_value)
        assert xs == {0, 8}

    def test_l5_identity_decompression(self):
        for cand in candidates_d5(1):
            res = uncompress_search(5, cand, SearchConfig())
            assert res.pairs == [(cand.a, cand.b)]
            assert verify_legendre_pair(*res.pairs[0]).is_legendre_pair

    def test_inconsistent_candidate_rejected(self):
        bad = CandidatePair(a=(2, 1, 1, 1, -4), b=(1, 1, 1, 1, -3), ell=15, m=3, x=None)
        with pytest.raises(SearchConfigError, match="unreachable"):
            uncompress_search(15, bad, SearchConfig())
        toobig = CandidatePair(a=(5, 1, 1, -3, -3), b=(1, 1, 1, 1, -3), ell=15, m=3)
        with pytest.raises(SearchConfigError, match="unreachable"):
            uncompress_search(15, toobig, SearchConfig())

    @pytest.mark.parametrize(
        "ell,a,b",
        [
            (10, (0, 2, 2, -2, -2), (0, 2, -2, 0, 2)),
            (10, (0, 0, 0, 0, 0), (2, 0, 0, 0, -2)),
            (12, (0, -2, 2), (2, -2, 2)),
            (14, (0,) * 7, (0,) * 7),
        ],
    )
    def test_even_ell_rejected(self, ell, a, b):
        """No Legendre pair has even length: the search refuses before it
        visits a node (at ℓ=12 it used to walk 5,716 nodes for none)."""
        cand = CandidatePair(a=a, b=b, ell=ell, m=ell // len(a))
        with pytest.raises(SearchConfigError, match="even length"):
            uncompress_search(ell, cand, SearchConfig(seed=0))

    def test_budget_monotonicity(self):
        cand = candidates_d5(3)[1]
        small = uncompress_search(15, cand, SearchConfig(seed=9, budget_nodes=1500))
        big = uncompress_search(15, cand, SearchConfig(seed=9, budget_nodes=4000))
        assert not small.exhausted
        assert big.pairs[: len(small.pairs)] == small.pairs
        assert len(big.pairs) >= len(small.pairs)

    def test_determinism(self):
        cand = candidates_d5(3)[0]
        r1 = uncompress_search(15, cand, SearchConfig(seed=4, budget_nodes=3000))
        r2 = uncompress_search(15, cand, SearchConfig(seed=4, budget_nodes=3000))
        assert r1.pairs == r2.pairs and r1.nodes_visited == r2.nodes_visited

    def test_max_solutions(self):
        cand = candidates_d5(3)[1]
        res = uncompress_search(15, cand, SearchConfig(max_solutions=3))
        assert len(res.pairs) == 3 and not res.exhausted

    def test_psd_prune_loses_nothing(self):
        for cand in candidates_d5(3):
            on = uncompress_search(15, cand, SearchConfig(psd_prune=True))
            off = uncompress_search(15, cand, SearchConfig(psd_prune=False))
            assert sorted(on.pairs) == sorted(off.pairs)


def pairs_sha256(pairs):
    """sha256 over the pairs in the order found, one ``A;B`` line each."""
    h = hashlib.sha256()
    for a, b in pairs:
        h.update((",".join(map(str, a)) + ";" + ",".join(map(str, b)) + "\n").encode())
    return h.hexdigest()


def assert_pairs_of(cand, pairs):
    """The engine emits leaves unchecked: each must be a pair compressing to
    the candidate."""
    for A, B in pairs:
        assert verify_legendre_pair(A, B).is_legendre_pair
        assert compress(A, cand.m) == cand.a and compress(B, cand.m) == cand.b


class TestPinnedResults:
    """Exact DFS results (order of pairs, nodes, exhaustion) for fixed inputs.

    Any change to the DFS engine must reproduce these: a budget counts nodes,
    so a faster engine explores the same tree prefix and finds the same pairs
    in the same order.
    """

    @pytest.mark.parametrize(
        "ci,psd_prune,nodes,count,digest",
        [
            (0, True, 5603, 36, "0f4669c87d802d378764fdf4709c35244cf0a236eca1af1bdf413287a4785bda"),
            (0, False, 8735, 36, "0f4669c87d802d378764fdf4709c35244cf0a236eca1af1bdf413287a4785bda"),
            (1, True, 5360, 117, "00c694240f0f6262e18ff97b057a88a6ba174902e46dd08836f0a8d78dbf204e"),
            (1, False, 6980, 117, "00c694240f0f6262e18ff97b057a88a6ba174902e46dd08836f0a8d78dbf204e"),
        ],
    )
    def test_l15_exhaustive(self, ci, psd_prune, nodes, count, digest):
        cand = candidates_d5(3)[ci]
        res = uncompress_search(15, cand, SearchConfig(seed=0, psd_prune=psd_prune))
        assert res.exhausted
        assert res.nodes_visited == nodes
        assert len(res.pairs) == count
        assert pairs_sha256(res.pairs) == digest
        assert_pairs_of(cand, res.pairs)

    @pytest.mark.parametrize(
        "ell,psd_prune,nodes,count,digest",
        [
            (7, True, 525, 196, "cc0a3dc5cdb11a2694976980d76be393530144738b49c13e3f4d904ffa8c73be"),
            (7, False, 1260, 196, "cc0a3dc5cdb11a2694976980d76be393530144738b49c13e3f4d904ffa8c73be"),
            (11, True, 86856, 2904, "a9e484b02dfff2231c0bb5b292b8c98a2eef5aad8f0795b05802e24b1ab92ce6"),
            (11, False, 213906, 2904, "a9e484b02dfff2231c0bb5b292b8c98a2eef5aad8f0795b05802e24b1ab92ce6"),
        ],
    )
    def test_one_class_exhaustive(self, ell, psd_prune, nodes, count, digest):
        """d = 1 (m = ℓ): two steps, no batched tail, and the A side's last
        step is the walk's root."""
        cand = CandidatePair(a=(1,), b=(1,), ell=ell, m=ell)
        res = uncompress_search(ell, cand, SearchConfig(seed=0, psd_prune=psd_prune))
        assert res.exhausted
        assert res.nodes_visited == nodes
        assert len(res.pairs) == count
        assert pairs_sha256(res.pairs) == digest
        assert sorted(res.pairs) == oracle_realizations(ell, cand)

    @pytest.mark.parametrize(
        "ell,a,b,budget,nodes,exhausted",
        [
            (10, (0, 2, 2, -2, -2), (0, 2, -2, 0, 2), 10**6, 1, True),
            (10, (0, 0, 0, 0, 0), (2, 0, 0, 0, -2), 10**6, 2, True),
            (10, (0, 0, 0, 0, 0), (2, 0, 0, 0, -2), 1, 1, False),
            (14, (0,) * 7, (0,) * 7, 10**6, 2, True),
            (14, (0,) * 7, (0,) * 7, 1, 1, False),
        ],
    )
    def test_m2_parity_infeasible(self, ell, a, b, budget, nodes, exhausted):
        """With m = 2 at even ℓ no option of the first depth passes the class
        parity bound, so the old walk counted them as nodes and ended with no
        pair.  The search now refuses even ℓ before that walk, at any budget."""
        cand = CandidatePair(a=a, b=b, ell=ell, m=2)
        with pytest.raises(SearchConfigError, match="even length"):
            uncompress_search(ell, cand, SearchConfig(seed=1, budget_nodes=budget))
        # the refused walk: the depth-0 options, cut at the budget
        first = len(decompress._plan(ell, a, b).options[0])
        assert (min(first, budget), budget >= first) == (nodes, exhausted)
        # the parity bound that pruned them: per shift class c = ±s mod d, a
        # side's PAF summed over the class's shifts must be ≡ ℓ·count (mod 2)
        d = len(a)
        shift_class = [min(s % d, -s % d) for s in range(1, ell // 2 + 1)]
        assert not all(
            ((paf(row, 0) - ell) // 2 if c == 0 else paf(row, c)) % 2 == ell * shift_class.count(c) % 2
            for row in (a, b)
            for c in set(shift_class)
        )

    def test_l25_budget_cut(self):
        found = "4d95505f4788bd34c2fed6b96e55a7420d122656f4254195ef7299ddcd27e5ab"
        empty = hashlib.sha256().hexdigest()
        for cand, digest in zip(candidates_d5(5), (empty, found, empty)):
            res = uncompress_search(25, cand, SearchConfig(seed=7, budget_nodes=20_000))
            assert not res.exhausted
            assert res.nodes_visited == 20_000
            assert pairs_sha256(res.pairs) == digest
            assert_pairs_of(cand, res.pairs)

    @pytest.mark.parametrize(
        "ci,seed,nodes,digest",
        [
            (2, 0, 6956, "d9420a9d0e58e634bed0f2bf541babd543b3ab3e4917c967f7b4517dc5981e5b"),
            (0, 29, 29822, "8a80ca004aeaf9203349dbcf502c0fb5bc3f1f028a7fa3514159d1514bfd5543"),
            (1, 1, 93926, "02448e34f94f87025456fec880909066fa2170cfe99c0ca291633782d8328e93"),
        ],
    )
    def test_l25_first_pair(self, ci, seed, nodes, digest):
        cand = candidates_d5(5)[ci]
        res = uncompress_search(25, cand, SearchConfig(max_solutions=1, seed=seed))
        assert not res.exhausted
        assert res.nodes_visited == nodes
        assert len(res.pairs) == 1
        assert pairs_sha256(res.pairs) == digest
        assert_pairs_of(cand, res.pairs)

    def test_l35_acceptance_search(self):
        """The ℓ=35 acceptance search: the first candidate whose x is in the
        table, seed 2, stopped at its first pair."""
        table_xs = {row["ell"]: set(row["x"]) for row in x_table()}[35]
        cand = next(c for c in cached_candidates(7) if c.x in table_xs)
        cfg = SearchConfig(seed=2, budget_nodes=2_600_000, max_solutions=1)
        res = uncompress_search(35, cand, cfg)
        assert not res.exhausted
        assert res.nodes_visited == 2_357_303
        assert len(res.pairs) == 1
        assert pairs_sha256(res.pairs) == (
            "487b17ba8e7819a16847fb693ab5a267d2e1543f0b5af1424eb0db0a651e8c1f"
        )
        assert_pairs_of(cand, res.pairs)


@functools.lru_cache(maxsize=None)
def cached_candidates(m):
    return tuple(candidates_d5(m))


# Exhaustive node counts of the ℓ=15 candidates (psd_prune on).  The searched
# tree does not depend on the order options are tried in, so neither does
# its size: every seed gives these totals.
L15_TOTALS = (5603, 5360)


class TestDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(
        target=st.sampled_from([(15, 0), (15, 1), (25, 0), (25, 1), (25, 2),
                                (45, 0), (45, 1), (45, 2)]),
        seed=st.integers(0, 2**32 - 1),
        budgets=st.lists(st.integers(1, 7000), min_size=2, max_size=2, unique=True),
    )
    def test_budget_prefix(self, target, seed, budgets):
        """A larger budget extends the explored prefix: the pairs found first
        stay first, and a budget is spent in full unless the tree ends.  At
        ℓ=45 the walk takes the A side's last step from _a_ceiling."""
        ell, ci = target
        cand = cached_candidates(ell // 5)[ci]
        # every ℓ=25 tree here has more than 20,000 nodes (TestPinnedResults),
        # every ℓ=45 tree more than 7,000 (a 7,001-node search is cut)
        total = L15_TOTALS[ci] if ell == 15 else 7_001
        b1, b2 = sorted(budgets)
        small = uncompress_search(ell, cand, SearchConfig(seed=seed, budget_nodes=b1))
        big = uncompress_search(ell, cand, SearchConfig(seed=seed, budget_nodes=b2))
        assert big.pairs[: len(small.pairs)] == small.pairs
        for b, res in ((b1, small), (b2, big)):
            assert res.nodes_visited == min(b, total)
            assert res.exhausted == (b >= total)

    def test_leaves_no_reference_cycle(self):
        """A search frees everything it made by reference counting alone."""
        cand = cached_candidates(9)[0]
        gc.collect()
        gc.disable()
        try:
            for seed in range(5):
                uncompress_search(45, cand, SearchConfig(seed=seed, budget_nodes=200))
            assert gc.collect() == 0
        finally:
            gc.enable()



def walk_search(ell, cand, cfg):
    """uncompress_search with no batched tail: one state per depth down to
    the leaves, each leaf counted as it is walked."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decompress, "TAIL_OPTIONS", 0)
        return uncompress_search(ell, cand, cfg)


class TestBatchedTail:
    """The level-batched tail gives the walk's pairs, node counts and
    exhaustion, wherever the budget or max_solutions cuts the tree."""

    @settings(max_examples=100, deadline=None)
    @given(
        target=st.sampled_from([(15, 0), (15, 1), (25, 0), (25, 1), (25, 2)]),
        seed=st.integers(0, 2**32 - 1),
        budget=st.integers(1, 30_000),
        max_solutions=st.sampled_from([0, 1, 2, 5]),
        psd_prune=st.booleans(),
    )
    def test_matches_walk(self, target, seed, budget, max_solutions, psd_prune):
        ell, ci = target
        cand = cached_candidates(ell // 5)[ci]
        cfg = SearchConfig(seed=seed, budget_nodes=budget, max_solutions=max_solutions,
                           psd_prune=psd_prune)
        tail, walk = uncompress_search(ell, cand, cfg), walk_search(ell, cand, cfg)
        assert tail.pairs == walk.pairs
        assert tail.nodes_visited == walk.nodes_visited
        assert tail.exhausted == walk.exhausted

    @pytest.mark.parametrize(
        "ci,psd_prune,total", [(0, True, 5603), (0, False, 8735), (1, True, 5360), (1, False, 6980)]
    )
    def test_l15_budget_at_the_tree_size(self, ci, psd_prune, total):
        """Every ℓ=15 tree is one tail rooted at depth 0: a budget of its size
        exhausts it, one node less cuts it at its last node."""
        cand = cached_candidates(3)[ci]
        for budget, exhausted in ((total, True), (total - 1, False)):
            cfg = SearchConfig(seed=0, psd_prune=psd_prune, budget_nodes=budget)
            res = uncompress_search(15, cand, cfg)
            assert res.exhausted == exhausted
            assert res.nodes_visited == budget
            assert res.pairs == walk_search(15, cand, cfg).pairs

    @pytest.mark.parametrize("ci,psd_prune", [(0, True), (0, False), (1, True), (1, False)])
    def test_l15_max_solutions_stops_at_the_last_leaf(self, ci, psd_prune):
        cand = cached_candidates(3)[ci]
        full = uncompress_search(15, cand, SearchConfig(seed=0, psd_prune=psd_prune))
        cfg = SearchConfig(seed=0, psd_prune=psd_prune, max_solutions=len(full.pairs))
        res, walk = uncompress_search(15, cand, cfg), walk_search(15, cand, cfg)
        assert not res.exhausted
        assert res.pairs == full.pairs
        assert res.nodes_visited == walk.nodes_visited <= full.nodes_visited

    @pytest.mark.parametrize(
        "ell,a,b",
        [
            (10, (0, 2, 2, -2, -2), (0, 2, -2, 0, 2)),
            (10, (0, 0, 0, 0, 0), (2, 0, 0, 0, -2)),
            (14, (0,) * 7, (0,) * 7),
        ],
    )
    def test_m2_pins_are_one_tail(self, ell, a, b):
        """A tree of m=2 options (at most 2 per depth) is scored as one tail
        rooted at depth 0."""
        widths = [math.comb(2, (2 - v) // 2) for v in a + b]
        assert decompress._tail_start(widths) == 0

    def test_tail_needs_three_depths(self, monkeypatch):
        monkeypatch.setattr(decompress, "TAIL_OPTIONS", 100)
        assert decompress._tail_start([10, 10, 10, 10]) == 4  # 10 × 10 spans 2
        assert decompress._tail_start([200, 2, 5, 10]) == 1
        assert decompress._tail_start([1, 1, 1]) == 0

    @pytest.mark.parametrize(
        "ci,seed,budget,max_solutions,psd_prune",
        [
            (0, 155, 50_000, 1, True),  # its first pair is the leaf at node 745
            (0, 155, 50_000, 0, True),
            (0, 155, 745, 0, True),
            (0, 155, 744, 1, True),
            (0, 155, 50_000, 1, False),  # at node 5,295 with no PSD ceiling
            (0, 155, 5_294, 0, False),
            (1, 2, 37_777, 0, True),
            # walk_search cut below a child of a depth-7 frame whose A-side
            # ceiling keeps options: seed 5 at node 150, in the subtree of
            # nodes 80-219 (3 options kept and live), seed 14 at node 50, in
            # nodes 9-85 (2 kept and live), and seed 174 at its first pair,
            # node 130,727, or one node before it
            (0, 5, 150, 0, True),
            (1, 14, 50, 0, True),
            (1, 174, 200_000, 1, True),
            (1, 174, 130_726, 1, True),
        ],
    )
    def test_matches_walk_below_a_mid_tree_tail(self, ci, seed, budget, max_solutions, psd_prune):
        """At ℓ=35 the search walks 7 depths and batches the last 3, so the
        walk's step and the tail meet mid-tree; walk_search walks all 10 and
        takes the A side's last step (depth 8) from _a_ceiling."""
        cand = cached_candidates(7)[ci]
        plan = decompress._plan(35, cand.a, cand.b)
        assert decompress._tail_start([len(x) for x in plan.options]) == 7
        cfg = SearchConfig(seed=seed, budget_nodes=budget, max_solutions=max_solutions,
                           psd_prune=psd_prune)
        tail, walk = uncompress_search(35, cand, cfg), walk_search(35, cand, cfg)
        assert tail.pairs == walk.pairs
        assert tail.nodes_visited == walk.nodes_visited
        assert tail.exhausted == walk.exhausted

    @pytest.mark.parametrize(
        "ci,seed,tail,budget,max_solutions,psd_prune",
        [
            # seed 2's first pair is the leaf at node 2,729, in the subtree
            # of nodes 2,008-4,177; seed 4's at node 5,842, in nodes 6-8,930,
            # where the budget of 3,000 also cuts.  In both subtrees the A
            # side's last level has parents of 10 states whose ceiling keeps
            # options
            (0, 2, 6, 200_000, 1, True),
            (0, 2, 6, 2_728, 1, True),
            (0, 2, 6, 200_000, 1, False),
            (1, 4, 5, 200_000, 1, True),
            (1, 4, 5, 3_000, 0, True),
        ],
    )
    def test_matches_walk_below_an_l25_tail(self, ci, seed, tail, budget, max_solutions,
                                            psd_prune):
        """At ℓ=25 the tail spans the last 4-5 depths, so it takes the A
        side's last step (depth 8) from _a_last_level; walk_search walks all
        10 and takes it from _a_ceiling per frame."""
        cand = cached_candidates(5)[ci]
        plan = decompress._plan(25, cand.a, cand.b)
        assert decompress._tail_start([len(x) for x in plan.options]) == tail
        cfg = SearchConfig(seed=seed, budget_nodes=budget, max_solutions=max_solutions,
                           psd_prune=psd_prune)
        res, walk = uncompress_search(25, cand, cfg), walk_search(25, cand, cfg)
        assert res.pairs == walk.pairs
        assert res.nodes_visited == walk.nodes_visited
        assert res.exhausted == walk.exhausted

    def test_option_matrices_are_shared_read_only(self):
        options = decompress._options(5, 2, 2)
        assert decompress._options(5, 2, 2) is options
        assert options.shape == (10, 5 + 2 + 1)  # [v | intra-class PAF | 1]
        assert not options.flags.writeable
        for row in options:
            assert row[5:7].tolist() == [paf(row[:5].tolist(), r) for r in (1, 2)]
        q = decompress._tail_options(25, 5, 3, 2)
        assert decompress._tail_options(25, 5, 3, 2) is q
        assert q.shape == (12 * 10, 25 + 12 + 1)  # (shift, option) × [entries | part sums | 1]
        assert not q.flags.writeable


def partial_paf(rows, nshifts):
    """Exact int64 cyclic PAF at shifts 1..nshifts of rows that are 0 where
    unassigned."""
    rows = rows.astype(np.int64)
    return np.stack([(rows * np.roll(rows, -s, axis=-1)).sum(-1)
                     for s in range(1, nshifts + 1)], -1)


class TestScoreBlock:
    """The float64 GEMM scorer against an int64 reference: the same survivors,
    in (state, option) order under a shuffled option order, and the same
    partial PAFs."""

    @settings(max_examples=60, deadline=None)
    @given(
        ell=st.sampled_from([15, 25, 35, 45]),
        ci=st.integers(0, 10**6),
        frac=st.floats(0, 1),
        states=st.sampled_from([1, 24]),
        limit=st.sampled_from(["plan", "median", "loose"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_int64_reference(self, ell, ci, frac, states, limit, seed):
        cands = cached_candidates(ell // 5)
        cand = cands[ci % len(cands)]
        plan = decompress._plan(ell, cand.a, cand.b)
        m, nshifts = plan.plus.shape[1:]
        depth = min(int(frac * len(plan.steps)), len(plan.steps) - 1)
        # reachable states: random options assigned to every earlier depth
        rng = np.random.default_rng(seed)
        rows = np.zeros((states, 2, ell), dtype=np.int8)
        for (side, j), options in zip(plan.steps[:depth], plan.options):
            rows[:, side, plan.classes[j]] = options[rng.integers(len(options), size=states), :m]
        part = np.stack([partial_paf(rows[:, 0], nshifts), partial_paf(rows[:, 1], nshifts)], 1)
        side, j = plan.steps[depth]
        options = plan.options[depth]
        q = decompress._tail_options(ell, 5, j, (ell // 5 - (cand.a, cand.b)[side][j]) // 2)
        # exact integer weights, at most 2 in magnitude on the entries
        np.testing.assert_array_equal(q, np.rint(q))
        assert np.abs(q[:, :ell]).max() <= 2

        full = np.repeat(rows[:, side, None].astype(np.int64), len(options), 1)
        full[:, :, plan.classes[j]] = options[:, :m]
        ref = partial_paf(full, nshifts)  # (states, options, shifts)
        deficit = np.abs(-2 - ref - part[:, None, 1 - side])
        # the plan's limit, or one that about half the options pass, or all
        slack = {"plan": plan.slack[depth],
                 "median": np.full(nshifts, np.median(deficit.max(2))),
                 "loose": np.full(nshifts, 4 * ell)}[limit]
        order = rng.permutation(len(options))  # a search's option order

        s, o, new = decompress._score_block(q, order, rows[:, side], part.astype(np.int32),
                                            side, slack)

        ref_s, ref_o = np.nonzero((deficit <= slack).all(2)[:, order])
        np.testing.assert_array_equal(s, ref_s)
        np.testing.assert_array_equal(o, ref_o)
        assert new.dtype == np.int32
        np.testing.assert_array_equal(new, ref[ref_s, order[ref_o]])
        if limit == "loose":
            assert len(s) == states * len(options)


def reachable_state(plan, depth, rng):
    """A reachable walk state at ``depth``: random options assigned to every
    earlier depth, with its exact partial PAFs (int32)."""
    m, nshifts = plan.plus.shape[1:]
    state = np.zeros((2, plan.classes.size), dtype=np.int8)
    for (side, j), options in zip(plan.steps[:depth], plan.options):
        state[side, plan.classes[j]] = options[rng.integers(len(options)), :m]
    part = np.stack([partial_paf(state[0], nshifts), partial_paf(state[1], nshifts)])
    return state, part.astype(np.int32)


def score_state_and_ceiling(plan, depth, order, state, part, psd_limit):
    """The walk's step with the PSD ceiling taken state by state:
    _score_state, then at the A side's last step _psd_max on its
    survivors."""
    live, new = decompress._score_state(plan, depth, order, state, part)
    if depth == len(plan.steps) - 2:
        keep = decompress._psd_max(new, plan.cos) <= psd_limit
        live, new = live[keep], new[keep]
    return live, new


class TestScoreState:
    """The walk's step (_score_state, then _psd_max at the A side's last
    step) against _score_block with one state, then _psd_max: the same
    survivor positions in the seeded order and the same int32 partial
    PAFs."""

    @settings(max_examples=80, deadline=None)
    @given(
        ell=st.sampled_from([15, 25, 35, 45]),
        ci=st.integers(0, 10**6),
        frac=st.floats(0, 1),
        a_last=st.booleans(),
        limit=st.sampled_from(["plan", "median", "loose"]),
        psd_prune=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_score_block(self, ell, ci, frac, a_last, limit, psd_prune, seed):
        cands = cached_candidates(ell // 5)
        cand = cands[ci % len(cands)]
        plan = decompress._plan(ell, cand.a, cand.b)
        m, nshifts = plan.plus.shape[1:]
        a_last_step = len(plan.steps) - 2
        depth = a_last_step if a_last else min(int(frac * len(plan.steps)), len(plan.steps) - 1)
        rng = np.random.default_rng(seed)
        state, part = reachable_state(plan, depth, rng)
        side, j = plan.steps[depth]
        options = plan.options[depth]
        full = np.repeat(state[None, side].astype(np.int64), len(options), 0)
        full[:, plan.classes[j]] = options[:, :m]
        deficit = np.abs(-2 - partial_paf(full, nshifts) - part[1 - side])
        # the plan's limit, or one that about half the options pass, or all
        slack = {"plan": plan.slack[depth],
                 "median": np.full(nshifts, np.median(deficit.max(1))),
                 "loose": np.full(nshifts, 4 * ell)}[limit]
        limits = plan.slack.copy()
        limits[depth] = slack
        plan = plan._replace(slack=limits)
        order = rng.permutation(len(options))  # a search's option order
        psd_limit = 2 * ell + 2 + decompress.PSD_CEILING_TOL if psd_prune else np.inf

        live, new = score_state_and_ceiling(plan, depth, order, state, part, psd_limit)

        q = decompress._tail_options(ell, 5, j, (m - (cand.a, cand.b)[side][j]) // 2)
        s, o, ref = decompress._score_block(q, order, state[None, side], part[None], side,
                                            limits[depth])
        if psd_prune and depth == a_last_step and len(s):
            keep = decompress._psd_max(ref, plan.cos) <= psd_limit
            o, ref = o[keep], ref[keep]
        np.testing.assert_array_equal(live, o)
        assert np.all(np.diff(live) > 0)  # positions in the seeded order
        assert new.dtype == np.int32
        np.testing.assert_array_equal(new, ref)
        if limit == "loose" and not (psd_prune and depth == a_last_step):
            assert len(live) == len(options)

    def test_psd_ceiling_prunes_at_the_a_side_last_step(self):
        """With every option inside the joint bound, the step's PSD ceiling
        alone decides at the A side's last step, and drops some options."""
        cand = cached_candidates(5)[1]
        plan = decompress._plan(25, cand.a, cand.b)
        depth = len(plan.steps) - 2
        plan = plan._replace(slack=np.full_like(plan.slack, 100))
        m, nshifts = plan.plus.shape[1:]
        state = np.zeros((2, 25), dtype=np.int8)
        for (side, j), options in zip(plan.steps[:depth], plan.options):
            state[side, plan.classes[j]] = options[0, :m]
        part = np.stack([partial_paf(state[0], nshifts), partial_paf(state[1], nshifts)])
        order = np.arange(len(plan.options[depth]))
        args = plan, depth, order, state, part.astype(np.int32)
        every, _ = decompress._score_state(*args)
        kept, _ = score_state_and_ceiling(*args, 2 * 25 + 2 + decompress.PSD_CEILING_TOL)
        assert len(every) == len(order) > len(kept)


class TestACeiling:
    """The walk's A-side last step from the frame one B step above it:
    _a_ceiling once per frame, then _a_last_step per child, against
    _score_state and _psd_max on each child's state."""

    @settings(max_examples=40, deadline=None)
    @given(
        ell=st.sampled_from([25, 35, 45]),
        ci=st.integers(0, 10**6),
        psd=st.sampled_from(["real", "every"]),
        limit=st.sampled_from(["plan", "loose"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_score_state(self, ell, ci, psd, limit, seed):
        cands = cached_candidates(ell // 5)
        cand = cands[ci % len(cands)]
        plan = decompress._plan(ell, cand.a, cand.b)
        depth = len(plan.steps) - 2  # the A side's last step
        above = depth - 1
        assert plan.steps[above][0] == 1  # a B step: A's row is fixed below it
        # every option of the frame above is a live child; at the A side's
        # last step the plan's limit, or one that every option passes
        limits = plan.slack.copy()
        limits[above] = 4 * ell
        if limit == "loose":
            limits[depth] = 4 * ell
        plan = plan._replace(slack=limits)
        # the real PSD ceiling, or one that keeps every option
        psd_limit = 2 * ell + 2 + decompress.PSD_CEILING_TOL if psd == "real" else np.inf
        rng = np.random.default_rng(seed)
        state, part = reachable_state(plan, above, rng)
        orders = [rng.permutation(len(plan.options[d])) for d in (above, depth)]
        children, pafs = decompress._score_state(plan, above, orders[0], state, part)
        assert len(children) == len(orders[0])

        ceiling = decompress._in_order(orders[1],
                                       *decompress._a_ceiling(plan, state, part, psd_limit))
        if psd == "every":
            assert len(ceiling[0]) == len(orders[1])
        m, j = plan.plus.shape[1], plan.steps[above][1]
        for pos, paf_b in zip(children, pafs):
            child, child_part = state.copy(), part.copy()
            child[1, plan.classes[j]] = plan.options[above][orders[0][pos], :m]
            child_part[1] = paf_b
            live, new = decompress._a_last_step(ceiling, child_part, limits[depth])
            ref, ref_new = score_state_and_ceiling(plan, depth, orders[1], child, child_part,
                                                   psd_limit)
            np.testing.assert_array_equal(live, ref)
            assert np.all(np.diff(live) > 0)  # positions in the seeded order
            assert new.dtype == np.int32
            np.testing.assert_array_equal(new, ref_new)
            if limit == "loose":
                assert len(live) == len(ceiling[0])

    @pytest.mark.parametrize("ci,seed", [(0, 0), (0, 3), (0, 5), (1, 0)])
    def test_walk_budget_at_the_tree_size(self, ci, seed):
        """The tail-less ℓ=15 walk, which takes the A side's last step from
        _a_ceiling: a budget of the tree's size exhausts it, one node less
        cuts it at its last node.  At seeds 3 and 5 of the first candidate
        the walk ends on a child whose options the ceiling all prunes, so
        the count without entering it decides."""
        cand = cached_candidates(3)[ci]
        total = L15_TOTALS[ci]
        for budget, exhausted in ((total, True), (total - 1, False)):
            res = walk_search(15, cand, SearchConfig(seed=seed, budget_nodes=budget))
            assert (res.nodes_visited, res.exhausted) == (budget, exhausted)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        budget=st.integers(1, 60_000),
        max_solutions=st.sampled_from([0, 1, 2, 50, 400]),
    )
    def test_walk_counts_a_pruned_frame_by_the_next_width(self, seed, budget, max_solutions):
        """d = 3 at ℓ=15 (m = 5), the 5-compression rows of an ℓ=15 pair: the
        A side's last step (depth 4, 10 options) is wider than the B step
        above it (depth 3, 5 options), and the walk counts about 150 frames
        there whose ceiling keeps nothing.  It agrees with the batched tail,
        which scores depths 1-5 level by level; the tree has 58,060 nodes
        and 800 pairs."""
        cand = CandidatePair(a=(-1, 1, 1), b=(1, -3, 3), ell=15, m=5)
        assert [len(x) for x in decompress._plan(15, cand.a, cand.b).options][3:5] == [5, 10]
        cfg = SearchConfig(seed=seed, budget_nodes=budget, max_solutions=max_solutions)
        res, walk = uncompress_search(15, cand, cfg), walk_search(15, cand, cfg)
        assert res.pairs == walk.pairs
        assert res.nodes_visited == walk.nodes_visited
        assert res.exhausted == walk.exhausted
        full = uncompress_search(15, cand, SearchConfig(seed=seed))
        assert (full.nodes_visited, len(full.pairs)) == (58_060, 800)

    @pytest.mark.parametrize("psd_prune", [True, False])
    def test_walk_scores_no_a_side_last_step(self, monkeypatch, psd_prune):
        """A 4,000-node ℓ=45 search makes no _score_state call at the A
        side's last step, but reaches it through _a_ceiling, with the PSD
        ceiling on or off (math.inf: it keeps every option)."""
        cand = cached_candidates(9)[0]
        depth = len(decompress._plan(45, cand.a, cand.b).steps) - 2
        calls = defaultdict(int)  # _score_state calls per depth, and _a_ceiling's
        score_state, a_ceiling = decompress._score_state, decompress._a_ceiling

        def counting_score_state(plan, d, *args):
            calls[d] += 1
            return score_state(plan, d, *args)

        def counting_a_ceiling(*args):
            calls["ceiling"] += 1
            return a_ceiling(*args)

        monkeypatch.setattr(decompress, "_score_state", counting_score_state)
        monkeypatch.setattr(decompress, "_a_ceiling", counting_a_ceiling)
        uncompress_search(45, cand, SearchConfig(seed=1, budget_nodes=4000, psd_prune=psd_prune))
        assert calls[depth - 1] > 0
        assert calls[depth] == 0 < calls["ceiling"]


# The dfs_scan_l45 benchmark's candidates: x in (6, 12) at m = 9.
SCAN_X = (6, 12)
# Per (scan candidate, seed): each depth-7 frame the ℓ=45 walk completes
# within 33,000 nodes, as (its last live child's pre-visit count, its total).
# The frame of candidate 1, seed 2 at 20,125 and that of candidate 3, seed 0
# have an A-side ceiling that keeps options; every other one keeps none.
SCAN_FRAMES = {
    (0, 0): ((15_882, 16_009), (31_885, 32_012)),
    (0, 2): ((15_882, 16_009), (31_885, 32_012)),
    (1, 0): ((10_548, 10_675), (21_217, 21_344), (31_886, 32_013)),
    (1, 2): ((19_872, 20_125), (30_667, 30_794)),
    (2, 0): ((15_882, 16_009), (31_885, 32_012)),
    (2, 2): ((15_882, 16_009), (31_885, 32_012)),
    (3, 0): ((25_626, 25_837),),
    (3, 2): ((15_882, 16_009),),
}


class TestScanBudgetSweep:
    """ℓ=45 searches on the scan candidates, cut one node around each
    depth-7 frame's last child and its end, and at budgets through the
    first frame: pairs, nodes_visited and exhaustion pinned by one digest."""

    def test_pinned_digest(self):
        cands = [c for c in cached_candidates(9) if c.x in SCAN_X]
        assert len(cands) == 4
        h = hashlib.sha256()
        for (ci, seed), frames in SCAN_FRAMES.items():
            cuts = sorted({n + e for frame in frames for n in frame for e in (-1, 0, 1)})
            for budget in list(range(1, 6_001, 53)) + cuts:
                res = uncompress_search(45, cands[ci], SearchConfig(seed=seed,
                                                                    budget_nodes=budget))
                h.update(f"{ci},{seed},{budget}:{res.nodes_visited},{res.exhausted},"
                         f"{pairs_sha256(res.pairs)}\n".encode())
        assert h.hexdigest() == (
            "df9d0acc3a85330097795383142ca75a8797bad563f299d5ea33060c1c066e1f"
        )


def drawn_orders(monkeypatch):
    """Record every order decompress._shuffled draws, in call order."""
    drawn, shuffled = [], decompress._shuffled

    def spy(rng, w):
        perm = shuffled(rng, w)
        drawn.append(perm)
        return perm

    monkeypatch.setattr(decompress, "_shuffled", spy)
    return drawn


SHUFFLE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, -7)
# every width to 300, each side of the powers of two to 2**15, and the
# widest depth at ℓ=85 (C(17, 8) options)
SHUFFLE_WIDTHS = sorted(set(range(301)) | {2**k + e for k in range(1, 16) for e in (-1, 0, 1)}
                        | {math.comb(17, 8)})
SHUFFLE_PINS = ("every DFS pin depends on _shuffled leaving CPython's random.shuffle order "
                "and drawing the same Mersenne Twister words")


def reference_shuffle(rng, w):
    """range(w) shuffled by rng.shuffle: the reference for _shuffled."""
    perm = list(range(w))
    rng.shuffle(perm)
    return perm


class TestShuffled:
    """decompress._shuffled against random.Random.shuffle on range(w): the
    same order and the same words drawn, width by width and along one rng
    drawing a search's sequence of depths."""

    @pytest.mark.parametrize("seed", SHUFFLE_SEEDS)
    def test_each_width(self, seed):
        for w in SHUFFLE_WIDTHS:
            ours, ref = random.Random(seed), random.Random(seed)
            assert decompress._shuffled(ours, w) == reference_shuffle(ref, w), (
                f"order differs at w={w}: {SHUFFLE_PINS}")
            assert ours.getstate() == ref.getstate(), f"words differ at w={w}: {SHUFFLE_PINS}"

    @pytest.mark.parametrize("seed", SHUFFLE_SEEDS)
    def test_word_stream_continues_across_depths(self, seed):
        pick = random.Random(f"widths {seed}")
        widths = [pick.choice((0, 1, 2, 9, 126, 4096, 4097, pick.randrange(1, 1000)))
                  for _ in range(60)] + [math.comb(17, 8)]
        ours, ref = random.Random(seed), random.Random(seed)
        for i, w in enumerate(widths):
            assert decompress._shuffled(ours, w) == reference_shuffle(ref, w), (
                f"order differs at draw {i} (w={w}): {SHUFFLE_PINS}")
        assert ours.getstate() == ref.getstate(), SHUFFLE_PINS


class TestSeededOrders:
    """A search draws each depth's seeded option order on first use, in depth
    order, and pays nothing below a frame whose A-side ceiling keeps none."""

    @pytest.mark.parametrize("psd_prune", [True, False])
    def test_all_pruned_frame_draws_no_deeper_order(self, monkeypatch, psd_prune):
        """A 4,000-node ℓ=45 search cut inside its first depth-7 frame,
        whose ceiling keeps no option (SCAN_FRAMES): one _a_ceiling call, no
        _a_last_step call, and no order drawn for depths 7, 8 and 9.  With
        the ceiling off (math.inf) it keeps every option, and all are drawn."""
        cand = [c for c in cached_candidates(9) if c.x in SCAN_X][0]
        widths = [len(x) for x in decompress._plan(45, cand.a, cand.b).options]
        calls = defaultdict(int)
        a_ceiling, a_last_step = decompress._a_ceiling, decompress._a_last_step

        def counting_a_ceiling(*args):
            calls["ceiling"] += 1
            return a_ceiling(*args)

        def counting_a_last_step(*args):
            calls["last_step"] += 1
            return a_last_step(*args)

        monkeypatch.setattr(decompress, "_a_ceiling", counting_a_ceiling)
        monkeypatch.setattr(decompress, "_a_last_step", counting_a_last_step)
        drawn = drawn_orders(monkeypatch)
        res = uncompress_search(45, cand, SearchConfig(seed=0, budget_nodes=4000,
                                                       psd_prune=psd_prune))
        assert (res.nodes_visited, res.exhausted) == (4000, False)
        assert calls["ceiling"] == 1
        if psd_prune:
            assert calls["last_step"] == 0
            assert [len(x) for x in drawn] == widths[:7]
        else:
            assert calls["last_step"] > 0
            assert [len(x) for x in drawn] == widths

    @settings(max_examples=40, deadline=None)
    @given(
        target=st.sampled_from([(15, 0), (15, 1), (25, 0), (25, 2), (35, 0),
                                (45, 0), (45, 1), (45, 3)]),
        seed=st.integers(0, 2**32 - 1),
        budget=st.integers(1, 20_000),
        psd_prune=st.booleans(),
    )
    def test_drawn_orders_are_a_prefix(self, target, seed, budget, psd_prune):
        """The orders a search draws are the first of the per-depth shuffles
        drawn all up front from the same seed."""
        ell, ci = target
        cand = cached_candidates(ell // 5)[ci]
        eager, rng = [], random.Random(seed)
        for x in decompress._plan(ell, cand.a, cand.b).options:
            perm = list(range(len(x)))
            rng.shuffle(perm)
            eager.append(perm)
        with pytest.MonkeyPatch.context() as mp:
            drawn = drawn_orders(mp)
            uncompress_search(ell, cand, SearchConfig(seed=seed, budget_nodes=budget,
                                                      psd_prune=psd_prune))
        assert drawn
        assert drawn == eager[:len(drawn)]


def per_state_a_last_level(plan, ell, cand, order, states, part, psd_limit):
    """The batched tail's A-side last step scored state by state:
    _score_block on each block of states, then _psd_max on its survivors."""
    j = plan.steps[-2][1]
    m, nshifts = plan.plus.shape[1:]
    q = decompress._tail_options(ell, 5, j, (m - cand.a[j]) // 2)
    chunk = max(1, decompress.TAIL_BLOCK // (len(order) * nshifts))
    found = []
    for lo in range(0, len(states), chunk):
        s, o, new = decompress._score_block(q, order, states[lo:lo + chunk, 0],
                                            part[lo:lo + chunk], 0, plan.slack[-2])
        keep = decompress._psd_max(new, plan.cos) <= psd_limit
        found.append((s[keep] + lo, o[keep], new[keep]))
    return [np.concatenate(x) for x in zip(*found)]


class TestALastLevel:
    """The batched tail's A-side last step with the PSD ceiling
    (_a_last_level: _a_ceiling once per parent, then each state's joint
    bound) against scoring it state by state."""

    @settings(max_examples=40, deadline=None)
    @given(
        ell=st.sampled_from([15, 25, 35]),
        ci=st.integers(0, 10**6),
        parents=st.integers(2, 5),
        psd=st.sampled_from(["real", "every"]),
        limit=st.sampled_from(["plan", "loose"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_state_path(self, ell, ci, parents, psd, limit, seed):
        """A frontier of parents one B step above, each followed by several
        of its B options, as the tail's level above leaves them.  At ℓ=35
        the per-state path takes blocks of 27 states, so most frontiers
        there span several."""
        cands = cached_candidates(ell // 5)
        cand = cands[ci % len(cands)]
        plan = decompress._plan(ell, cand.a, cand.b)
        m, nshifts = plan.plus.shape[1:]
        depth = len(plan.steps) - 2  # the A side's last step
        above, jb = depth - 1, plan.steps[depth - 1][1]
        if limit == "loose":  # a joint limit that every option passes
            limits = plan.slack.copy()
            limits[depth] = 4 * ell
            plan = plan._replace(slack=limits)
        # the real PSD ceiling, or one that keeps every option
        psd_limit = 2 * ell + 2 + decompress.PSD_CEILING_TOL if psd == "real" else np.inf
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(plan.options[depth]))  # a search's option order
        b_options = plan.options[above]
        states, parts, parent = [], [], []
        for p in range(parents):
            # with the real ceiling, alternately a parent whose ceiling keeps
            # options and one whose ceiling keeps none, where 30 draws find it
            for _ in range(30):
                state, part = reachable_state(plan, above, rng)
                keep = decompress._a_ceiling(plan, state, part, psd_limit)[0]
                if keep.any() == (psd == "every" or p % 2 == 0):
                    break
            width = len(b_options)
            for o in np.sort(rng.choice(width, rng.integers(min(2, width), width + 1), False)):
                child = state.copy()
                child[1, plan.classes[jb]] = b_options[o, :m]
                states.append(child)
                parts.append([part[0], partial_paf(child[1], nshifts)])
                parent.append(2 * p + 1)  # the level above's survivors skip indices
        states, part = np.array(states), np.array(parts, dtype=np.int32)

        s, o, new = decompress._a_last_level(plan, order, states, part, np.array(parent),
                                             psd_limit)

        ref_s, ref_o, ref = per_state_a_last_level(plan, ell, cand, order, states, part,
                                                   psd_limit)
        np.testing.assert_array_equal(s, ref_s)
        np.testing.assert_array_equal(o, ref_o)
        assert new.dtype == np.int32
        np.testing.assert_array_equal(new, ref)
        if psd == "every" and limit == "loose":
            assert len(s) == len(states) * len(order)

    @pytest.mark.parametrize("ell,ci,seed,budget", [(25, 0, 29, 30_000), (35, 0, 2, 60_000)])
    @pytest.mark.parametrize("psd_prune", [True, False])
    def test_tail_scores_no_a_side_last_step(self, monkeypatch, ell, ci, seed, budget,
                                             psd_prune):
        """The batched tail makes no _score_block call at the A side's last
        step, and takes one _a_ceiling row per parent there (_a_last_level),
        fewer than its states, with the PSD ceiling on or off."""
        cand = cached_candidates(ell // 5)[ci]
        plan = decompress._plan(ell, cand.a, cand.b)
        m = ell // 5
        j, jb = plan.steps[-2][1], plan.steps[-3][1]
        q_a = decompress._tail_options(ell, 5, j, (m - cand.a[j]) // 2)
        q_b = decompress._tail_options(ell, 5, jb, (m - cand.b[jb]) // 2)
        calls = defaultdict(int)
        score_block, a_ceiling = decompress._score_block, decompress._a_ceiling

        def counting_score_block(q, order, rows, part, side, slack):
            s, o, new = score_block(q, order, rows, part, side, slack)
            if q is q_a and side == 0:
                calls["a_last"] += 1
            if q is q_b and side == 1:  # the level above: its survivors and their parents
                calls["states"] += len(s)
                calls["parents"] += len(np.unique(s))
            return s, o, new

        def counting_a_ceiling(plan, state, *args):
            calls["ceiling"] += len(state)  # at ℓ=25 and 35 only the tail calls it
            return a_ceiling(plan, state, *args)

        monkeypatch.setattr(decompress, "_score_block", counting_score_block)
        monkeypatch.setattr(decompress, "_a_ceiling", counting_a_ceiling)
        uncompress_search(ell, cand, SearchConfig(seed=seed, budget_nodes=budget,
                                                  psd_prune=psd_prune))
        assert calls["states"] > 0
        assert calls["a_last"] == 0
        assert 0 < calls["ceiling"] == calls["parents"] < calls["states"]


class TestDftCeiling:
    """The DFS PSD ceiling (_psd_max: PSD_k = ℓ + 2 Σ_s PAF(s)·cos(2π·sk/ℓ),
    one float64 product on exact PAFs) against psd_vector's FFT of the ±1
    rows: the maximum over k != 0 within 1e-9 and the same keep mask.  Its
    ℓ//2 terms are |PAF| <= ℓ times reduced cosines, so it errs by at most
    8ℓ³·2**-53 (< 1e-8 for ℓ <= 200)."""

    @staticmethod
    def check(rows, cos):
        ell = rows.shape[1]
        got = decompress._psd_max(partial_paf(rows, ell // 2).astype(np.int32), cos)
        ref = psd_vector(rows)[:, 1:].max(1)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-9)
        limit = 2 * ell + 2 + decompress.PSD_CEILING_TOL
        np.testing.assert_array_equal(got <= limit, ref <= limit)

    @settings(max_examples=60, deadline=None)
    @given(
        ell=st.sampled_from([15, 25, 35, 45]),
        ci=st.integers(0, 10**6),
        states=st.sampled_from([1, 24]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_fft(self, ell, ci, states, seed):
        cands = cached_candidates(ell // 5)
        cand = cands[ci % len(cands)]
        plan = decompress._plan(ell, cand.a, cand.b)
        assert not plan.cos.flags.writeable
        h = ell // 2
        # entry (s - 1, k - 1) is cos 2π(s·k mod ℓ)/ℓ: every angle is reduced
        sk = np.arange(1, h + 1)[:, None] * np.arange(1, h + 1) % ell
        np.testing.assert_array_equal(plan.cos, np.cos(2 * np.pi / ell * sk))
        m = plan.plus.shape[1]
        # completed A rows, a random option in every class, as the search's
        # A side's last step leaves them
        rng = np.random.default_rng(seed)
        rows = np.zeros((states, ell), dtype=np.int8)
        for (side, j), options in zip(plan.steps, plan.options):
            if side == 0:
                rows[:, plan.classes[j]] = options[rng.integers(len(options), size=states), :m]
        assert np.all(rows != 0)
        self.check(rows, plan.cos)

    @pytest.mark.parametrize("ell", [85, 199])
    def test_matches_fft_on_random_rows(self, ell):
        rng = np.random.default_rng(ell)
        cos = decompress._plan(ell, (1,) * ell, (1,) * ell).cos  # m = 1: a small plan
        self.check(1 - 2 * rng.integers(0, 2, size=(64, ell), dtype=np.int8), cos)


def loop_slack(plan, ell):
    """The joint bound's limit per depth and shift, counted a step at a
    time: the reference for _plan's one vectorised pass."""
    nshifts = plan.plus.shape[2]
    slack = np.zeros((len(plan.steps), nshifts), dtype=np.int64)
    seen = np.zeros((2, ell), dtype=bool)
    unknown = np.full((2, nshifts), ell, dtype=np.int32)
    for depth, (side, j) in enumerate(plan.steps):
        # products fixed by this step: partners already assigned at i - s
        # (outside the class), and at i + s once the class itself is assigned
        done = seen[side, plan.minus[j]].sum(0)
        seen[side, plan.classes[j]] = True
        unknown[side] -= done + seen[side, plan.plus[j]].sum(0)
        slack[depth] = unknown.sum(0)
    return slack


def element_slack(plan, ell):
    """The joint bound's limit per depth and shift from the (2, ℓ, ℓ//2)
    element grid: the product of entries i and i + s of a side is known
    from the later of the steps that assign them.  The reference for
    _plan's (2, d, ℓ//2) class grid, where each class stands for m entries."""
    nshifts = ell // 2
    shifts = np.arange(1, nshifts + 1)
    at = np.empty((2, ell), dtype=np.intp)
    sides, js = zip(*plan.steps)
    at[np.array(sides)[:, None], plan.classes[list(js)]] = np.arange(len(plan.steps))[:, None]
    known = np.maximum(at[:, :, None], at[:, (np.arange(ell)[:, None] + shifts) % ell])
    fixed = np.bincount((known * nshifts + shifts - 1).ravel(),
                        minlength=len(plan.steps) * nshifts)
    return 2 * ell - fixed.reshape(len(plan.steps), nshifts).cumsum(0, dtype=np.int64)


class TestPlanSlack:
    """_plan's unknown-product limits equal the step-by-step count, dtype
    included, for every d=5 candidate up to ℓ=45 and the even m=2 shapes."""

    @pytest.mark.parametrize("m", [1, 3, 5, 7, 9])
    def test_matches_loop(self, m):
        for cand in cached_candidates(m):
            plan = decompress._plan(5 * m, cand.a, cand.b)
            assert plan.slack.dtype == np.int64
            np.testing.assert_array_equal(plan.slack, loop_slack(plan, 5 * m))

    @pytest.mark.parametrize(
        "ell,a,b",
        [
            (10, (0, 2, 2, -2, -2), (0, 2, -2, 0, 2)),
            (10, (0, 0, 0, 0, 0), (2, 0, 0, 0, -2)),
            (14, (0,) * 7, (0,) * 7),
        ],
    )
    def test_matches_loop_m2(self, ell, a, b):
        plan = decompress._plan(ell, a, b)
        assert plan.slack.dtype == np.int64
        np.testing.assert_array_equal(plan.slack, loop_slack(plan, ell))

    @pytest.mark.parametrize("m", [3, 5, 7, 9])
    def test_class_grid_matches_element_grid(self, m):
        for cand in cached_candidates(m):
            plan = decompress._plan(5 * m, cand.a, cand.b)
            np.testing.assert_array_equal(plan.slack, element_slack(plan, 5 * m))

    @pytest.mark.parametrize("ell", [7, 11, 15, 25, 35, 45])
    def test_class_grid_matches_element_grid_one_class(self, ell):
        """d = 1: one class of m = ℓ entries, one -1 per side."""
        plan = decompress._plan(ell, (ell - 2,), (ell - 2,))
        np.testing.assert_array_equal(plan.slack, element_slack(plan, ell))

    def test_tables_are_shared_read_only(self):
        """Plans at one (ℓ, d) share their classes, plus, minus, own and cos,
        and none of them takes a write."""
        first, second = (decompress._plan(45, c.a, c.b) for c in cached_candidates(9)[:2])
        for name in ("classes", "plus", "minus", "own", "cos"):
            x = getattr(first, name)
            assert getattr(second, name) is x
            with pytest.raises(ValueError, match="read-only"):
                x[(0,) * x.ndim] = 0


class TestListCandidate:
    """_plan reads a candidate's rows as any sequence of ints."""

    @pytest.mark.parametrize("ell,budget", [(25, 30_000), (45, 4_000)])
    def test_list_valued_candidate_searches(self, ell, budget):
        """A candidate whose rows are lists searches as its tuple form does:
        at ℓ=25 through the batched tail, at ℓ=45 through the walk's
        A-side ceiling."""
        for cand in cached_candidates(ell // 5)[:2]:
            as_lists = CandidatePair(a=list(cand.a), b=list(cand.b), ell=ell, m=ell // 5)
            cfg = SearchConfig(seed=3, budget_nodes=budget)
            res, ref = uncompress_search(ell, as_lists, cfg), uncompress_search(ell, cand, cfg)
            assert res.pairs == ref.pairs
            assert (res.nodes_visited, res.exhausted) == (ref.nodes_visited, ref.exhausted)
            assert res.nodes_visited == budget


def oracle_block_pairs(ell):
    """Independent all-blocks census: every a0=+1 sum-1 sequence per side,
    unordered complement matching (self-pairs included if they verify)."""
    half = (ell - 1) // 2
    blocks = list(itertools.combinations(range(1, ell), half))
    seqs = np.ones((len(blocks), ell), dtype=np.int64)
    for r, blk in enumerate(blocks):
        seqs[r, list(blk)] = -1
    spec = np.abs(np.fft.rfft(seqs.astype(np.float64), axis=1)) ** 2
    pv = np.rint(np.fft.irfft(spec, n=ell, axis=1)).astype(np.int64)
    keys = [tuple(row) for row in pv[:, 1 : ell // 2 + 1]]
    groups = defaultdict(list)
    for i, key in enumerate(keys):
        groups[key].append(i)
    count = 0
    for key, members in groups.items():
        comp = tuple(-2 - v for v in key)
        if comp not in groups:
            continue
        if key < comp:
            count += len(members) * len(groups[comp])
        elif key == comp:
            n = len(members)
            count += n * (n - 1) // 2
            count += sum(1 for i in members if all(v == -1 for v in pv[i, 1:]))
    return count


def _selection_hash(seed, index, space1, space2):
    """Counter-based pseudo-random selection pair, one index at a time: the
    reference for _selections' sampling, which draws the same pairs a chunk
    of indices at a time."""
    digest = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=16).digest()
    v = int.from_bytes(digest, "big")
    return (v % space1, (v // space1) % space2)


class TestOrbitSearch:
    def l85_cfg(self, **kw):
        args = dict(
            strategy="orbit_restricted",
            subgroup_generators=(69,),
            ones_orbits=12,
            twos_orbits=15,
            budget_nodes=40,
            seed=5,
        )
        args.update(kw)
        return SearchConfig(**args)

    def test_selection_count_identity(self):
        with pytest.raises(SearchConfigError, match="block size"):
            orbit_search(85, self.l85_cfg(twos_orbits=14))

    def test_hinted_l85_pair_found_and_reencoded(self):
        data = ell85()
        cp = data["code_pairs"][0]
        cfg = self.l85_cfg(
            hint_codes=(
                (cp["a"]["ones"], cp["a"]["twos"]),
                (cp["b"]["ones"], cp["b"]["twos"]),
            )
        )
        res = orbit_search(85, cfg)
        assert len(res.pairs) >= 1
        (A, B), (codes_a, codes_b) = res.pairs[0], res.codes[0]
        assert verify_legendre_pair(A, B).is_legendre_pair
        assert codes_a[1] == (16, 12, cp["a"]["ones"])
        assert codes_a[2] == (34, 15, cp["a"]["twos"])
        assert codes_b[1] == (16, 12, cp["b"]["ones"])
        assert codes_b[2] == (34, 15, cp["b"]["twos"])

    def test_all_four_published_code_pairs(self):
        data = ell85()
        hints = []
        for cp in data["code_pairs"]:
            hints.append((cp["a"]["ones"], cp["a"]["twos"]))
            hints.append((cp["b"]["ones"], cp["b"]["twos"]))
        cfg = self.l85_cfg(hint_codes=tuple(hints), budget_nodes=len(hints))
        res = orbit_search(85, cfg)
        found = set()
        for (codes_a, codes_b) in res.codes:
            found.add((codes_a[1][2], codes_a[2][2], codes_b[1][2], codes_b[2][2]))
            found.add((codes_b[1][2], codes_b[2][2], codes_a[1][2], codes_a[2][2]))
        for cp in data["code_pairs"]:
            key = (cp["a"]["ones"], cp["a"]["twos"], cp["b"]["ones"], cp["b"]["twos"])
            assert key in found

    def test_l15_exhaustive_matches_direct_oracle(self):
        cfg = SearchConfig(
            strategy="orbit_restricted",
            subgroup_generators=(1,),
            ones_orbits=7,
            twos_orbits=0,
            exhaustive=True,
            p2_prefilter=False,
            budget_nodes=10**7,
        )
        res = orbit_search(15, cfg)
        assert res.exhausted
        for A, B in res.pairs:
            assert verify_legendre_pair(A, B).is_legendre_pair
        assert len(res.pairs) == oracle_block_pairs(15)

    def test_p2_prefilter_safety(self):
        base = dict(
            strategy="orbit_restricted",
            subgroup_generators=(1,),
            ones_orbits=7,
            twos_orbits=0,
            exhaustive=True,
            budget_nodes=10**7,
        )
        with_filter = orbit_search(15, SearchConfig(p2_prefilter=True, **base))
        without = orbit_search(15, SearchConfig(p2_prefilter=False, **base))
        target = 4 * 3 + 1
        balanced = {
            frozenset((A, B))
            for A, B in without.pairs
            if paf(compress(A, 3), 0) == target and paf(compress(B, 3), 0) == target
        }
        assert {frozenset(p) for p in with_filter.pairs} == balanced

    def test_twos_rank_checked_without_2_orbits(self):
        """With no 2-orbits the only twos rank is 0: (3, 5) is refused, not
        read as a second copy of (3, 0)."""
        with pytest.raises(GroupError, match="rank 5 out of range"):
            orbit_search(15, block_cfg(15, exhaustive=True, hint_codes=((3, 0), (3, 5))))

    def test_every_hint_checked_before_the_first_selection(self):
        """A bad hint past the budget is refused, not left unread."""
        cfg = block_cfg(15, budget_nodes=1, hint_codes=((3, 0), (7, 0), (5000, 0)))
        with pytest.raises(GroupError, match="rank 5000 out of range"):
            orbit_search(15, cfg)

    @pytest.mark.parametrize("seed", [0, 7, -3, 2**40])
    @pytest.mark.parametrize("ell, gens, k1, k2, count", [
        (85, (69,), 12, 15, 2_000),
        (55, (34,), 3, 12, 2_000),
        (71, (1,), 35, 0, 600),  # C(70, 35) > 2**63: object keys
        (15, (1,), 7, 0, None),  # sampled to exhaustion
        (65, (1,), 32, 0, 2_000),  # C(64, 32) < 2**63 in 3-bit limbs
    ])
    def test_sampled_keys_match_reference(self, seed, ell, gens, k1, k2, count):
        """The chunked sampler emits _selection_hash's selections, per index,
        as keys rank2 · space1 + rank1, each the first time it is drawn."""
        table = orbits(ell, gens)
        n1, n2 = table.class_count(1), table.class_count(2)
        space1, space2 = math.comb(n1, k1), math.comb(n2, k2)
        cfg = SearchConfig(strategy="orbit_restricted", subgroup_generators=gens,
                           ones_orbits=k1, twos_orbits=k2, seed=seed)
        got = []
        for chunk in decompress._selections(cfg, n1, n2, batch_rows(ell, gens, ell % 5 == 0)):
            assert chunk.dtype == (object if ell == 71 else np.int64)
            got += chunk.tolist()
            if count and len(got) >= count:
                break
        got = got[:count]
        want, seen, index = [], set(), 0
        while len(want) < (count or space1 * space2):
            rank1, rank2 = _selection_hash(seed, index, space1, space2)
            index += 1
            if rank2 * space1 + rank1 not in seen:
                seen.add(rank2 * space1 + rank1)
                want.append(rank2 * space1 + rank1)
        assert got == want
        if count is None:
            assert sorted(got) == list(range(space1 * space2))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_sampled_keys_after_overlapping_hints(self, seed):
        """Hints equal to the keys drawn at indices 5, 2·rows + 76 and
        2·rows + 77 (rows = the search's batch size, 512 here) and one never
        drawn come first; the sampled batches of indices 0 to rows - 1 and
        2·rows to 3·rows - 1 then drop them (the ordered filter), the others
        keep all rows keys (the fast path), and the rest is
        _selection_hash's sequence."""
        rows = batch_rows(85, (69,), True)
        space1, space2 = math.comb(16, 12), math.comb(34, 15)
        drawn = [_selection_hash(seed, i, space1, space2) for i in range(4 * rows)]
        keys = [rank2 * space1 + rank1 for rank1, rank2 in drawn]
        hints = (drawn[5], drawn[2 * rows + 76], drawn[2 * rows + 77], (0, 0))
        cfg = self.l85_cfg(seed=seed, budget_nodes=10**9, hint_codes=hints)
        chunks = [c.tolist() for c in itertools.islice(decompress._selections(cfg, 16, 34, rows), 5)]
        assert chunks[0] == [keys[5], keys[2 * rows + 76], keys[2 * rows + 77], 0]
        assert [len(c) for c in chunks[1:]] == [rows - 1, rows, rows - 2, rows]
        assert sum(chunks[1:], []) == [k for k in keys if k not in chunks[0]]

    @pytest.mark.parametrize("exhaustive", [True, False])
    def test_arrays_hold_at_most_chunk_keys(self, exhaustive):
        """The stream yields at most ``rows`` keys per array, hints included,
        at 2 rows and at the search's batch size (1,024 at ℓ=15), and still
        checks every hint before the first array."""
        hints = ((3000, 0), (7, 0), (1, 0), (3000, 0), (0, 0), (5, 0))
        cfg = block_cfg(15, exhaustive=exhaustive, seed=3, budget_nodes=10**7, hint_codes=hints)
        for rows in (2, batch_rows(15, (1,), True)):
            chunks = [c.tolist() for c in decompress._selections(cfg, 14, 0, rows)]
            assert max(map(len, chunks)) <= rows and len(chunks[0]) == min(rows, 5)
            keys = sum(chunks, [])
            assert keys[:5] == [3000, 7, 1, 0, 5]  # with no 2-orbits a key is its rank1
            assert sorted(keys) == list(range(math.comb(14, 7)))
            bad = block_cfg(15, exhaustive=exhaustive, hint_codes=hints + ((5000, 0),))
            with pytest.raises(GroupError, match="rank 5000 out of range"):
                next(decompress._selections(bad, 14, 0, rows))

    def test_budget_draws_no_key_past_it(self, monkeypatch):
        """A 30-selection sampled search draws 30 keys, not a whole chunk."""
        drawn = []
        selections = decompress._selections

        def counting(*args):
            for keys in selections(*args):
                drawn.append(len(keys))
                yield keys

        monkeypatch.setattr(decompress, "_selections", counting)
        res = orbit_search(85, self.l85_cfg(seed=3, budget_nodes=30))
        assert res.nodes_visited == sum(drawn) == 30

    def test_budget_on_a_chunk_boundary_draws_no_further(self, monkeypatch):
        """Exhaustion follows from the node count: a sampled search whose
        budget ends on a chunk boundary draws only the keys it searches."""
        drawn = []
        selections = decompress._selections

        def counting(*args):
            for keys in selections(*args):
                drawn.append(len(keys))
                yield keys

        monkeypatch.setattr(decompress, "_selections", counting)
        rows = batch_rows(85, (69,), True)
        res = orbit_search(85, self.l85_cfg(seed=3, budget_nodes=2 * rows))
        assert res.nodes_visited == sum(drawn) == 2 * rows
        assert not res.exhausted

    def test_sampled_determinism(self):
        cfg1 = self.l85_cfg(budget_nodes=30)
        cfg2 = self.l85_cfg(budget_nodes=30)
        r1, r2 = orbit_search(85, cfg1), orbit_search(85, cfg2)
        assert r1.pairs == r2.pairs and r1.nodes_visited == r2.nodes_visited


class TestReduce:
    """_reduce, the sampler's exact uint64 reduction of a 128-bit hash value,
    against Python's int % total."""

    @settings(max_examples=60, deadline=None)
    @given(
        total=st.sampled_from([
            1, 2, 3, 2**32 - 1, 2**32, 2**32 + 1, math.comb(16, 12) * math.comb(34, 15),
            2**62 + 12345, 2**63 - 25,
        ]),
        words=st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
                       max_size=40),
    )
    def test_matches_int_mod(self, total, words):
        words += [(0, 0), (0, 2**64 - 1), (2**64 - 1, 0), (2**64 - 1, 2**64 - 1)]
        # as the sampler reads its digests: big-endian 8-byte words
        raw = b"".join(hi.to_bytes(8, "big") + lo.to_bytes(8, "big") for hi, lo in words)
        got = decompress._reduce(np.frombuffer(raw, ">u8").reshape(-1, 2), total)
        assert got.dtype == np.int64
        assert got.tolist() == [(hi << 64 | lo) % total for hi, lo in words]


class TestOrbitFilter:
    """The orbit-space filters (one float64 GEMM against _orbit_setup's W)
    against the ±1-row path: the compressed rows' p2 sums exactly, the PSD
    maximum over the frequency classes within 1e-9 of the FFT's over every
    k != 0, the same survivors as the square-sum then psd_vector, and the
    survivors' PAF rows, taken from their spectra through B, equal to
    paf_rows' and within 1e-9 of an integer before rounding."""

    @pytest.mark.parametrize("ell, gens, k1, k2", [
        (15, (1,), 7, 0),
        (21, (1,), 10, 0),
        (45, (19,), 4, 9),
        (55, (34,), 3, 12),
        (85, (69,), 12, 15),
        (71, (1,), 35, 0),  # C(70, 35) > 2**63: object ranks
    ])
    def test_matches_row_filters(self, ell, gens, k1, k2):
        p2 = ell % 5 == 0
        (n1, n2), column, w, b = decompress._orbit_setup(ell, gens, p2)
        assert not w.flags.writeable and not b.flags.writeable  # _orbit_filter squares in place
        # one frequency per orbit of <generators, -1>: 26 at ℓ=85, 14 at ℓ=45
        classes = orbits(ell, gens + (ell - 1,)).orbits_by_size.values()
        assert w.shape[1] == 5 * p2 + 2 * sum(map(len, classes))
        assert b.shape == (sum(map(len, classes)), ell // 2)
        rnd = random.Random(ell)
        count = 3000
        ranks = [[rnd.randrange(math.comb(n, k)) for _ in range(count)]
                 for n, k in ((n1, k1), (n2, k2))]
        if ell == 85:  # random ℓ=85 selections almost never pass: add pairs' sides
            ranks = [r + list(h) for r, h in zip(ranks, zip(*l85_hints()))]
        parts = [lex_unrank_masks(n1, k1, ranks[0]), lex_unrank_masks(n2, k2, ranks[1])]
        parts = [m for m in parts if m.shape[1]]  # the size classes with orbits
        masks = np.concatenate(parts + [np.zeros((len(ranks[0]), 1), dtype=bool)], 1)
        rows = 1 - 2 * masks[:, column].astype(np.int64)
        z = masks[:, :-1].astype(np.float64) @ w
        old = np.ones(len(rows), dtype=bool)
        if p2:
            compressed = rows.reshape(len(rows), ell // 5, 5).sum(1)
            np.testing.assert_array_equal(ell // 5 - 2 * z[:, :5], compressed)
            old &= (compressed * compressed).sum(1) == 4 * (ell // 5) + 1
        p2_pass = old.copy()
        re, im = np.split(z[:, 5 * p2:], 2, axis=1)
        psd = psd_vector(rows)[:, 1:].max(1)
        np.testing.assert_allclose(4 * (re * re + im * im).max(1), psd, rtol=0, atol=1e-9)
        exact = paf_rows(rows, ell // 2 + 1)[:, 1:]
        # Wiener–Khinchin through B, before rounding, on every selection
        np.testing.assert_allclose((1 + 4 * (re * re + im * im) @ b) / ell, exact, rtol=0, atol=1e-9)
        limit = 2 * ell + 2 + decompress.PSD_CEILING_TOL
        old &= psd <= limit
        live, pafs = decompress._orbit_filter(ell, parts, w, b, p2, limit)
        np.testing.assert_array_equal(live, np.flatnonzero(old))
        assert pafs.dtype == np.int32
        np.testing.assert_array_equal(pafs, exact[live])
        if ell == 85:  # every pair side survives
            np.testing.assert_array_equal(live[live >= count], np.arange(count, len(rows)))
        # psd_prune off: an infinite ceiling leaves the p2 test alone
        live, pafs = decompress._orbit_filter(ell, parts, w, b, p2, math.inf)
        np.testing.assert_array_equal(live, np.flatnonzero(p2_pass))
        np.testing.assert_array_equal(pafs, exact[live])
        # no survivor: an empty int32 array of the PAF rows' width, and no
        # product with B (None would raise)
        live, pafs = decompress._orbit_filter(ell, parts, w, None, p2, -1.0)
        assert live.size == 0
        assert pafs.shape == (0, ell // 2) and pafs.dtype == np.int32


class TestBatchRows:
    """orbit_search's batch size: CHUNK rows, doubled while the largest
    float64 operand, rows × max(W's rows, W's columns) × 8 bytes, stays
    within BATCH_BYTES."""

    def test_pinned_sizes(self):
        assert batch_rows(21, (1,), False) == 1024  # W 20 × 20
        assert batch_rows(85, (69,), True) == 512  # W 50 × 57
        assert decompress._orbit_setup(85, (69,), True)[2].shape == (50, 57)

    @pytest.mark.parametrize("ell, gens, p2", [
        (7, (1,), False), (15, (1,), True), (21, (1,), False), (25, (1,), True),
        (45, (19,), True), (55, (34,), True), (71, (1,), False), (85, (69,), True),
        (85, (69,), False),
    ])
    def test_largest_doubling_within_bound(self, ell, gens, p2):
        width = max(decompress._orbit_setup(ell, gens, p2)[2].shape)
        rows = batch_rows(ell, gens, p2)
        assert rows % decompress.CHUNK == 0 and rows & (rows - 1) == 0
        assert rows == decompress.CHUNK or rows * width * 8 <= decompress.BATCH_BYTES
        assert 2 * rows * width * 8 > decompress.BATCH_BYTES


def orbit_sha256(res):
    """sha256 over pairs and their codes in the order found, one line each."""
    h = hashlib.sha256()
    for (a, b), (ca, cb) in zip(res.pairs, res.codes):
        line = ",".join(map(str, a)) + ";" + ",".join(map(str, b)) + ";"
        line += repr(sorted(ca.items())) + ";" + repr(sorted(cb.items())) + "\n"
        h.update(line.encode())
    return h.hexdigest()


def batch_rows(ell, gens, p2):
    """orbit_search's batch size for (ℓ, generators, p2)."""
    return decompress._batch_rows(decompress._orbit_setup(ell, tuple(gens), p2)[2].shape)


def l85_hints():
    hints = []
    for cp in ell85()["code_pairs"]:
        hints.append((cp["a"]["ones"], cp["a"]["twos"]))
        hints.append((cp["b"]["ones"], cp["b"]["twos"]))
    return tuple(hints)


def block_cfg(ell, **kw):
    """Orbit search over every (ℓ-1)/2-subset of {1..ℓ-1} (trivial subgroup)."""
    args = dict(strategy="orbit_restricted", subgroup_generators=(1,),
                ones_orbits=(ell - 1) // 2, twos_orbits=0)
    args.update(kw)
    return SearchConfig(**args)


L21_SCAN = dict(exhaustive=True, p2_prefilter=False, budget_nodes=20_000)
L15_ALL = dict(exhaustive=True, budget_nodes=10**7)
L21_SAMPLE = dict(p2_prefilter=False, seed=4, budget_nodes=20_000)
DUP_HINTS = ((3000, 0), (7, 0), (3000, 0), (0, 0), (7, 0))
ORBIT_CASES = {
    "l85-hints-sample": lambda: (85, SearchConfig(
        strategy="orbit_restricted", subgroup_generators=(69,), ones_orbits=12,
        twos_orbits=15, seed=5, budget_nodes=5_000, hint_codes=l85_hints())),
    "l21-scan": lambda: (21, block_cfg(21, **L21_SCAN)),
    "l21-scan-max1": lambda: (21, block_cfg(21, **L21_SCAN, max_solutions=1)),
    "l21-scan-max50": lambda: (21, block_cfg(21, **L21_SCAN, max_solutions=50)),
    "l21-scan-budget1300": lambda: (21, block_cfg(21, **{**L21_SCAN, "budget_nodes": 1_300})),
    "l15-exhaustive-p2": lambda: (15, block_cfg(15, **L15_ALL)),
    "l15-exhaustive-nop2": lambda: (15, block_cfg(15, **L15_ALL, p2_prefilter=False)),
    "l15-exhaustive-nopsd": lambda: (15, block_cfg(
        15, **L15_ALL, p2_prefilter=False, psd_prune=False)),
    "l15-exhaustive-p2-nopsd": lambda: (15, block_cfg(15, **L15_ALL, psd_prune=False)),
    "l15-hints-dup": lambda: (15, block_cfg(
        15, **L15_ALL, p2_prefilter=False, hint_codes=DUP_HINTS)),
    "l15-hints-dup-budget": lambda: (15, block_cfg(
        15, exhaustive=True, p2_prefilter=False, budget_nodes=600, hint_codes=DUP_HINTS)),
    "l15-sample-exhausted": lambda: (15, block_cfg(
        15, p2_prefilter=False, seed=3, budget_nodes=10**7)),
    # sampling reaches every hint again before it runs out
    "l15-hints-sample-exhausted": lambda: (15, block_cfg(
        15, p2_prefilter=False, seed=3, budget_nodes=10**7, hint_codes=DUP_HINTS)),
    # 1,145 repeat draws land in a later 256-draw chunk than their first
    "l21-sample": lambda: (21, block_cfg(21, **L21_SAMPLE)),
    "l21-hints-sample": lambda: (21, block_cfg(21, **L21_SAMPLE, hint_codes=DUP_HINTS)),
    # C(70, 35) > 2**63: ranks no longer fit a machine integer
    "l71-sample": lambda: (71, block_cfg(71, seed=2, budget_nodes=1_500)),
    # 2-orbits, p2, frequencies reduced by the multiplier and a sampled pair
    "l45-sample-first": lambda: (45, SearchConfig(
        strategy="orbit_restricted", subgroup_generators=(19,), ones_orbits=4,
        twos_orbits=9, seed=1, max_solutions=1, budget_nodes=400_000)),
}


ORBIT_PINS = {  # case: (nodes, exhausted, pairs, orbit_sha256)
    "l85-hints-sample": (5000, False, 4, "e518bd7db7fac9036802b87737a4df67e1a4af814d128d2cbbd7523cf7fbe474"),
    "l21-scan": (20000, False, 756, "f73852a525173806f7d78c34df795955b6d27ee6e04726a872f77c258f61f7c8"),
    "l21-scan-max1": (3448, False, 2, "55948bb613db05e004f8c89a90f06de1fe496405eeeef299cb6fdef7f000dd3d"),
    "l21-scan-max50": (5948, False, 51, "6c634f02a14bf1b97d2cab8ad63aee46b5430d6c21f4049202bd0b0bf8f7e838"),
    "l21-scan-budget1300": (1300, False, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "l15-exhaustive-p2": (3432, True, 3464, "1c6ab61191e521c9cc7ca1a846b6a2673ae21babbba640739a402583cc12c7d4"),
    "l15-exhaustive-nop2": (3432, True, 5512, "6270aebe9cc82aad6895002bc4104b7d23fd70189cbff2a448c5c12cfdb5b545"),
    "l15-exhaustive-nopsd": (3432, True, 5512, "6270aebe9cc82aad6895002bc4104b7d23fd70189cbff2a448c5c12cfdb5b545"),
    "l15-exhaustive-p2-nopsd": (3432, True, 3464, "1c6ab61191e521c9cc7ca1a846b6a2673ae21babbba640739a402583cc12c7d4"),
    "l15-hints-dup": (3432, True, 5512, "9bc80925897ce579904b0030faa58f0a15f88bc27b33a6a8f707079751c22d96"),
    "l15-hints-dup-budget": (600, False, 189, "07b7b502fbc6d74970f828436cfeb5e228066c4d608cb9c55bc8d29bb48ae5ea"),
    "l15-sample-exhausted": (3432, True, 5512, "ba5c0e547f9b30e8163fc885b39dd49ea0ed63e6f044475c5a55b0c07db406a4"),
    "l15-hints-sample-exhausted": (3432, True, 5512, "616f86ce972eaf1232605fb1118bf972f10f73d547509a328ca9eb8e5ec44791"),
    "l21-sample": (20000, False, 753, "e6bed09297db7e843ac6716141306c407cf74fc40f7d2958141709f7a7060fb0"),
    "l21-hints-sample": (20000, False, 753, "e6bed09297db7e843ac6716141306c407cf74fc40f7d2958141709f7a7060fb0"),
    "l71-sample": (1500, False, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "l45-sample-first": (107293, False, 1, "f97715d71ebd6dfc685a981217b90c4c0feac956687dd713fe521c5369fa0f17"),
}


class TestOrbitPinned:
    """Exact orbit-search results: nodes, exhaustion and the pairs with their
    codes in emission order.  Budgets count selections, so any engine must
    consider the same selections in the same order and stop at the same one."""

    @pytest.mark.parametrize("name", ORBIT_PINS)
    def test_pinned(self, name):
        nodes, exhausted, count, digest = ORBIT_PINS[name]
        ell, cfg = ORBIT_CASES[name]()
        res = orbit_search(ell, cfg)
        assert res.nodes_visited == nodes
        assert res.exhausted == exhausted
        assert len(res.pairs) == count
        assert orbit_sha256(res) == digest
        # matches are emitted unchecked
        assert all(verify_legendre_pair(A, B).is_legendre_pair for A, B in res.pairs)

    def test_repeated_interleaved_searches(self):
        """Searches that share the cached set-up (_orbit_setup) and decode
        tables (_lex_groups), each run twice with the others in between, give
        the same pairs, codes, nodes_visited and exhausted: a cache hit that
        differed from a miss, or a shared array changed in place, would show.
        The first round starts with both caches empty; ℓ=25 runs with p2 on
        and off."""
        cases = [ORBIT_CASES["l21-scan"](), ORBIT_CASES["l85-hints-sample"](),
                 (25, block_cfg(25, seed=1, budget_nodes=20_000)),
                 (25, block_cfg(25, seed=1, budget_nodes=20_000, p2_prefilter=False))]
        decompress._orbit_setup.cache_clear()
        grouptools._lex_groups.cache_clear()
        rounds = [[orbit_search(ell, cfg) for ell, cfg in cases] for _ in range(2)]
        for first, again in zip(*rounds):
            assert (first.pairs, first.codes, first.nodes_visited, first.exhausted) == \
                (again.pairs, again.codes, again.nodes_visited, again.exhausted)
        assert [orbit_sha256(res) for res in rounds[1][:2]] == [
            ORBIT_PINS["l21-scan"][3], ORBIT_PINS["l85-hints-sample"][3]]
        assert [len(res.pairs) for res in rounds[1]] == [756, 4, 10, 11]

    # 1 and 7 split batches at many places, 256 at half of CHUNK, and 1,024
    # is ℓ=21's batch size, here forced on every case
    @pytest.mark.parametrize("chunk", [1, 7, 256, decompress.CHUNK, 1024])
    @pytest.mark.parametrize("name", [
        "l21-scan-max1", "l21-scan-budget1300", "l15-hints-dup-budget", "l15-sample-exhausted",
        "l21-sample", "l71-sample", "l15-exhaustive-p2-nopsd", "l15-exhaustive-p2",
        "l21-scan-max50", "l85-hints-sample", "l15-hints-dup",
    ])
    def test_chunk_size_invariant(self, monkeypatch, chunk, name):
        """Any chunk size gives the pinned results: a max_solutions or budget
        stop inside a chunk, hints with repeats, sampling to exhaustion, repeat
        draws across chunks, object keys, p2 with and without the PSD
        ceiling, a max_solutions stop after many chunks, hints split across
        chunks."""
        monkeypatch.setattr(decompress, "_batch_rows", lambda shape: chunk)
        self.test_pinned(name)


def assert_codes_round_trip(ell, gens, res):
    """Each side's codes decode through block_from_codes and
    sequence_from_block to that side's sequence."""
    table = orbits(ell, gens)
    assert res.pairs and len(res.codes) == len(res.pairs)
    for pair, codes in zip(res.pairs, res.codes):
        for seq, side in zip(pair, codes):
            block = grouptools.block_from_codes(
                table, {size: grouptools.LexRankCode(*code) for size, code in side.items()})
            assert grouptools.sequence_from_block(block) == seq


class TestOrbitCodes:
    """The codes orbit_search gives each side name that side: the survivor
    numbers that _match records map back to the right rows and ranks."""

    @pytest.mark.parametrize("name", ["l21-scan", "l85-hints-sample"])
    def test_pinned_cases_round_trip(self, name):
        ell, cfg = ORBIT_CASES[name]()
        assert_codes_round_trip(ell, cfg.subgroup_generators, orbit_search(ell, cfg))

    def test_l25_sampled_p2_round_trip(self):
        res = orbit_search(25, block_cfg(25, seed=1, budget_nodes=20_000))
        assert len(res.pairs) == 10
        assert_codes_round_trip(25, (1,), res)

    @pytest.mark.parametrize("name", ["l21-scan-max1", "l21-scan-max50"])
    def test_max_solutions_stop_with_partner_in_an_earlier_chunk(self, name):
        """The stop falls inside a chunk, and the last pair's earlier side
        survived in an earlier chunk (with no 2-orbits, a rank-order key is
        its selection index and its rank1)."""
        ell, cfg = ORBIT_CASES[name]()
        rows = batch_rows(ell, cfg.subgroup_generators, False)
        res = orbit_search(ell, cfg)
        last = res.nodes_visited - 1
        assert last % rows != rows - 1
        codes_a, codes_b = res.codes[-1]
        earlier, later = codes_a[1][2], codes_b[1][2]
        assert later == last and earlier < last - last % rows
        assert_codes_round_trip(ell, cfg.subgroup_generators, res)


def match_rows(*rows):
    return np.array(rows, dtype=np.int32).reshape(len(rows), 2)


class TestMatch:
    """_match on hand-made PAF rows at two shifts: the complement of [a, b]
    is [-2 - a, -2 - b], and [-1, -1] is its own."""

    def test_pairs_across_chunks_in_pool_order(self):
        pool, found = {}, bytearray()
        assert decompress._match(pool, match_rows([0, -1], [3, 3], [0, -1]), 0, found, 0) is None
        assert not found
        assert decompress._match(pool, match_rows([5, 5], [-2, -1]), 3, found, 0) is None
        # row 4 matches rows 0 and 2, in the order they were pooled
        assert np.frombuffer(found, np.int64).tolist() == [0, 4, 2, 4]
        assert pool[match_rows([-2, -1]).tobytes()] == [4]

    def test_self_complementary_row_pairs_with_itself(self):
        pool, found = {}, bytearray()
        assert decompress._match(pool, match_rows([-1, -1], [0, 0], [-1, -1]), 10, found, 0) is None
        assert np.frombuffer(found, np.int64).tolist() == [10, 10, 10, 12, 12, 12]

    @pytest.mark.parametrize("want, stop, pairs", [
        (0, None, 4), (1, 1, 2), (2, 1, 2), (3, 3, 4), (4, 3, 4), (5, None, 4)])
    def test_returns_the_row_reaching_want(self, want, stop, pairs):
        """Rows 1 and 3 of the second chunk (numbers 3 and 5) each match
        pooled rows 0 and 1 at once, so want 1 and 2 stop at row 1, 3 and 4
        at row 3; the index returned counts rows of this chunk, and want 0
        never stops."""
        pool, found = {}, bytearray()
        assert decompress._match(pool, match_rows([0, -1], [0, -1]), 0, found, want) is None
        rows = match_rows([7, 7], [-2, -1], [1, 1], [-2, -1], [-3, -4])
        assert decompress._match(pool, rows, 2, found, want) == stop
        assert np.frombuffer(found, np.int64).tolist() == [0, 3, 1, 3, 0, 5, 1, 5][:2 * pairs]


ORBIT_L15 = dict(strategy="orbit_restricted", subgroup_generators=(1,))


class TestRejections:
    @pytest.mark.parametrize("call, message", [
        (lambda: SearchConfig(budget_nodes=0), "budget_nodes must be positive"),
        (lambda: SearchConfig(strategy="grid"), "unknown strategy 'grid'"),
        (lambda: SearchConfig(strategy="orbit_restricted"),
         "orbit_restricted needs subgroup_generators"),
        (lambda: uncompress_search(15, CandidatePair(a=(1, 1, -1, 1), b=(1, 1, -1, 1), ell=15, m=4),
                                   SearchConfig()),
         "candidate shape 4 does not divide ℓ=15"),
        (lambda: uncompress_search(15, candidates_d5(3)[0], SearchConfig(**ORBIT_L15)),
         "uncompress_search requires strategy='backtrack'"),
        (lambda: orbit_search(15, SearchConfig()),
         "orbit_search requires strategy='orbit_restricted'"),
        (lambda: orbit_search(15, SearchConfig(**ORBIT_L15, ones_orbits=15)),
         r"selection counts \(15,0\) exceed available orbits \(14,0\)"),
        (lambda: SearchConfig(max_solutions=-1), r"max_solutions must be 0 \(no limit\) or positive"),
        # the orbit engine used to search ℓ=20 until its budget ran out
        (lambda: orbit_search(20, SearchConfig(**ORBIT_L15, ones_orbits=9)),
         "no Legendre pair has even length, got ℓ=20"),
    ], ids=["budget", "strategy", "generators", "shape", "dfs-strategy", "orbit-strategy",
            "counts", "max-solutions", "orbit-even-length"])
    def test_raises_config_error(self, call, message):
        with pytest.raises(SearchConfigError, match=message):
            call()

    def test_config_is_frozen(self):
        cfg = SearchConfig(**ORBIT_L15, ones_orbits=7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.budget_nodes = 0
