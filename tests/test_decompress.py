"""Decompression engines: exhaustive counts against independent oracles,
budget/determinism contracts, and the orbit-restricted search."""

import functools
import gc
import hashlib
import itertools
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legendre_pairs import decompress
from legendre_pairs.candgen import CandidatePair, candidates_d5
from legendre_pairs.decompress import (
    SearchConfig,
    SearchConfigError,
    orbit_search,
    uncompress_search,
)
from legendre_pairs.refdata import ell85
from legendre_pairs.seqcore import compress, paf, verify_legendre_pair


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
        """With m = 2 no option of the first depth passes the class parity
        bound: the search counts them as nodes and ends."""
        cand = CandidatePair(a=a, b=b, ell=ell, m=2)
        res = uncompress_search(ell, cand, SearchConfig(seed=1, budget_nodes=budget))
        assert res.pairs == []
        assert res.nodes_visited == nodes
        assert res.exhausted == exhausted

    def test_l25_budget_cut(self):
        found = "4d95505f4788bd34c2fed6b96e55a7420d122656f4254195ef7299ddcd27e5ab"
        empty = hashlib.sha256().hexdigest()
        for cand, digest in zip(candidates_d5(5), (empty, found, empty)):
            res = uncompress_search(25, cand, SearchConfig(seed=7, budget_nodes=20_000))
            assert not res.exhausted
            assert res.nodes_visited == 20_000
            assert pairs_sha256(res.pairs) == digest

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


@functools.lru_cache(maxsize=None)
def cached_candidates(m):
    return tuple(candidates_d5(m))


# Exhaustive node counts of the ℓ=15 candidates (psd_prune on).  The searched
# tree does not depend on the order options are tried in, so neither does
# its size: every seed gives these totals.
L15_TOTALS = (5603, 5360)


class TestDeterminism:
    @settings(max_examples=30, deadline=None)
    @given(
        target=st.sampled_from([(15, 0), (15, 1), (25, 0), (25, 1), (25, 2)]),
        seed=st.integers(0, 2**32 - 1),
        budgets=st.lists(st.integers(1, 7000), min_size=2, max_size=2, unique=True),
    )
    def test_budget_prefix(self, target, seed, budgets):
        """A larger budget extends the explored prefix: the pairs found first
        stay first, and a budget is spent in full unless the tree ends."""
        ell, ci = target
        cand = cached_candidates(ell // 5)[ci]
        # every ℓ=25 tree here has more than 20,000 nodes (TestPinnedResults)
        total = L15_TOTALS[ci] if ell == 15 else 20_001
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

    def test_sampled_determinism(self):
        cfg1 = self.l85_cfg(budget_nodes=30)
        cfg2 = self.l85_cfg(budget_nodes=30)
        r1, r2 = orbit_search(85, cfg1), orbit_search(85, cfg2)
        assert r1.pairs == r2.pairs and r1.nodes_visited == r2.nodes_visited


def orbit_sha256(res):
    """sha256 over pairs and their codes in the order found, one line each."""
    h = hashlib.sha256()
    for (a, b), (ca, cb) in zip(res.pairs, res.codes):
        line = ",".join(map(str, a)) + ";" + ",".join(map(str, b)) + ";"
        line += repr(sorted(ca.items())) + ";" + repr(sorted(cb.items())) + "\n"
        h.update(line.encode())
    return h.hexdigest()


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
    "l15-hints-dup": lambda: (15, block_cfg(
        15, **L15_ALL, p2_prefilter=False, hint_codes=DUP_HINTS)),
    "l15-hints-dup-budget": lambda: (15, block_cfg(
        15, exhaustive=True, p2_prefilter=False, budget_nodes=600, hint_codes=DUP_HINTS)),
    "l15-sample-exhausted": lambda: (15, block_cfg(
        15, p2_prefilter=False, seed=3, budget_nodes=10**7)),
    # C(70, 35) > 2**63: ranks no longer fit a machine integer
    "l71-sample": lambda: (71, block_cfg(71, seed=2, budget_nodes=1_500)),
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
    "l15-hints-dup": (3432, True, 5512, "9bc80925897ce579904b0030faa58f0a15f88bc27b33a6a8f707079751c22d96"),
    "l15-hints-dup-budget": (600, False, 189, "07b7b502fbc6d74970f828436cfeb5e228066c4d608cb9c55bc8d29bb48ae5ea"),
    "l15-sample-exhausted": (3432, True, 5512, "ba5c0e547f9b30e8163fc885b39dd49ea0ed63e6f044475c5a55b0c07db406a4"),
    "l71-sample": (1500, False, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
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

    @pytest.mark.parametrize("chunk", [1, 7, decompress.CHUNK])
    @pytest.mark.parametrize("name", [
        "l21-scan-max1", "l21-scan-budget1300", "l15-hints-dup-budget", "l15-sample-exhausted",
    ])
    def test_chunk_size_invariant(self, monkeypatch, chunk, name):
        """Any chunk size gives the pinned results: a max_solutions or budget
        stop inside a chunk, hints with repeats, sampling to exhaustion."""
        monkeypatch.setattr(decompress, "CHUNK", chunk)
        self.test_pinned(name)
