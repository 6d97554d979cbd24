"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 4 compares realized x values with the bundled reference table in
the program's unit, the coefficient of √5/2 in PSD_A(m) = n1 + (√5/2)·x.
Some rows are stated as the coefficient of √5 (x/2); each row declares its
unit, and ``refdata.x_table()`` converts.  The ℓ=5 row is one of them: it
states 2, but for any length-5m pair x = 2·PAF(1) − e2 of the compressed
side, with PAF(1) a sum of five odd products (odd) and
e2 = (1 − p2)/2 ≡ −2 (mod 4), forcing x ≡ 0 (mod 4); so 2 can only be read
as a √5 coefficient, i.e. x = 4.  Exhaustive search over all 1024 sign
patterns realizes |x| = 4.  The ℓ=15 row {0,4,8} is confirmed exhaustively.
"""

import math
import random
import time

import pytest

from legendre_pairs.candgen import candidates_d5
from legendre_pairs.decompress import SearchConfig, orbit_search, uncompress_search
from legendre_pairs.diophantine import admits_unit_sum, odd_five_squares
from legendre_pairs.grouptools import (
    LexRankCode,
    block_from_codes,
    lex_rank,
    lex_unrank,
    orbits,
    sequence_from_block,
)
from legendre_pairs.refdata import dioph_solutions, ell85, ell87, x_table
from legendre_pairs.seqcore import (
    compress,
    paf,
    paf_vector,
    psd,
    psd_at_m_exact,
    verify_legendre_pair,
)

X_TABLE = {row["ell"]: row["x"] for row in x_table()}


def report(criterion, status, detail=""):
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())


def test_criterion_1_l87_witnesses():
    t0 = time.time()
    data = ell87()
    for pair in data["pairs"]:
        rep = verify_legendre_pair(pair["a"], pair["b"])
        assert rep.is_legendre_pair
        assert list(compress(pair["a"], data["m"])) == data["compressed_a"]
        assert list(compress(pair["b"], data["m"])) == data["compressed_b"]
    elapsed = time.time() - t0
    report("1 (ℓ=87 witnesses)", "PASS", f"[{elapsed:.2f}s]")
    assert elapsed < 1.0


def test_criterion_2_l85_decode_chain():
    t0 = time.time()
    data = ell85()
    table = orbits(85, data["generators"])
    fp = data["first_pair"]
    n1, n2 = 16, 34
    k1, k2 = data["ones_orbits"], data["twos_orbits"]
    for idx, cp in enumerate(data["code_pairs"]):
        seqs = {}
        for side in ("a", "b"):
            codes = {
                1: LexRankCode(n1, k1, cp[side]["ones"]),
                2: LexRankCode(n2, k2, cp[side]["twos"]),
            }
            block = block_from_codes(table, codes)
            if idx == 0:
                assert list(block.positions) == sorted(fp[f"{side}_block"])
            seqs[side] = sequence_from_block(block)
        rep = verify_legendre_pair(seqs["a"], seqs["b"])
        assert rep.is_legendre_pair
        if idx == 0:
            assert compress(seqs["a"], 17) == tuple(fp["a_compressed"])
            assert compress(seqs["b"], 17) == tuple(fp["b_compressed"])
            assert rep.x_value == 36
            assert psd(seqs["a"], 17) == pytest.approx(fp["psd_a_at_m"], abs=1e-6)
            assert psd(seqs["b"], 17) == pytest.approx(fp["psd_b_at_m"], abs=1e-6)
    elapsed = time.time() - t0
    report("2 (ℓ=85 decode chain)", "PASS", f"[{elapsed:.2f}s]")
    assert elapsed < 1.0


def test_criterion_3_dioph_golden_lists():
    t0 = time.time()
    golden = dioph_solutions()
    assert sorted(int(k) for k in golden) == [3, 5, 7, 9, 11, 13, 15, 17, 19, 23]
    ruled_out_everywhere = []
    for m_str, entry in golden.items():
        m = int(m_str)
        sols = odd_five_squares(m)
        assert [list(s) for s in sols] == entry["solutions"]
        ruled = [list(s) for s in sols if not admits_unit_sum(s)]
        assert ruled == entry["ruled_out"]
        ruled_out_everywhere.extend(tuple(r) for r in ruled)
    assert sorted(set(ruled_out_everywhere)) == [
        (1, 1, 1, 1, 7),
        (1, 1, 1, 3, 9),
        (1, 1, 5, 5, 5),
        (3, 3, 3, 3, 3),
    ]
    elapsed = time.time() - t0
    report("3 (five-square golden lists)", "PASS", f"[{elapsed:.2f}s]")
    assert elapsed < 1.0


def exhaustive_x_set(ell):
    cfg = SearchConfig(
        strategy="orbit_restricted",
        subgroup_generators=(1,),
        ones_orbits=(ell - 1) // 2,
        twos_orbits=0,
        exhaustive=True,
        p2_prefilter=False,
        budget_nodes=10**7,
    )
    res = orbit_search(ell, cfg)
    assert res.exhausted
    return {abs(verify_legendre_pair(A, B).x_value) for A, B in res.pairs}


def test_criterion_4_xset_l15():
    xs = exhaustive_x_set(15)
    report("4 (ℓ=15 exhaustive x-set)", "PASS" if xs == set(X_TABLE[15]) else "FAIL",
           f"realized {sorted(xs)}, reference {sorted(X_TABLE[15])}")
    assert xs == set(X_TABLE[15])


def test_criterion_4_xset_l5():
    xs = exhaustive_x_set(5)
    ok = xs == set(X_TABLE[5])
    report("4 (ℓ=5 exhaustive x-set)", "PASS" if ok else "FAIL",
           f"realized {sorted(xs)}, reference {sorted(X_TABLE[5])}")
    assert xs == set(X_TABLE[5]), (
        f"reference lists {X_TABLE[5]} but exhaustive search realizes {sorted(xs)}"
    )


def test_criterion_4_pipeline_balanced_split():
    for ell in (5, 15):
        m = ell // 5
        for cand in candidates_d5(m):
            res = uncompress_search(ell, cand, SearchConfig())
            assert res.exhausted
            for A, B in res.pairs:
                rep = verify_legendre_pair(A, B)
                assert rep.n1_n2 == (ell + 1, ell + 1)
    report("4 (pipeline split n1=n2=ℓ+1)", "PASS", "every ℓ∈{5,15} pipeline pair")


# ℓ=25 (seed 0) and ℓ=35 (seed 2) find their pairs within budget; ℓ=45 at
# 250,000 nodes does not, and reports INCONCLUSIVE
MUST_FIND = {25, 35}


@pytest.mark.parametrize(
    "ell,seed,budget",
    [(25, 0, 300_000), (35, 2, 2_600_000), (45, 0, 250_000)],
)
def test_criterion_4_budgeted_runs(ell, seed, budget):
    m = ell // 5
    table_xs = set(X_TABLE[ell])
    cands = [c for c in candidates_d5(m) if c.x in table_xs]
    found = []
    t0 = time.time()
    for cand in cands:
        res = uncompress_search(
            ell, cand, SearchConfig(seed=seed, budget_nodes=budget, max_solutions=1)
        )
        for A, B in res.pairs:
            rep = verify_legendre_pair(A, B)
            assert rep.is_legendre_pair
            assert compress(A, m) == cand.a and compress(B, m) == cand.b
            found.append(rep.x_value)
        if found:
            break
    elapsed = time.time() - t0
    if found:
        assert abs(found[0]) in table_xs
        report(f"4 (ℓ={ell} budgeted run)", "PASS",
               f"found x={found[0]} matching reference [{elapsed:.0f}s]")
    else:
        report(f"4 (ℓ={ell} budgeted run)",
               "FAIL" if ell in MUST_FIND else "INCONCLUSIVE",
               f"no pair within {budget} nodes [{elapsed:.0f}s]")
        assert ell not in MUST_FIND, f"no ℓ={ell} pair within {budget} nodes"


def test_criterion_5a_spectral_identities():
    rnd = random.Random(55)
    checked = 0
    for _ in range(1000):
        kind = rnd.randrange(2)
        if kind == 0:
            n = rnd.randrange(3, 65)
            seq = [rnd.choice([-1, 1]) for _ in range(n)]
            v = paf_vector(seq)
            k = rnd.randrange(n)
            via_paf = sum(v[j] * math.cos(2 * math.pi * j * k / n) for j in range(n))
            assert psd(seq, k) == pytest.approx(via_paf, abs=1e-8)
        else:
            d, m = rnd.choice([(3, 3), (5, 3), (5, 5), (7, 3), (5, 9), (3, 7)])
            n = d * m
            seq = [rnd.choice([-1, 1]) for _ in range(n)]
            c = compress(seq, m)
            k = rnd.randrange(d)
            assert psd(c, k) == pytest.approx(psd(seq, k * m), abs=1e-8)
            v = paf_vector(seq)
            s = rnd.randrange(d)
            assert paf(c, s) == sum(v[j] for j in range(n) if j % d == s)
        checked += 1
    assert checked == 1000
    report("5a (spectral identities ×1000)", "PASS")


def test_criterion_5b_exact_vs_dft():
    rnd = random.Random(77)
    for _ in range(1000):
        m = rnd.randrange(1, 18)
        seq = [rnd.choice([-1, 1]) for _ in range(5 * m)]
        e = psd_at_m_exact(compress(seq, m)).to_float()
        f = psd(seq, m)
        assert f == pytest.approx(e, rel=1e-6, abs=1e-9)
    report("5b (exact vs DFT ×1000)", "PASS")


def test_criterion_5c_lexrank_round_trip():
    for n, k in ((6, 3), (16, 12)):
        for r in range(math.comb(n, k)):
            assert lex_rank(n, lex_unrank(n, k, r)) == r
    rnd = random.Random(34)
    total = math.comb(34, 15)
    for _ in range(100_000):
        r = rnd.randrange(total)
        assert lex_rank(34, lex_unrank(34, 15, r)) == r
    report("5c (LexRank round trips)", "PASS", "full (6,3), (16,12); 1e5 of (34,15)")


def test_criterion_5d_decompress_soundness():
    for cand in candidates_d5(3):
        res = uncompress_search(15, cand, SearchConfig())
        for A, B in res.pairs:
            assert verify_legendre_pair(A, B).is_legendre_pair
            assert compress(A, 3) == cand.a
            assert compress(B, 3) == cand.b
    report("5d (decompress soundness, all ℓ=15 outputs)", "PASS")


def test_criterion_6_search_space_size():
    assert math.comb(16, 12) == 1820
    assert math.comb(34, 15) == 1_855_967_520
    assert math.comb(16, 12) * math.comb(34, 15) == 3_377_860_886_400
    assert ell85()["search_space"] == 3_377_860_886_400
    report("6 (ℓ=85 search-space size)", "PASS", "1820 × 1,855,967,520")
