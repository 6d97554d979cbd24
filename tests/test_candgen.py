"""Candidate generation: d=5 completeness at desk scale, canonical dedup,
and the general constraint-list generator."""

import dataclasses
import functools
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legendre_pairs import candgen
from legendre_pairs.candgen import (
    CandidatePair,
    GenerationProfile,
    ProfileError,
    candidates_d5,
    candidates_general,
    canonicalize,
)
from legendre_pairs.diophantine import admits_unit_sum, odd_five_squares, signed_orderings
from legendre_pairs.refdata import ell87
from legendre_pairs.seqcore import paf, psd


# (count, digest) of candidates_d5(m) for every odd m <= 39
CANDIDATE_PINS = {
    1: (1, "c928f32e51143ed8b11f8f2751fd2161aa8f8b05fbec1a9737a816b45e374b03"),
    3: (2, "5f1a9c00990bc5dfd0c858cf54fbe7a0f19de73a6fd8ae0c2669592caaba7918"),
    5: (3, "e8ae5431726a47a2a8c1eb2c5af18104312265bfbd3cc46891705b39172a459e"),
    7: (3, "b43ca359fa846d48feb737a117f0964d0fef709eb46c51be7b1438851cb65097"),
    9: (8, "039f94932444882873f02527110693ca6a64be772cfd1ed55b593edcf28721f2"),
    11: (5, "cbf130c68bb87f35b5a433f4aa7dc4065333752eeaa0620dda027fc843141905"),
    13: (8, "7a9d14aaa8b4c0cbbec84170558fbca0ee6cee9083f1b4bd7d72df8ec679d20e"),
    15: (7, "ccb76c22c268333431386aaac1d49c628d9f3fd44ebeef493079b21f98cf3cce"),
    17: (13, "faaf73352702d05aa948b94d3cdc16d79492abebc75a70aa8eef23bc5457c13b"),
    19: (8, "97a49a5e1d8a9cf8a6812e170cff184a6769d7c5ace42e6d61c378b67ceb1b2a"),
    21: (17, "2358831bf8c02cd7c7a5d17a1da07e21c36869c197c7800f72aef6ab93a6ee1d"),
    23: (12, "be64f03ae9df986c24d3d2ab479fd5640ecfb230cf7eba1d1568b4563bd7c2ea"),
    25: (16, "237a329cc1fdff57753a59d8c155f0b37f5efc9334ee241b175833fcc799387e"),
    27: (14, "34652a84bd5feec600ab3eb6dd3ae2f3de6863d1601dc7bab6ab17907263d4be"),
    29: (26, "05195e7e89939a08227c95d201c0df0fe6d9aabeec4319eeb057bd6354304c6d"),
    31: (8, "65e6fe310de8f5ed927a1519b2218c58ca7770256f21a45d121eefd494383be1"),
    33: (29, "d257b07ef973d4beb39b47e5d1d02403572f8b061bd04c0ea2e034487db99c81"),
    35: (25, "2a630296b6ecf8bfd3ad846aa1f1d5555131fb220cdc4388e405ec2a71a116d6"),
    37: (24, "04ff0cb549996daaf1ee2d4ad59be5fb85d1554002593fbc4ab57eb3abea99a3"),
    39: (18, "e7e888460ad9e7fcdd86f0adbd6c7fb00b1c327b9493a18cd78d7b1720cb44db"),
}


def candidate_digest(cands):
    lines = "\n".join(
        f"{','.join(map(str, c.a))};{','.join(map(str, c.b))};{c.x}" for c in cands
    )
    return hashlib.sha256(lines.encode()).hexdigest()


# Profiles whose candidates_general streams are pinned.  The d=5 ones run
# to exhaustion; ℓ=21 and ℓ=87 stop at their budgets.
STREAM_PROFILES = {
    "l15-balanced": dict(ell=15, m=3, d=5, abs_value_counts={3: 2, 1: 8},
                         balanced=True, seed=1),
    "l15-unbalanced": dict(ell=15, m=3, d=5, abs_value_counts={3: 2, 1: 8}, seed=2),
    "l15-balanced-x0": dict(ell=15, m=3, d=5, abs_value_counts={3: 2, 1: 8},
                            balanced=True, seed=1, x_filter={0}),
    "l25-unbalanced": dict(ell=25, m=5, d=5, abs_value_counts={3: 4, 1: 6}, seed=3),
    "l21-unbalanced": dict(ell=21, m=3, d=7, abs_value_counts={3: 3, 1: 11},
                           seed=0, budget=50_000),
    # A smoke test only: it finds 0 pairs at 5,000 nodes, and seed 0 found
    # none within 6,000,000.  The bundled ℓ=87 witnesses come from the
    # paper, not from this generator.
    "l87-balanced": dict(ell=87, m=3, d=29, abs_value_counts={3: 14, 1: 44},
                         balanced=True, seed=0, budget=5_000),
}

# (count, candidate_digest) of each stream, printed by stream_pins()
STREAM_PINS = {
    "l15-balanced": (225, "571171576f21ea22a0f890273ac3b3f290d72cd16aeab6cf8e618927276bf38d"),
    "l15-unbalanced": (425, "e40071878ff62b38a38d2f3419ed532566b0a03f976a3a6edeb4050b24a82de8"),
    "l15-balanced-x0": (25, "f09c373027e32bcd1e99016fb49e74c093a4c8db4b1bcc725b6bc75dcf2a1782"),
    "l25-unbalanced": (600, "81f5ed42c7d4f750ff548fce6c8fd70a1f2f468a05bad8097ff956b8ae6b0b53"),
    "l21-unbalanced": (122, "6b3bc4a5424a065a94a5d26f89e5fc14f7598fe61a5256b19878ca95ab0b45c8"),
    "l87-balanced": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}

# Budgets spread across the exhaustive trees (8,308, 21,906 and 86,042
# nodes), each at the node that completes a pair and one below it: a
# budgeted stream stops at an exact node count, so these prefixes show
# whether nodes are counted as before.
SWEEP_BUDGETS = {
    "l15-balanced": (15, 16, 3077, 3078, 8303, 8304),
    "l15-unbalanced": (182, 183, 4296, 4297, 21886, 21887),
    "l25-unbalanced": (47, 48, 16255, 16256, 33238, 33239),
}
SWEEP_DIGEST = "32a749fe9955db423d5f5dbaa5a20c8f195813108ce19ebe67875e096d578a7f"


@functools.lru_cache(maxsize=None)
def stream(name, budget=None):
    kw = dict(STREAM_PROFILES[name])
    if budget is not None:
        kw["budget"] = budget
    return tuple(candidates_general(GenerationProfile(**kw)))


def stream_pins():
    """The pins above, recomputed: run
    PYTHONPATH=src:tests python -c "import test_candgen as t; print(t.stream_pins())"
    """
    sweep = "\n".join(
        f"{name} {budget} {candidate_digest(stream(name, budget))}"
        for name, budgets in SWEEP_BUDGETS.items()
        for budget in budgets
    )
    pins = {name: (len(stream(name)), candidate_digest(stream(name)))
            for name in STREAM_PROFILES}
    return pins, hashlib.sha256(sweep.encode()).hexdigest()


def oracle_pairs(profile):
    """Brute force: every pair of sides carrying the profile's magnitudes
    (half the counts each when balanced, any split of them otherwise), with
    entry sums 1 and joint PAF -2m at every nonzero shift."""
    d, counts = profile.d, profile.abs_value_counts
    mags = sorted(counts)
    values = [sign * mag for mag in mags for sign in (1, -1)]
    sides = {}
    for side in itertools.product(values, repeat=d):
        if sum(side) != 1:
            continue
        used = tuple(sum(abs(v) == mag for v in side) for mag in mags)
        pafs = tuple(paf(side, s) for s in range(1, d))
        sides.setdefault((used, pafs), []).append(side)
    target = -2 * profile.m
    pairs = set()
    for (used, pafs), firsts in sides.items():
        if profile.balanced and any(2 * u != counts[mag] for u, mag in zip(used, mags)):
            continue
        rest = tuple(counts[mag] - u for u, mag in zip(used, mags))
        for b in sides.get((rest, tuple(target - p for p in pafs)), ()):
            pairs.update((a, b) for a in firsts)
    return pairs


def _images(t):
    rots = [t[i:] + t[:i] for i in range(len(t))]
    return rots + [tuple(reversed(r)) for r in rots]


def brute_key(a, b):
    """Oracle key: the least of all 100 per-side rotation/reversal images of
    each orientation whose first side has x >= 0."""
    return min(
        (fa, fb)
        for first, second in ((a, b), (b, a))
        if paf(first, 1) - paf(first, 2) >= 0
        for fa in _images(first)
        for fb in _images(second)
    )


def brute_force_d5(m):
    """Oracle: raw double loop over all signed arrangements, canonical dedup."""
    tuples = set()
    for sol in odd_five_squares(m):
        if admits_unit_sum(sol):
            tuples.update(signed_orderings(sol))
    canonical = set()
    for a in tuples:
        for b in tuples:
            if all(paf(a, s) + paf(b, s) == -2 * m for s in (1, 2)):
                canonical.add(brute_key(a, b))
    return canonical


class TestCandidatesD5:
    def test_m3_magnitudes(self):
        for pair in candidates_d5(3):
            for side in (pair.a, pair.b):
                assert sorted(abs(v) for v in side) == [1, 1, 1, 1, 3]

    def test_m11_excludes_all_threes(self):
        for pair in candidates_d5(11):
            for side in (pair.a, pair.b):
                assert sorted(abs(v) for v in side) != [3, 3, 3, 3, 3]

    def test_m1_candidates(self):
        pairs = candidates_d5(1)
        assert pairs and all(p.x == 4 for p in pairs)

    def test_completeness_against_oracle_m3(self):
        got = {(p.a, p.b) for p in candidates_d5(3)}
        assert got == brute_force_d5(3)

    def test_completeness_against_oracle_m5(self):
        got = {(p.a, p.b) for p in candidates_d5(5)}
        assert got == brute_force_d5(5)

    @pytest.mark.parametrize("m", range(1, 14, 2))
    def test_list_matches_oracle(self, m):
        want = [(a, b, paf(a, 1) - paf(a, 2)) for a, b in sorted(brute_force_d5(m))]
        assert [(p.a, p.b, p.x) for p in candidates_d5(m)] == want

    def test_pinned_lists(self):
        # count and sha256 over the "a;b;x" lines of candidates_d5(m), in
        # returned order, recorded from the all-pairs generator
        for m, (count, digest) in CANDIDATE_PINS.items():
            cands = candidates_d5(m)
            assert (len(cands), candidate_digest(cands)) == (count, digest), m

    def test_x_filter_is_subset(self):
        for m in range(1, 40, 2):
            full = candidates_d5(m)
            xs = sorted({p.x for p in full})[::2] + [2]
            assert candidates_d5(m, set(xs)) == [p for p in full if p.x in xs]

    def test_invariants_rechecked(self):
        for m in (1, 3, 5, 7):
            for pair in candidates_d5(m):
                pair.check()
                assert paf(pair.a, 0) == 4 * m + 1
                assert paf(pair.b, 0) == 4 * m + 1
                assert pair.x % 2 == 0
                assert paf(pair.a, 1) - paf(pair.a, 2) == -(
                    paf(pair.b, 1) - paf(pair.b, 2)
                )

    def test_x_parity_and_multiples_of_four(self):
        # stronger than evenness: x = 2*PAF(1) - e2 with all-odd entries
        # forces x ≡ 0 (mod 4)
        for m in (1, 3, 5, 7, 9, 17):
            for pair in candidates_d5(m):
                assert pair.x % 4 == 0

    def test_x_values_m17_include_witness(self):
        xs = {p.x for p in candidates_d5(17)}
        assert 36 in xs

    def test_x_values_m3(self):
        assert {p.x for p in candidates_d5(3)} == {0, 8}

    def test_x_filter(self):
        assert all(p.x == 8 for p in candidates_d5(3, x_filter={8}))
        assert candidates_d5(3, x_filter={2}) == []

    def test_fixture_pair_is_candidate(self):
        canon = canonicalize(
            CandidatePair(a=(1, 3, 3, 1, -7), b=(3, 1, 1, 3, -7), ell=85, m=17, x=36)
        )
        keys = {(p.a, p.b) for p in candidates_d5(17)}
        assert (canon.a, canon.b) in keys


ALL_CANDIDATES = [c for m in range(1, 18, 2) for c in candidates_d5(m)]


class TestCanonicalize:
    def pair(self):
        return CandidatePair(a=(1, 3, 3, 1, -7), b=(3, 1, 1, 3, -7), ell=85, m=17, x=36)

    def test_idempotent(self):
        c1 = canonicalize(self.pair())
        assert canonicalize(c1) == c1

    def test_shift_invariance(self):
        p = self.pair()
        shifted = CandidatePair(
            a=p.a[2:] + p.a[:2], b=p.b[1:] + p.b[:1], ell=p.ell, m=p.m, x=p.x
        )
        assert canonicalize(shifted) == canonicalize(p)

    def test_reversal_invariance(self):
        p = self.pair()
        rev = CandidatePair(
            a=tuple(reversed(p.a)), b=tuple(reversed(p.b)), ell=p.ell, m=p.m, x=p.x
        )
        assert canonicalize(rev) == canonicalize(p)

    def test_swap_negates_x(self):
        p = self.pair()
        swapped = CandidatePair(a=p.b, b=p.a, ell=p.ell, m=p.m, x=-p.x)
        assert canonicalize(swapped) == canonicalize(p)
        assert canonicalize(p).x >= 0

    def test_x_zero_takes_least_orientation(self):
        # at x = 0 both orientations qualify; for m <= 39 only m=35 has
        # such candidates with a != b
        for cand in (c for m in range(1, 40, 2) for c in candidates_d5(m) if c.x == 0):
            swapped = CandidatePair(a=cand.b, b=cand.a, ell=cand.ell, m=cand.m)
            assert canonicalize(swapped) == cand

    def test_non_complementary_sides_rejected(self):
        # both sides have x = -4, so no orientation has a first side x >= 0
        side = (1, -1, 1, 1, -1)
        with pytest.raises(ValueError, match="not complementary"):
            canonicalize(CandidatePair(a=side, b=side, ell=5, m=1))

    @settings(max_examples=200, deadline=None)
    @given(
        index=st.integers(min_value=0),
        shifts=st.tuples(st.integers(0, 4), st.integers(0, 4)),
        flips=st.tuples(st.booleans(), st.booleans()),
        swap=st.booleans(),
    )
    def test_images_match_oracle(self, index, shifts, flips, swap):
        cand = ALL_CANDIDATES[index % len(ALL_CANDIDATES)]
        sides = []
        for t, s, flip in zip((cand.a, cand.b), shifts, flips):
            t = t[s:] + t[:s]
            sides.append(tuple(reversed(t)) if flip else t)
        a, b = sides[::-1] if swap else sides
        assert brute_key(a, b) == (cand.a, cand.b)
        assert canonicalize(CandidatePair(a=a, b=b, ell=cand.ell, m=cand.m)) == cand


class TestGenerationProfile:
    def l87_profile(self, **kw):
        data = ell87()
        args = dict(
            ell=87,
            m=3,
            d=29,
            abs_value_counts={3: 14, 1: 44},
            balanced=True,
        )
        args.update(kw)
        return GenerationProfile(**args)

    def test_published_pair_admitted(self):
        data = ell87()
        profile = self.l87_profile()
        assert profile.admits(data["compressed_a"], data["compressed_b"])

    def test_count_identity_violation(self):
        with pytest.raises(ProfileError, match="counts sum"):
            self.l87_profile(abs_value_counts={3: 15, 1: 44})

    def test_balanced_parity_violation(self):
        with pytest.raises(ProfileError, match="even count"):
            self.l87_profile(abs_value_counts={3: 13, 1: 45})

    def test_alphabet_violation(self):
        with pytest.raises(ProfileError, match="alphabet"):
            self.l87_profile(abs_value_counts={5: 14, 1: 44})

    @pytest.mark.parametrize("mag", [-1, 0])
    @pytest.mark.parametrize("count", [0, 2])
    def test_magnitude_below_one_rejected_at_any_count(self, mag, count):
        """A key below 1 is refused even at count 0: at ℓ=15 {3: 2, 1: 8, -1: 0}
        made candidates_general emit each of its 225 pairs 256 times."""
        counts = {3: 2, 1: 8 - count, mag: count}
        with pytest.raises(ProfileError, match=f"magnitude {mag} outside"):
            GenerationProfile(ell=15, m=3, d=5, abs_value_counts=counts, balanced=True)

    @pytest.mark.parametrize("kw, message", [
        (dict(d=7), r"ell=15 != d\*m = 21"),
        (dict(abs_value_counts={3: 2, 1: 10, 5: -2}), "negative count for magnitude 5"),
        # x is defined only for d = 5: at d = 7 a filter used to keep every pair, x null
        (dict(ell=21, d=7, abs_value_counts={3: 3, 1: 11}, x_filter={999}),
         "x is defined only for d = 5, got an x filter at d = 7"),
    ], ids=["shape", "negative-count", "x-filter-d7"])
    def test_refused_when_built(self, kw, message):
        with pytest.raises(ProfileError, match=message):
            GenerationProfile(**{**dict(ell=15, m=3, d=5, abs_value_counts={3: 2, 1: 8}), **kw})

    def test_frozen(self):
        profile = self.l87_profile()
        with pytest.raises(dataclasses.FrozenInstanceError):
            profile.balanced = False

    def test_zero_count_magnitudes_ignored_by_admits(self):
        data = ell87()
        profile = self.l87_profile(abs_value_counts={3: 14, 1: 44})
        padded = self.l87_profile(abs_value_counts={3: 14, 1: 44})
        padded.abs_value_counts[5] = 0  # explicit zero entry changes nothing
        a, b = data["compressed_a"], data["compressed_b"]
        assert profile.admits(a, b) and padded.admits(a, b)

    def test_unbalanced_split_rejected_by_admits(self):
        data = ell87()
        a = list(data["compressed_a"])
        b = list(data["compressed_b"])
        # move one magnitude-3 entry from b to a: joint counts survive,
        # per-side balance breaks
        profile = self.l87_profile()
        ai = next(i for i, v in enumerate(a) if abs(v) == 1)
        bi = next(i for i, v in enumerate(b) if abs(v) == 3)
        a[ai], b[bi] = 3 * (1 if a[ai] > 0 else -1), 1 * (1 if b[bi] > 0 else -1)
        assert not profile.admits(a, b)


class TestCandidatesGeneral:
    def small_profile(self, **kw):
        args = dict(
            ell=15,
            m=3,
            d=5,
            abs_value_counts={3: 2, 1: 8},
            balanced=True,
            seed=1,
            budget=200_000,
        )
        args.update(kw)
        return GenerationProfile(**args)

    def test_stream_satisfies_constraints(self):
        profile = self.small_profile()
        pairs = list(candidates_general(profile))
        assert pairs
        for p in pairs:
            p.check()
            assert profile.admits(p.a, p.b)
            for k in range(1, 5):
                assert psd(p.a, k) + psd(p.b, k) == pytest.approx(32, abs=1e-6)

    def test_stream_matches_d5_up_to_equivalence(self):
        # the balanced m=3 profile covers the same ground as candidates_d5(3):
        # every emitted pair canonicalizes into the d=5 candidate set
        profile = self.small_profile(budget=None)
        keys = {(p.a, p.b) for p in candidates_d5(3)}
        seen = set()
        for p in candidates_general(profile):
            seen.add(brute_key(p.a, p.b))
        assert seen == keys

    def test_determinism_per_seed(self):
        p1 = list(candidates_general(self.small_profile(budget=50_000)))
        p2 = list(candidates_general(self.small_profile(budget=50_000)))
        assert p1 == p2

    def test_seed_changes_order(self):
        p1 = list(candidates_general(self.small_profile(budget=50_000, seed=1)))
        p2 = list(candidates_general(self.small_profile(budget=50_000, seed=2)))
        assert {(p.a, p.b) for p in p1} != {(p.a, p.b) for p in p2} or p1 != p2

    def test_x_filter_d5(self):
        profile = self.small_profile(x_filter={0}, budget=None)
        pairs = list(candidates_general(profile))
        assert pairs and all(p.x == 0 for p in pairs)

    def test_pinned_streams(self):
        assert stream_pins() == (STREAM_PINS, SWEEP_DIGEST)
        for name, budgets in SWEEP_BUDGETS.items():
            for budget in budgets:
                prefix = stream(name, budget)
                assert prefix == stream(name)[:len(prefix)]

    @pytest.mark.parametrize("name", ["l15-balanced", "l15-unbalanced", "l25-unbalanced"])
    def test_exhaustive_stream_is_oracle(self, name):
        pairs = [(p.a, p.b) for p in stream(name)]
        assert len(set(pairs)) == len(pairs)
        assert set(pairs) == oracle_pairs(GenerationProfile(**STREAM_PROFILES[name]))

    def test_x_filtered_stream_is_oracle(self):
        profile = GenerationProfile(**STREAM_PROFILES["l15-balanced-x0"])
        want = {(a, b) for a, b in oracle_pairs(profile) if paf(a, 1) - paf(a, 2) == 0}
        assert {(p.a, p.b) for p in stream("l15-balanced-x0")} == want

    def test_budgeted_d7_stream_within_oracle(self):
        oracle = oracle_pairs(GenerationProfile(**STREAM_PROFILES["l21-unbalanced"]))
        pairs = {(p.a, p.b) for p in stream("l21-unbalanced")}
        assert len(oracle) == 4704
        assert pairs and pairs <= oracle


def products_touching(row, i, s):
    """Products newly known at shift s once row[i] is set, found by looking
    for placed partners: the reference for _shift_tables."""
    d = len(row)
    total, count = 0, 0
    for j in {(i + s) % d, (i - s) % d}:
        if row[j] != 0:
            total += row[i] * row[j]
            count += 1
    return total, count


class TestShiftTables:
    """_shift_tables' partner lists and per-depth unknown-product counts
    equal the step-by-step count when positions are placed in order."""

    @pytest.mark.parametrize("d", range(1, 30))
    def test_matches_loop(self, d):
        links, unknown = candgen._shift_tables(d)
        rng = random.Random(d)
        shifts = range(1, d // 2 + 1)
        rows = ([0] * (d + 1), [0] * (d + 1))
        left = [2 * d] * len(shifts)
        assert len(unknown) == 2 * d
        for depth in range(2 * d):
            row, pos = rows[depth % 2], depth // 2
            row[pos] = v = rng.choice((-5, -3, -1, 1, 3, 5))
            for k, s in enumerate(shifts):
                total, count = products_touching(row[:d], pos, s)
                i, j = links[pos][k]
                assert v * (row[i] + row[j]) == total
                left[k] -= count
            assert unknown[depth] == left
