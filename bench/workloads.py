"""The four search workloads: inputs made from a seed, requests, output checks.

A workload's ``setup(seed)`` imports the library, loads what the searches
need and returns the list of requests that make up one pass.  Every request
is one call of a public search function with a budget counted in nodes or
selections, so a faster library explores exactly the same space.  The
library is always reached through module attributes (``decompress.orbit_search``
and so on) so that the tracer in ``tracing.py`` can rebind them.

Checks use ``legendre_pairs.seqcore`` directly; the tracer never rebinds that
module, so checking adds no spans.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

Pair = Tuple[Tuple[int, ...], Tuple[int, ...]]

# dfs_first_pair_l25: uncompress_search(ℓ=25, max_solutions=1) for search
# seeds 0-39 on each of the 3 candidates_d5(5) candidates found a pair after
# 258 to 292,260 nodes (median 29,750).  A panel drawn afresh for every
# benchmark seed would carry that spread into time_to_pair, so the panel is
# fixed: one search per candidate, nearest the 1/6, 1/2 and 5/6 quantiles of
# those 120 node counts.  It is small so that a run repeats it and measures
# the median search several times.  Entries are (candidate index, search
# seed, nodes to the first pair).
FIRST_PAIR_PANEL = (
    (2, 0, 6956),
    (0, 29, 29822),
    (1, 1, 93926),
)

# Nodes per second at ℓ=45 depends on where in the tree a search spends its
# budget, so a pass spreads its nodes over several search seeds per candidate.
SCAN_BUDGET = 4_000  # nodes per search
# Rates of single searches differ by up to 60% between search seeds; with
# 32 searches per pass their median moves little from one benchmark seed to
# the next.
SCAN_SEEDS = 8  # search seeds per candidate, drawn from the benchmark seed
# x ≡ 0 (mod 4) always holds, so the reference value x=6 selects nothing and
# x=12 leaves four candidates.
SCAN_X = (6, 12)
SCAN_CANDIDATES = 4

# Four short searches rather than one long one: the host changes speed within
# seconds, and the gauge timed around a search tracks it better when the
# search is short.
SAMPLE_BUDGET = 5_000  # ℓ=85 selections per search, hints included
SAMPLE_SEEDS = 4  # sampling seeds per pass, drawn from the benchmark seed

# Short enough that a run times about twenty searches: with a handful, one
# slow stretch of the host moved the run's rate by a third.
EXHAUSTIVE_BUDGET = 20_000  # first ℓ=21 selections in rank order
EXHAUSTIVE_PAIRS = 756
EXHAUSTIVE_DIGEST = "621ef49b4376b434b907d4a325c76bf89e0b4bc2dffe0cd305f068530b70f7c7"


@dataclass
class Request:
    """One search call and the check of its output."""

    label: str
    engine: str  # "uncompress_search" | "orbit_search"
    search: Callable[[], object]
    check: Callable[[object], List[str]]  # full check; returns the problems found


def pairs_digest(pairs: Sequence[Pair]) -> str:
    """sha256 over the pairs in the order given, one ``A;B`` line each."""
    h = hashlib.sha256()
    for a, b in pairs:
        h.update((",".join(map(str, a)) + ";" + ",".join(map(str, b)) + "\n").encode())
    return h.hexdigest()


def sorted_pairs_digest(pairs: Sequence[Pair]) -> str:
    """Digest of the pair set, independent of emission order and side order."""
    return pairs_digest(sorted(tuple(sorted(p)) for p in pairs))


def _check_pairs(seqcore, pairs: Sequence[Pair]) -> List[str]:
    return [
        f"pair {i} fails verify_legendre_pair"
        for i, (a, b) in enumerate(pairs)
        if not seqcore.verify_legendre_pair(a, b).is_legendre_pair
    ]


def _check_nodes(res, nodes: int) -> List[str]:
    if res.nodes_visited != nodes:
        return [f"nodes_visited {res.nodes_visited}, expected {nodes}"]
    return []


def setup_first_pair(seed: int) -> List[Request]:
    from legendre_pairs import candgen, decompress, seqcore

    cands = candgen.candidates_d5(5)
    if len(cands) != 3:
        raise RuntimeError(f"candidates_d5(5) gave {len(cands)} candidates, expected 3")
    panel = list(FIRST_PAIR_PANEL)
    random.Random(seed).shuffle(panel)

    def request(ci: int, search_seed: int, nodes: int) -> Request:
        cand = cands[ci]
        cfg = decompress.SearchConfig(max_solutions=1, seed=search_seed)

        def check(res) -> List[str]:
            problems = _check_nodes(res, nodes) + _check_pairs(seqcore, res.pairs)
            if len(res.pairs) != 1:
                return problems + [f"{len(res.pairs)} pairs, expected 1"]
            a, b = res.pairs[0]
            if seqcore.compress(a, 5) != cand.a or seqcore.compress(b, 5) != cand.b:
                problems.append("pair does not compress to its candidate")
            return problems

        return Request(
            f"cand{ci}/seed{search_seed}",
            "uncompress_search",
            lambda: decompress.uncompress_search(25, cand, cfg),
            check,
        )

    return [request(*entry) for entry in panel]


def setup_scan(seed: int) -> List[Request]:
    from legendre_pairs import candgen, decompress, seqcore

    cands = candgen.candidates_d5(9, x_filter=set(SCAN_X))
    if len(cands) != SCAN_CANDIDATES:
        raise RuntimeError(f"{len(cands)} ℓ=45 candidates, expected {SCAN_CANDIDATES}")

    rng = random.Random(seed)
    search_seeds = [rng.randrange(2**32) for _ in range(SCAN_SEEDS)]

    def request(ci: int, cand, search_seed: int) -> Request:
        cfg = decompress.SearchConfig(budget_nodes=SCAN_BUDGET, seed=search_seed)

        def check(res) -> List[str]:
            problems = _check_nodes(res, SCAN_BUDGET) + _check_pairs(seqcore, res.pairs)
            if res.exhausted:
                problems.append("search space exhausted inside the budget")
            return problems

        return Request(
            f"cand{ci}/seed{search_seed}",
            "uncompress_search",
            lambda: decompress.uncompress_search(45, cand, cfg),
            check,
        )

    return [request(ci, c, s) for s in search_seeds for ci, c in enumerate(cands)]


def setup_sample(seed: int) -> List[Request]:
    from legendre_pairs import decompress, grouptools, refdata, seqcore

    data = refdata.ell85()
    gens = tuple(data["generators"])
    k1, k2 = data["ones_orbits"], data["twos_orbits"]
    table = grouptools.orbits(85, gens)
    n1, n2 = table.class_count(1), table.class_count(2)
    hints = []
    witnesses = set()
    for cp in data["code_pairs"]:
        seqs = []
        for side in ("a", "b"):
            codes = cp[side]["ones"], cp[side]["twos"]
            hints.append(codes)
            block = grouptools.block_from_codes(
                table,
                {1: grouptools.LexRankCode(n1, k1, codes[0]),
                 2: grouptools.LexRankCode(n2, k2, codes[1])},
            )
            seqs.append(grouptools.sequence_from_block(block))
        witnesses.add(tuple(sorted(seqs)))

    def check(res) -> List[str]:
        problems = _check_nodes(res, SAMPLE_BUDGET) + _check_pairs(seqcore, res.pairs)
        missing = witnesses - {tuple(sorted(p)) for p in res.pairs}
        if missing:
            problems.append(f"{len(missing)} of {len(witnesses)} witness pairs not recovered")
        return problems

    def request(sample_seed: int) -> Request:
        cfg = decompress.SearchConfig(
            strategy="orbit_restricted",
            subgroup_generators=gens,
            ones_orbits=k1,
            twos_orbits=k2,
            budget_nodes=SAMPLE_BUDGET,
            seed=sample_seed,
            hint_codes=tuple(hints),
        )
        return Request(f"hints+sample/seed{sample_seed}", "orbit_search",
                       lambda: decompress.orbit_search(85, cfg), check)

    rng = random.Random(seed)
    return [request(rng.randrange(2**32)) for _ in range(SAMPLE_SEEDS)]


def setup_exhaustive(seed: int) -> List[Request]:
    # A rank-order scan has no random input, so the seed changes nothing here.
    from legendre_pairs import decompress, seqcore

    cfg = decompress.SearchConfig(
        strategy="orbit_restricted",
        subgroup_generators=(1,),
        ones_orbits=10,
        twos_orbits=0,
        exhaustive=True,
        p2_prefilter=False,
        budget_nodes=EXHAUSTIVE_BUDGET,
    )

    def check(res) -> List[str]:
        problems = _check_nodes(res, EXHAUSTIVE_BUDGET) + _check_pairs(seqcore, res.pairs)
        if len(res.pairs) != EXHAUSTIVE_PAIRS:
            problems.append(f"{len(res.pairs)} pairs, expected {EXHAUSTIVE_PAIRS}")
        digest = sorted_pairs_digest(res.pairs)
        if digest != EXHAUSTIVE_DIGEST:
            problems.append(f"pair-set digest {digest[:16]}…, expected {EXHAUSTIVE_DIGEST[:16]}…")
        return problems

    return [Request("rank-prefix", "orbit_search", lambda: decompress.orbit_search(21, cfg), check)]


WORKLOADS: Dict[str, Callable[[int], List[Request]]] = {
    "dfs_first_pair_l25": setup_first_pair,
    "dfs_scan_l45": setup_scan,
    "orbit_sample_l85": setup_sample,
    "orbit_exhaustive_l21": setup_exhaustive,
}
