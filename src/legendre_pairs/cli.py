"""Command-line surface: verification, generation, search, and reproduction
drivers wired end-to-end.

Exit codes are a stable contract: 0 = success/verified/identical,
1 = negative result (not a pair, mismatch, nothing found), 2 = usage or
parse errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from typing import Optional, Sequence

from . import __version__, refdata
from .candgen import (
    CandidatePair,
    GenerationProfile,
    candidates_d5,
    candidates_general,
)
from .decompress import SearchConfig, orbit_search, uncompress_search
from .diophantine import admits_unit_sum, odd_five_squares
from .grouptools import (
    LexRankCode,
    block_from_codes,
    lex_rank,
    lex_unrank,
    orbits,
    sequence_from_block,
)
from .seqcore import (
    SequenceError,
    compress,
    format_sequence,
    psd,
    psd_vector,
    read_sequences,
    verify_legendre_pair,
    verify_pairs,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _read_single_sequence(path: str):
    seqs = read_sequences(path)
    if len(seqs) != 1:
        raise SequenceError(f"{path}: expected exactly one sequence line")
    return seqs[0]


def _read_json(path: str, what: str, parse):
    """Load a JSON input file and convert it with ``parse``; a file that is
    not JSON or has the wrong shape raises ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: not a valid {what}: {exc!r}") from None


def _parse_candidates(raw):
    ell, m = _ints(raw["ell"], raw["m"])
    cands = [
        CandidatePair(a=_ints(*p["a"]), b=_ints(*p["b"]), ell=ell, m=m,
                      x=None if p.get("x") is None else _ints(p["x"])[0])
        for p in raw["pairs"]
    ]
    for cand in cands:
        cand.check()
    return ell, cands


def _parse_profile(raw):
    ell, m, d = _ints(raw["ell"], raw["m"], raw["d"])
    counts = raw["abs_value_counts"]
    balanced = raw.get("balanced", False)
    if not isinstance(balanced, bool):
        raise ValueError(f"balanced must be true or false, got {balanced!r}")
    return dict(ell=ell, m=m, d=d, balanced=balanced,
                abs_value_counts=dict(zip(map(int, counts), _ints(*counts.values()))))


def _ints(*values):
    # bool is a subclass of int, but JSON true is not a number
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        raise ValueError(f"expected integers, got {values!r}")
    return values


def _parse_hints(raw):
    return [_ints(ones_rank, twos_rank) for ones_rank, twos_rank in raw]


def _parse_codes(raw):
    # a sidecar record's "codes": [A, B], each side {"<size>": [n, k, rank]}
    a, b = raw
    return [{int(size): LexRankCode(*_ints(*code)) for size, code in side.items()}
            for side in (a, b)]


def _write_manifest(out: str, args, t0: float, inputs: dict, text: str) -> None:
    """Write ``out``.manifest.json, the reproducibility record of ``text``:
    argv, seed, versions, digests of the input files and of ``text``."""
    manifest = {
        "argv": sys.argv[1:],
        "seed": args.seed,
        "version": __version__,
        "python": sys.version.split()[0],
        "input_digests": {k: _sha256_file(p) for k, p in inputs.items() if p},
        "result_digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "wall_time_s": round(time.time() - t0, 3),
    }
    with open(out + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_pairs(args, t0: float, inputs: dict, results, unit: str) -> int:
    """Write the pairs of ``results`` as text to --out, with a .json sidecar
    and a manifest, or to stdout without --out; print the summary line.

    Every pair is verified here, the one check on engine output, by
    verify_pairs per result: a pair that fails exits 1 before anything is
    written."""
    lines, records = [], []
    for res in results:
        failing, xs = verify_pairs(res.pairs)
        if failing.any():
            i = failing.nonzero()[0][0]
            print(f"error: output pair {len(records) + i} is not a Legendre pair "
                  f"(failing shift {failing[i]})", file=sys.stderr)
            return EXIT_NEGATIVE
        for (A, B), codes, x in zip(res.pairs, res.codes, xs):
            lines += [format_sequence(A), format_sequence(B)]
            records.append({"x": x, "codes": codes})
    text = "\n".join(lines) + ("\n" if lines else "")
    nodes = sum(res.nodes_visited for res in results)
    exhausted = all(res.exhausted for res in results)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        sidecar = {"pairs": records, "nodes_visited": nodes, "exhausted": exhausted}
        with open(args.out + ".json", "w", encoding="utf-8") as fh:
            # json.dumps, not json.dump: only dumps runs the C encoder
            fh.write(json.dumps(sidecar) + "\n")
        _write_manifest(args.out, args, t0, inputs, text)
    else:
        sys.stdout.write(text)
    xs = sorted({abs(r["x"]) for r in records if r["x"] is not None})
    print(
        f"found {len(records)} pair(s), |x| values {xs}, visited {nodes} {unit}, "
        f"exhausted={exhausted} [{time.time() - t0:.1f}s]"
    )
    return EXIT_OK if records else EXIT_NEGATIVE


# --- subcommand handlers ----------------------------------------------------

def cmd_verify(args) -> int:
    a = _read_single_sequence(args.file_a)
    b = _read_single_sequence(args.file_b)
    rep = verify_legendre_pair(a, b)
    n = len(a)
    if rep.is_legendre_pair:
        print(f"Legendre pair of length {n}: yes")
    else:
        print(f"Legendre pair of length {n}: no (failing shift {rep.failing_shift})")
    if rep.x_value is not None:
        print(f"x = {rep.x_value}")
    if rep.n1_n2 is not None:
        n1, n2 = rep.n1_n2
        print(f"n1, n2 = {n1}, {n2} (n1 + n2 = {n1 + n2}, 2ℓ+2 = {2 * n + 2})")
    if rep.psd_at_m is not None:
        ea, eb = rep.psd_at_m
        m = n // 5
        print(f"PSD_A({m}) = {ea} = {ea.to_float():.7f}  (float {psd(a, m):.7f})")
        print(f"PSD_B({m}) = {eb} = {eb.to_float():.7f}  (float {psd(b, m):.7f})")
    elif n % 3 == 0:
        m = n // 3
        print(f"PSD_A({m}) float = {psd(a, m):.7f}, PSD_B({m}) float = {psd(b, m):.7f}")
    return EXIT_OK if rep.is_legendre_pair else EXIT_NEGATIVE


def cmd_compress(args) -> int:
    for seq in read_sequences(args.file):
        print(format_sequence(compress(seq, args.m)))
    return EXIT_OK


def cmd_psd(args) -> int:
    for seq in read_sequences(args.file):
        if args.k is not None:
            print(f"{psd(seq, args.k):.9f}")
        else:
            print(" ".join(f"{v:.6f}" for v in psd_vector(seq)))
    return EXIT_OK


def cmd_dioph(args) -> int:
    sols = odd_five_squares(args.m)
    if args.json:
        payload = [
            {"values": list(s), "admits_unit_sum": admits_unit_sum(s)} for s in sols
        ]
        print(json.dumps({"m": args.m, "target": 4 * args.m + 1, "solutions": payload}))
    else:
        for s in sols:
            flag = "admits_unit_sum" if admits_unit_sum(s) else "ruled_out"
            print(f"{list(s)} {flag}")
    return EXIT_OK


def cmd_candidates(args) -> int:
    t0 = time.time()
    x_filter = set(args.x) if args.x else None
    if args.profile:
        fields = _read_json(args.profile, "generation profile", _parse_profile)
        profile = GenerationProfile(
            **fields, x_filter=x_filter, budget=args.budget, seed=args.seed
        )
        pairs = list(candidates_general(profile))
        ell, m = profile.ell, profile.m
    else:
        if args.ell % 5 != 0:
            print("lengths not divisible by 5 need --profile", file=sys.stderr)
            return EXIT_USAGE
        ell, m = args.ell, args.ell // 5
        pairs = candidates_d5(m, x_filter)
    payload = {
        "ell": ell,
        "m": m,
        "pairs": [{"a": list(p.a), "b": list(p.b), "x": p.x} for p in pairs],
    }
    text = json.dumps(payload, indent=1)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    _write_manifest(args.out, args, t0, {"profile": args.profile}, text)
    print(f"wrote {len(pairs)} candidate pairs to {args.out}")
    return EXIT_OK if pairs else EXIT_NEGATIVE


def _decompress(args, t0: float, ell: int, cands, inputs: dict) -> int:
    """Lift every candidate, serially or in --jobs process shards, and write
    the results merged in candidate order."""
    cfg = SearchConfig(
        budget_nodes=args.budget, seed=args.seed, max_solutions=args.max_solutions
    )
    n, jobs = len(cands), max(1, args.jobs)
    if jobs > 1 and n > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(uncompress_search, [ell] * n, cands, [cfg] * n))
    else:
        results = [uncompress_search(ell, cand, cfg) for cand in cands]
    return _write_pairs(args, t0, inputs, results, "nodes")


def cmd_decompress(args) -> int:
    t0 = time.time()
    ell, cands = _read_json(args.candidates, "candidate file", _parse_candidates)
    return _decompress(args, t0, ell, cands, {"candidates": args.candidates})


def cmd_search_orbit(args) -> int:
    t0 = time.time()
    hints = _read_json(args.hints, "hints file", _parse_hints) if args.hints else []
    cfg = SearchConfig(
        strategy="orbit_restricted",
        budget_nodes=args.budget,
        max_solutions=args.max_solutions,
        seed=args.seed,
        subgroup_generators=tuple(args.gen),
        ones_orbits=args.ones,
        twos_orbits=args.twos,
        exhaustive=args.exhaustive,
        hint_codes=tuple(hints),
    )
    res = orbit_search(args.ell, cfg)
    return _write_pairs(args, t0, {"hints": args.hints}, [res], "selections")


def cmd_orbits(args) -> int:
    table = orbits(args.ell, args.gen)
    for size in sorted(table.orbits_by_size):
        cls = table.orbits_by_size[size]
        print(f"size {size}: {len(cls)} orbits")
        for orb in cls:
            print("  {" + ",".join(map(str, orb)) + "}")
    return EXIT_OK


def cmd_rank(args) -> int:
    subset = [int(t) for t in args.set.split(",") if t]
    print(lex_rank(args.N, subset))
    return EXIT_OK


def cmd_unrank(args) -> int:
    subset = lex_unrank(args.N, args.k, args.r)
    print(",".join(map(str, subset)))
    return EXIT_OK


def _decode(table, codes):
    """The block and ±1 sequence of one side, from its {size: LexRankCode} codes."""
    block = block_from_codes(table, codes)
    return block, sequence_from_block(block)


def cmd_decode_pair(args) -> int:
    sides = _read_json(args.codes, "LexRank code file", _parse_codes)
    table = orbits(args.ell, args.gen)
    seqs = [_decode(table, codes)[1] for codes in sides]
    for seq in seqs:
        print(format_sequence(seq))
    rep = verify_legendre_pair(*seqs)
    print(f"# legendre_pair={rep.is_legendre_pair} x={rep.x_value}", file=sys.stderr)
    return EXIT_OK if rep.is_legendre_pair else EXIT_NEGATIVE


def _diff_report(name: str, got, want) -> bool:
    if got == want:
        print(f"{name}: OK")
        return True
    print(f"{name}: MISMATCH")
    print(f"  computed: {got}")
    print(f"  reference: {want}")
    return False


def _reproduce_dioph_all() -> bool:
    golden = refdata.dioph_solutions()
    ok = True
    for m_str, entry in sorted(golden.items(), key=lambda kv: int(kv[0])):
        m = int(m_str)
        sols = [list(s) for s in odd_five_squares(m)]
        ok &= _diff_report(f"solutions m={m}", sols, entry["solutions"])
        ok &= _diff_report(f"ruled-out m={m}", [s for s in sols if not admits_unit_sum(s)],
                           entry["ruled_out"])
    return ok


def _reproduce_ell87() -> bool:
    data = refdata.ell87()
    ok = True
    for i, pair in enumerate(data["pairs"], 1):
        rep = verify_legendre_pair(pair["a"], pair["b"])
        ok &= _diff_report(f"pair {i} verifies", rep.is_legendre_pair, True)
        for side in ("a", "b"):
            ok &= _diff_report(f"pair {i} {side.upper()}-compression",
                               list(compress(pair[side], data["m"])), data[f"compressed_{side}"])
    return ok


def _reproduce_ell85() -> bool:
    data = refdata.ell85()
    table = orbits(data["ell"], data["generators"])
    first, m = data["first_pair"], data["m"]
    k1, k2 = data["ones_orbits"], data["twos_orbits"]
    n1, n2 = table.class_count(1), table.class_count(2)
    ok = True
    for idx, cp in enumerate(data["code_pairs"], 1):
        pair = []
        for side in ("a", "b"):
            block, seq = _decode(table, {1: LexRankCode(n1, k1, cp[side]["ones"]),
                                         2: LexRankCode(n2, k2, cp[side]["twos"])})
            pair.append(seq)
            if idx == 1:
                ok &= _diff_report(f"pair 1 {side}-block", list(block.positions),
                                   sorted(first[f"{side}_block"]))
        rep = verify_legendre_pair(*pair)
        ok &= _diff_report(f"code pair {idx} verifies", rep.is_legendre_pair, True)
        if idx == 1:
            pair1, x1 = pair, rep.x_value
    for side, seq in zip("ab", pair1):
        ok &= _diff_report(f"pair 1 {side.upper()} {m}-compression", list(compress(seq, m)),
                           first[f"{side}_compressed"])
    ok &= _diff_report("pair 1 x", x1, first["x"])
    for side, seq in zip("ab", pair1):
        ok &= _diff_report(f"pair 1 PSD_{side.upper()} within 1e-6",
                           abs(psd(seq, m) - first[f"psd_{side}_at_m"]) < 1e-6, True)
    return ok


def _reproduce_table1_small() -> bool:
    """Exhaustive all-pairs search (trivial multiplier, a0=+1 gauge) for the
    x values realized at ℓ = 5 and 15, against the bundled reference rows
    read in the program's unit (coefficient of √5/2)."""
    rows = {row["ell"]: row for row in refdata.x_table()}
    ok = True
    for ell in (5, 15):
        cfg = SearchConfig(
            strategy="orbit_restricted",
            subgroup_generators=(1,),
            ones_orbits=(ell - 1) // 2,
            twos_orbits=0,
            exhaustive=True,
            p2_prefilter=False,
            budget_nodes=10**7,
        )
        failing, xs = verify_pairs(orbit_search(ell, cfg).pairs)
        if failing.any():
            i = failing.nonzero()[0][0]
            print(f"ℓ={ell}: pair {i} is not a Legendre pair (failing shift {failing[i]})")
            return False
        xs = {abs(x) for x in xs}
        row = rows[ell]
        ok &= _diff_report(f"ℓ={ell} x-set", sorted(xs), sorted(row["x"]))
        unit = row["unit"].replace("sqrt", "√")
        print(
            f"  reference: stated {row['stated_x']} as coefficient of {unit}"
            f" = x {row['x']}"
        )
    return ok


# the sections of `lp reproduce`, in the order the parser lists them
REPRODUCE = {
    "table1-small": _reproduce_table1_small,
    "dioph-all": _reproduce_dioph_all,
    "ell85-decode": _reproduce_ell85,
    "ell87-verify": _reproduce_ell87,
}


def cmd_reproduce(args) -> int:
    return EXIT_OK if REPRODUCE[args.section]() else EXIT_NEGATIVE


def cmd_pipeline(args) -> int:
    t0 = time.time()
    if args.ell % 5 != 0:
        print("pipeline needs 5 | ℓ (use candidates --profile + decompress otherwise)",
              file=sys.stderr)
        return EXIT_USAGE
    cands = candidates_d5(args.ell // 5, set(args.x) if args.x else None)
    print(f"ℓ={args.ell}: {len(cands)} candidate pair(s)")
    return _decompress(args, t0, args.ell, cands, {})


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lp", description="Legendre-pair compression search toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    # option groups shared by several subcommands, added where each lists
    # them so that --help and usage lines keep their order
    def orbit_options(p):
        p.add_argument("--ell", type=int, required=True)
        p.add_argument("--gen", type=int, nargs="+", required=True)

    def run_options(p):
        p.add_argument("--budget", type=int, default=10**7)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--max-solutions", type=int, default=0)

    p = command("verify", cmd_verify, "exact Legendre-pair test on two sequence files")
    p.add_argument("file_a")
    p.add_argument("file_b")

    p = command("compress", cmd_compress, "m-compress every sequence in a file")
    p.add_argument("file")
    p.add_argument("-m", type=int, required=True)

    p = command("psd", cmd_psd, "power spectral density of sequences in a file")
    p.add_argument("file")
    p.add_argument("-k", type=int, default=None)

    p = command("dioph", cmd_dioph, "all-odd five-square solutions of 4m+1")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = command("candidates", cmd_candidates, "generate candidate compressed pairs")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--ell", type=int)
    source.add_argument("--profile", help="JSON generation profile")
    p.add_argument("--x", type=int, nargs="*", default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = command("decompress", cmd_decompress, "search full pairs for candidate file")
    p.add_argument("--candidates", required=True)
    run_options(p)
    p.add_argument("--out", required=True)

    p = command("search-orbit", cmd_search_orbit, "orbit-restricted whole-sequence search")
    orbit_options(p)
    p.add_argument("--ones", type=int, required=True)
    p.add_argument("--twos", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=10**5)
    p.add_argument("--max-solutions", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--hints", default=None, help="JSON list of [ones_rank, twos_rank]")
    p.add_argument("--out", default=None)

    orbit_options(command("orbits", cmd_orbits, "multiplier orbits on Z_ℓ \\ {0}"))

    p = command("rank", cmd_rank, "lexicographic rank of an ascending subset")
    p.add_argument("-N", type=int, required=True)
    p.add_argument("--set", required=True)

    p = command("unrank", cmd_unrank, "decode a lexicographic subset rank")
    p.add_argument("-N", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-r", type=int, required=True)

    p = command("decode-pair", cmd_decode_pair, "decode LexRank codes to two sequences")
    orbit_options(p)
    p.add_argument("--codes", required=True, help='JSON [A, B], each {"<size>": [n, k, rank]}')

    p = command("reproduce", cmd_reproduce, "recompute a bundled reference section")
    p.add_argument("section", choices=REPRODUCE)

    p = command("pipeline", cmd_pipeline, "dioph → candidates → decompress end-to-end")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--x", type=int, nargs="*", default=None)
    run_options(p)
    p.add_argument("--out", default=None)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

if __name__ == "__main__":
    raise SystemExit(main())
