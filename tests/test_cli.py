"""Command-line contract: exit codes, file formats, manifests."""

import argparse
import copy
import hashlib
import json

import pytest

from legendre_pairs import cli, refdata
from legendre_pairs.candgen import GenerationProfile, candidates_d5, candidates_general
from legendre_pairs.cli import main
from legendre_pairs.decompress import SearchResult
from legendre_pairs.refdata import ell87
from legendre_pairs.seqcore import format_sequence, parse_sequence


def write_pair(tmp_path, a, b):
    fa = tmp_path / "a.txt"
    fb = tmp_path / "b.txt"
    fa.write_text(format_sequence(a) + "\n")
    fb.write_text(format_sequence(b) + "\n")
    return str(fa), str(fb)


class TestVerifyCommand:
    def test_published_pair_exits_zero(self, tmp_path, capsys):
        data = ell87()
        fa, fb = write_pair(tmp_path, data["pairs"][0]["a"], data["pairs"][0]["b"])
        assert main(["verify", fa, fb]) == 0
        out = capsys.readouterr().out
        assert "yes" in out

    def test_mutated_pair_exits_one(self, tmp_path, capsys):
        data = ell87()
        a = list(data["pairs"][0]["a"])
        i, j = a.index(1), a.index(-1)
        a[i], a[j] = -1, 1
        fa, fb = write_pair(tmp_path, a, data["pairs"][0]["b"])
        assert main(["verify", fa, fb]) == 1
        assert "failing shift" in capsys.readouterr().out

    def test_tiny_pair_reports_split(self, tmp_path, capsys):
        fa, fb = write_pair(tmp_path, (1, 1, -1), (1, 1, -1))
        assert main(["verify", fa, fb]) == 0
        out = capsys.readouterr().out
        assert "n1, n2 = 4, 4" in out

    def test_parse_error_exits_two(self, tmp_path):
        fa = tmp_path / "bad.txt"
        fa.write_text("1,frog,-1\n")
        fb = tmp_path / "b.txt"
        fb.write_text("1,1,-1\n")
        assert main(["verify", str(fa), str(fb)]) == 2

    def test_length_mismatch_exits_two(self, tmp_path):
        fa, fb = write_pair(tmp_path, (1, 1, -1), (1, 1, 1, 1, -1))
        assert main(["verify", fa, fb]) == 2

    def test_length_five_reports_x_and_exact_psd(self, tmp_path, capsys):
        fa, fb = write_pair(tmp_path, (1, 1, 1, -1, -1), (1, 1, -1, 1, -1))
        assert main(["verify", fa, fb]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "Legendre pair of length 5: yes",
            "x = 4",
            "n1, n2 = 6, 6 (n1 + n2 = 12, 2ℓ+2 = 12)",
            "PSD_A(1) = 6 + (2)*sqrt(5) = 10.4721360  (float 10.4721360)",
            "PSD_B(1) = 6 + (-2)*sqrt(5) = 1.5278640  (float 1.5278640)",
        ]

    def test_two_sequence_lines_exit_two(self, tmp_path, capsys):
        fa = tmp_path / "two.txt"
        fa.write_text("1,1,-1\n1,1,-1\n")
        _, fb = write_pair(tmp_path, (1, 1, -1), (1, 1, -1))
        assert main(["verify", str(fa), fb]) == 2
        assert f"{fa}: expected exactly one sequence line" in capsys.readouterr().err


class TestSmallCommands:
    def test_compress(self, tmp_path, capsys):
        f = tmp_path / "s.txt"
        f.write_text("1,1,1,1,1,1\n")
        assert main(["compress", str(f), "-m", "2"]) == 0
        assert capsys.readouterr().out.strip() == "2,2,2"

    def test_psd_single_index(self, tmp_path, capsys):
        f = tmp_path / "s.txt"
        f.write_text("1,1,1\n")
        assert main(["psd", str(f), "-k", "0"]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(9.0)

    def test_psd_full_spectrum(self, tmp_path, capsys):
        f = tmp_path / "s.txt"
        f.write_text("1,1,-1\n")
        assert main(["psd", str(f)]) == 0
        values = [float(v) for v in capsys.readouterr().out.split()]
        assert values == pytest.approx([1.0, 4.0, 4.0])

    def test_dioph_text_and_json(self, capsys):
        assert main(["dioph", "-m", "11"]) == 0
        out = capsys.readouterr().out
        assert "[3, 3, 3, 3, 3] ruled_out" in out
        assert main(["dioph", "-m", "11", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target"] == 45
        flags = {tuple(e["values"]): e["admits_unit_sum"] for e in payload["solutions"]}
        assert flags[(3, 3, 3, 3, 3)] is False

    def test_dioph_even_m_exits_two(self, capsys):
        assert main(["dioph", "-m", "4"]) == 2

    def test_rank_unrank(self, capsys):
        assert main(["unrank", "-N", "16", "-k", "12", "-r", "12"]) == 0
        assert capsys.readouterr().out.strip() == "1,2,3,4,5,6,7,8,9,10,14,15"
        assert main(["rank", "-N", "16", "--set", "1,2,3,4,5,6,7,8,10,11,14,15"]) == 0
        assert capsys.readouterr().out.strip() == "42"

    def test_orbits(self, capsys):
        assert main(["orbits", "--ell", "85", "--gen", "69"]) == 0
        out = capsys.readouterr().out
        assert "size 1: 16 orbits" in out and "size 2: 34 orbits" in out

    def test_unrank_out_of_range_exits_two(self, capsys):
        assert main(["unrank", "-N", "6", "-k", "3", "-r", "20"]) == 2


# the paper's first ℓ=85 pair (multiplier 69) in the sidecar's codes layout
PUBLISHED_CODES = [{"1": [16, 12, 12], "2": [34, 15, 1321116338]},
                   {"1": [16, 12, 42], "2": [34, 15, 1275934280]}]


class TestDecodePair:
    def test_published_codes(self, tmp_path, capsys):
        f = tmp_path / "codes.json"
        f.write_text(json.dumps(PUBLISHED_CODES))
        assert main(["decode-pair", "--ell", "85", "--gen", "69", "--codes", str(f)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        a = parse_sequence(lines[0])
        assert len(a) == 85 and sum(a) == 1

    @pytest.mark.parametrize("argv, pairs", [
        pytest.param(["--ell", "21", "--gen", "1", "--ones", "10", "--exhaustive",
                      "--budget", "5000"], 19, id="l21-size-1"),
        pytest.param(["--ell", "85", "--gen", "69", "--ones", "12", "--twos", "15",
                      "--budget", "10", "--hints", "{hints}"], 4, id="l85-sizes-1-2"),
    ])
    def test_sidecar_codes_decode_to_their_lines(self, tmp_path, capsys, argv, pairs):
        """Each sidecar record's codes, passed to decode-pair as written,
        print that record's two lines of the search's text output."""
        hints = tmp_path / "hints.json"
        hints.write_text(json.dumps([[cp[s]["ones"], cp[s]["twos"]]
                                     for cp in refdata.ell85()["code_pairs"] for s in "ab"]))
        out, codes = tmp_path / "found.txt", tmp_path / "codes.json"
        argv = [a.format(hints=hints) for a in argv]
        assert main(["search-orbit", *argv, "--out", str(out)]) == 0
        lines = out.read_text().splitlines(keepends=True)
        records = json.loads((tmp_path / "found.txt.json").read_text())["pairs"]
        assert len(records) == pairs and len(lines) == 2 * pairs
        capsys.readouterr()
        for i, record in enumerate(records):
            codes.write_text(json.dumps(record["codes"]))
            assert main(["decode-pair", *argv[:4], "--codes", str(codes)]) == 0
            assert capsys.readouterr().out == "".join(lines[2 * i:2 * i + 2])


L15_ROWS = {"a": [-3, 1, 1, 1, 1], "b": [-3, 1, 1, 1, 1]}
CODES = ["decode-pair", "--ell", "85", "--gen", "69", "--codes", "{in}"]
HINTS = ["search-orbit", "--ell", "85", "--gen", "69", "--ones", "12", "--twos", "15",
         "--hints", "{in}"]
HINTS_NO_TWOS = ["search-orbit", "--ell", "15", "--gen", "1", "--ones", "7", "--twos", "0",
                 "--hints", "{in}"]
DECOMPRESS = ["decompress", "--candidates", "{in}", "--out", "{out}", "--budget", "1000"]
PROFILE = ["candidates", "--profile", "{in}", "--out", "{out}", "--budget", "2000"]
L15_PROFILE = {"ell": 15, "m": 3, "d": 5, "abs_value_counts": {"3": 2, "1": 8}, "balanced": True}


class TestBadInput:
    @pytest.mark.parametrize("argv, content, names", [
        pytest.param(CODES, [[16, 12, 12], PUBLISHED_CODES[1]], ("{in}",),
                     id="codes-side-list"),
        pytest.param(CODES, [{"1": 5}, PUBLISHED_CODES[1]], ("{in}",), id="codes-spec-int"),
        pytest.param(CODES, [{"1": [16, "12", 12]}, PUBLISHED_CODES[1]], ("{in}",),
                     id="codes-k-string"),
        pytest.param(CODES, [{"1": [16, True, 0], "2": [34, 15, 0]}] * 2, ("{in}",),
                     id="codes-bool"),
        # the {"a", "b"} layout decode-pair once read
        pytest.param(CODES, {"a": {"1": {"k": 12, "rank": 12},
                                   "2": {"k": 15, "rank": 1321116338}},
                             "b": {"1": {"k": 12, "rank": 42},
                                   "2": {"k": 15, "rank": 1275934280}}},
                     ("{in}",), id="codes-old-layout"),
        # side B's 1-orbit count is 15, but multiplier 69 has 16 fixed points
        pytest.param(CODES, [PUBLISHED_CODES[0], {**PUBLISHED_CODES[1], "1": [15, 12, 42]}],
                     ("code universe 15 != 16",), id="codes-n-not-table"),
        pytest.param(DECOMPRESS, [1, 2], ("{in}",), id="candidates-list"),
        pytest.param(DECOMPRESS, {"ell": 15, "m": 3, "pairs": [[[1], [1]]]}, ("{in}",),
                     id="candidate-pair-list"),
        # ℓ=15 rows declared as an ℓ=25 candidate: their joint PAF is -6, not -10
        pytest.param(DECOMPRESS, {"ell": 25, "m": 5, "pairs": [L15_ROWS]}, ("{in}",),
                     id="candidate-contradicts-m"),
        pytest.param(DECOMPRESS, {"ell": 15, "m": 3, "pairs": [{**L15_ROWS, "a": [-3, 1, 1, 1, 1.0]}]},
                     ("{in}",), id="candidates-float"),
        pytest.param(DECOMPRESS, {"ell": 15, "m": 3, "pairs": [{**L15_ROWS, "a": [-3, 1, 1, 1, True]}]},
                     ("{in}",), id="candidates-bool"),
        pytest.param(HINTS, [1, 2], ("{in}",), id="hints-flat"),
        pytest.param(HINTS, [[True, 0]], ("{in}",), id="hints-bool"),
        pytest.param(HINTS, [[12, "x"]], ("{in}",), id="hints-rank-string"),
        pytest.param(HINTS, [[5000, 1]], ("rank 5000",), id="hints-rank-too-big"),
        pytest.param(HINTS, [[-1, 1]], ("rank -1",), id="hints-rank-negative"),
        pytest.param(HINTS_NO_TWOS, [[3, 5]], ("rank 5",), id="hints-twos-rank-no-2-orbits"),
        pytest.param(HINTS_NO_TWOS + ["--budget", "1"], [[3, 0], [7, 0], [5000, 0]],
                     ("rank 5000",), id="hints-bad-rank-past-budget"),
        pytest.param(["candidates", "--profile", "{in}", "--out", "{out}"], [1, 2], ("{in}",),
                     id="profile-list"),
        pytest.param(PROFILE, {**L15_PROFILE, "m": "3", "d": "5"}, ("{in}",),
                     id="profile-string-fields"),
        pytest.param(PROFILE, {**L15_PROFILE, "abs_value_counts": {"3": "2", "1": 8}},
                     ("{in}",), id="profile-count-string"),
        pytest.param(PROFILE, {**L15_PROFILE, "ell": 15.0}, ("{in}",), id="profile-float"),
        pytest.param(PROFILE, {**L15_PROFILE, "balanced": "true"}, ("{in}",),
                     id="profile-balanced-string"),
        pytest.param(PROFILE, {**L15_PROFILE, "balanced": 1}, ("{in}",),
                     id="profile-balanced-int"),
        pytest.param(PROFILE, {**L15_PROFILE, "abs_value_counts": {"3": 2, "1": 8, "-1": 0}},
                     ("magnitude -1",), id="profile-zero-count-negative-magnitude"),
        pytest.param(["verify", "{in}", "{seq}"], None, ("{in}",), id="verify-directory"),
        pytest.param(["candidates", "--out", "{out}"], [], ("--ell", "--profile"),
                     id="candidates-no-source"),
        pytest.param(DECOMPRESS + ["--max-solutions", "-1"], {"ell": 15, "m": 3, "pairs": [L15_ROWS]},
                     ("max_solutions",), id="decompress-negative-max-solutions"),
        pytest.param(["search-orbit", "--ell", "15", "--gen", "1", "--ones", "7",
                      "--max-solutions", "-1"], [], ("max_solutions",),
                     id="search-orbit-negative-max-solutions"),
        pytest.param(["search-orbit", "--ell", "20", "--gen", "1", "--ones", "9"], [],
                     ("even length",), id="search-orbit-even-length"),
        pytest.param(["search-orbit", "--ell", "21", "--gen", "1", "--ones", "10", "--budget", "0"],
                     [], ("budget_nodes",), id="search-orbit-zero-budget"),
        pytest.param(PROFILE + ["--x", "999"],
                     {"ell": 21, "m": 3, "d": 7, "abs_value_counts": {"3": 3, "1": 11}},
                     ("x is defined only for d = 5",), id="profile-x-filter-d7"),
    ])
    def test_exits_two_without_traceback(self, tmp_path, capsys, argv, content, names):
        bad = tmp_path / "in"
        if content is None:
            bad.mkdir()
        else:
            bad.write_text(json.dumps(content))
        seq = tmp_path / "seq.txt"
        seq.write_text("1,1,-1\n")
        paths = {"in": bad, "out": tmp_path / "out", "seq": seq}
        assert main([a.format(**paths) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err
        assert all(name.format(**paths) in err for name in names)


class TestPipelineAndFiles:
    def test_candidates_then_decompress(self, tmp_path, capsys):
        cands = tmp_path / "c15.json"
        assert main(["candidates", "--ell", "15", "--out", str(cands)]) == 0
        payload = json.loads(cands.read_text())
        assert payload["ell"] == 15 and len(payload["pairs"]) == 2
        assert (tmp_path / "c15.json.manifest.json").exists()

        out = tmp_path / "found.txt"
        rc = main([
            "decompress", "--candidates", str(cands), "--out", str(out),
            "--budget", "100000",
        ])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2 * 153
        sidecar = json.loads((str(out) + ".json") and open(str(out) + ".json").read())
        assert sidecar["exhausted"] is True
        assert len(sidecar["pairs"]) == 153

    def test_pipeline_l15(self, tmp_path, capsys):
        out = tmp_path / "p15.txt"
        assert main(["pipeline", "--ell", "15", "--out", str(out)]) == 0
        report = capsys.readouterr().out
        assert "found 153 pair(s)" in report
        manifest = json.loads((tmp_path / "p15.txt.manifest.json").read_text())
        assert manifest["seed"] == 0 and manifest["result_digest"]

    def test_pipeline_manifest_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        assert main(["pipeline", "--ell", "15", "--seed", "3", "--out", str(out1)]) == 0
        assert main(["pipeline", "--ell", "15", "--seed", "3", "--out", str(out2)]) == 0
        m1 = json.loads((tmp_path / "r1.txt.manifest.json").read_text())
        m2 = json.loads((tmp_path / "r2.txt.manifest.json").read_text())
        assert m1["result_digest"] == m2["result_digest"]

    def test_pipeline_rejects_bad_length(self, capsys):
        assert main(["pipeline", "--ell", "21"]) == 2

    def test_candidates_ell_not_multiple_of_five_exits_two(self, tmp_path, capsys):
        out = tmp_path / "c14.json"
        assert main(["candidates", "--ell", "14", "--out", str(out)]) == 2
        assert "lengths not divisible by 5 need --profile" in capsys.readouterr().err
        assert not out.exists()

    def test_search_without_out_writes_pairs_to_stdout(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["search-orbit", "--ell", "7", "--gen", "1", "--ones", "3",
                     "--exhaustive"]) == 0
        *pairs, summary = capsys.readouterr().out.splitlines()
        assert len(pairs) == 2 * 36
        assert all(len(parse_sequence(line)) == 7 for line in pairs)
        assert summary.startswith(
            "found 36 pair(s), |x| values [], visited 20 selections, exhausted=True")
        assert list(tmp_path.iterdir()) == []

    def test_candidates_inconsistent_m(self, tmp_path):
        # m is fixed by the input: ℓ/5 for --ell, the profile's own for --profile
        out = tmp_path / "c.json"
        assert main(["candidates", "--ell", "15", "--m", "3", "--out", str(out)]) == 2
        assert main(["candidates", "--ell", "15", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["m"] == 3
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps(
            {"ell": 15, "m": 5, "d": 5, "abs_value_counts": {"1": 8, "3": 2}}
        ))
        assert main(["candidates", "--profile", str(profile), "--out", str(out)]) == 2

    def test_candidates_profile_matches_library(self, tmp_path):
        profile, out = tmp_path / "profile.json", tmp_path / "c.json"
        profile.write_text(json.dumps(L15_PROFILE))
        argv = [a.format(**{"in": profile, "out": out}) for a in PROFILE]
        assert main(argv) == 0
        want = candidates_general(GenerationProfile(
            ell=15, m=3, d=5, abs_value_counts={3: 2, 1: 8}, balanced=True, budget=2000))
        assert json.loads(out.read_text())["pairs"] == [
            {"a": list(p.a), "b": list(p.b), "x": p.x} for p in want]

    def test_candidates_x_filter(self, tmp_path):
        out = tmp_path / "cx.json"
        assert main(["candidates", "--ell", "15", "--x", "8", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert [p["x"] for p in payload["pairs"]] == [8]

    def test_candidates_l165_match_library(self, tmp_path):
        want = [{"a": list(c.a), "b": list(c.b), "x": c.x} for c in candidates_d5(33)]
        out = tmp_path / "c165.json"
        assert main(["candidates", "--ell", "165", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["pairs"] == want
        xs = [4, 60, 148]
        assert main(["candidates", "--ell", "165", "--out", str(out),
                     "--x", *map(str, xs)]) == 0
        assert json.loads(out.read_text())["pairs"] == [p for p in want if p["x"] in xs]

    def test_decompress_parallel_jobs_match_serial(self, tmp_path):
        cands = tmp_path / "c.json"
        assert main(["candidates", "--ell", "15", "--out", str(cands)]) == 0
        serial = tmp_path / "serial.txt"
        parallel = tmp_path / "parallel.txt"
        assert main(["decompress", "--candidates", str(cands), "--out", str(serial)]) == 0
        assert main([
            "decompress", "--candidates", str(cands), "--out", str(parallel),
            "--jobs", "4",
        ]) == 0
        assert serial.read_text() == parallel.read_text()

    def test_search_orbit_hinted(self, tmp_path, capsys):
        hints = tmp_path / "hints.json"
        hints.write_text(json.dumps([[12, 1321116338], [42, 1275934280]]))
        out = tmp_path / "orb.txt"
        rc = main([
            "search-orbit", "--ell", "85", "--gen", "69", "--ones", "12",
            "--twos", "15", "--budget", "10", "--hints", str(hints),
            "--out", str(out),
        ])
        assert rc == 0
        sidecar = json.loads(open(str(out) + ".json").read())
        assert sidecar["pairs"] and sidecar["pairs"][0]["x"] in (36, -36)

    def test_failing_output_pair_exits_one(self, tmp_path, capsys, monkeypatch):
        """Output pairs are verified once, when written: a non-pair from an
        engine exits 1 before the output file is written."""
        a = (1, 1, 1, 1, -1, -1, -1)
        fake = SearchResult(pairs=[(a, a)], codes=[None], nodes_visited=1, exhausted=True)
        monkeypatch.setattr(cli, "orbit_search", lambda ell, cfg: fake)
        out = tmp_path / "orb.txt"
        rc = main([
            "search-orbit", "--ell", "7", "--gen", "1", "--ones", "3", "--twos", "0",
            "--out", str(out),
        ])
        assert rc == 1
        assert "output pair 0 is not a Legendre pair (failing shift 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_failing_pair_index_counts_earlier_results(self, capsys):
        qr = (1, -1, -1, 1, -1, 1, 1)  # -1 on the squares mod 7: a pair with itself
        bad = (1, 1, 1, 1, -1, -1, -1)
        results = [SearchResult(pairs=[(qr, qr)], codes=[None]),
                   SearchResult(pairs=[(qr, qr), (bad, bad)], codes=[None, None])]
        assert cli._write_pairs(None, 0.0, {}, results, "nodes") == 1
        assert "output pair 2 is not a Legendre pair (failing shift 1)" in capsys.readouterr().err

    def test_search_orbit_bad_counts(self, capsys):
        rc = main([
            "search-orbit", "--ell", "85", "--gen", "69",
            "--ones", "12", "--twos", "14", "--budget", "5",
        ])
        assert rc == 2


# result_digest pins (sha256 of the output text), measured before the output
# paths of the search commands were merged into one; a redesign must keep them
CANDIDATES_L15_DIGEST = "d3120c7b8812f558644c531919fdc9845b5b2f54b0f588d92b0278d726e17832"
CANDIDATES_L15_FILE = "866fbce557daa243a5d82d99eccdc99a3b7bffb68080dede92ea9a760ea48b07"
PAIRS_L15_SEED0 = "00e2e5087b5eadbf3c6a02fc94977d38ec7ea2c42f8a050a53bf64c932d98be5"
PAIRS_L15_SEED3 = "dbf5c163d7d8c5c4b719ce1e8580dcd67dbe7eac40823c7f2adf4b28bbbf2b4d"
ORBIT_L85_HINTED = "36cb19736834b3ad699df7a0a35e82f673dcf0b45c7f635c8947a12d130572d3"


def result_digest(out):
    with open(str(out) + ".manifest.json", encoding="utf-8") as fh:
        return json.load(fh)["result_digest"]


class TestGoldenDigests:
    def test_candidates_then_decompress(self, tmp_path):
        cands = tmp_path / "c15.json"
        assert main(["candidates", "--ell", "15", "--out", str(cands)]) == 0
        assert result_digest(cands) == CANDIDATES_L15_DIGEST
        assert hashlib.sha256(cands.read_bytes()).hexdigest() == CANDIDATES_L15_FILE
        for jobs in ("1", "2"):
            out = tmp_path / f"found_j{jobs}.txt"
            assert main([
                "decompress", "--candidates", str(cands), "--out", str(out),
                "--budget", "100000", "--jobs", jobs,
            ]) == 0
            assert result_digest(out) == PAIRS_L15_SEED0

    @pytest.mark.parametrize(
        "seed, want", [("0", PAIRS_L15_SEED0), ("3", PAIRS_L15_SEED3)]
    )
    def test_pipeline(self, tmp_path, seed, want):
        out = tmp_path / "p15.txt"
        assert main(["pipeline", "--ell", "15", "--seed", seed, "--out", str(out)]) == 0
        assert result_digest(out) == want

    def test_search_orbit_hinted(self, tmp_path):
        hints = tmp_path / "hints.json"
        hints.write_text(json.dumps([[12, 1321116338], [42, 1275934280]]))
        out = tmp_path / "orb.txt"
        assert main([
            "search-orbit", "--ell", "85", "--gen", "69", "--ones", "12",
            "--twos", "15", "--budget", "10", "--hints", str(hints),
            "--out", str(out),
        ]) == 0
        assert result_digest(out) == ORBIT_L85_HINTED


# every subcommand's help and its actions as (option strings, dest, default,
# type, nargs, required, choices, help), argparse's own -h left out; recorded
# from build_parser() before the option groups were shared
PARSER_SPEC = {
    "verify": ("exact Legendre-pair test on two sequence files", {
        ((), "file_a", None, None, None, True, None, None),
        ((), "file_b", None, None, None, True, None, None),
    }),
    "compress": ("m-compress every sequence in a file", {
        ((), "file", None, None, None, True, None, None),
        (("-m",), "m", None, "int", None, True, None, None),
    }),
    "psd": ("power spectral density of sequences in a file", {
        ((), "file", None, None, None, True, None, None),
        (("-k",), "k", None, "int", None, False, None, None),
    }),
    "dioph": ("all-odd five-square solutions of 4m+1", {
        (("--json",), "json", False, None, 0, False, None, None),
        (("-m",), "m", None, "int", None, True, None, None),
    }),
    "candidates": ("generate candidate compressed pairs", {
        (("--budget",), "budget", None, "int", None, False, None, None),
        (("--ell",), "ell", None, "int", None, False, None, None),
        (("--out",), "out", None, None, None, True, None, None),
        (("--profile",), "profile", None, None, None, False, None, "JSON generation profile"),
        (("--seed",), "seed", 0, "int", None, False, None, None),
        (("--x",), "x", None, "int", "*", False, None, None),
    }),
    "decompress": ("search full pairs for candidate file", {
        (("--budget",), "budget", 10000000, "int", None, False, None, None),
        (("--candidates",), "candidates", None, None, None, True, None, None),
        (("--jobs",), "jobs", 1, "int", None, False, None, None),
        (("--max-solutions",), "max_solutions", 0, "int", None, False, None, None),
        (("--out",), "out", None, None, None, True, None, None),
        (("--seed",), "seed", 0, "int", None, False, None, None),
    }),
    "search-orbit": ("orbit-restricted whole-sequence search", {
        (("--budget",), "budget", 100000, "int", None, False, None, None),
        (("--ell",), "ell", None, "int", None, True, None, None),
        (("--exhaustive",), "exhaustive", False, None, 0, False, None, None),
        (("--gen",), "gen", None, "int", "+", True, None, None),
        (("--hints",), "hints", None, None, None, False, None,
         "JSON list of [ones_rank, twos_rank]"),
        (("--max-solutions",), "max_solutions", 0, "int", None, False, None, None),
        (("--ones",), "ones", None, "int", None, True, None, None),
        (("--out",), "out", None, None, None, False, None, None),
        (("--seed",), "seed", 0, "int", None, False, None, None),
        (("--twos",), "twos", 0, "int", None, False, None, None),
    }),
    "orbits": ("multiplier orbits on Z_ℓ \\ {0}", {
        (("--ell",), "ell", None, "int", None, True, None, None),
        (("--gen",), "gen", None, "int", "+", True, None, None),
    }),
    "rank": ("lexicographic rank of an ascending subset", {
        (("--set",), "set", None, None, None, True, None, None),
        (("-N",), "N", None, "int", None, True, None, None),
    }),
    "unrank": ("decode a lexicographic subset rank", {
        (("-N",), "N", None, "int", None, True, None, None),
        (("-k",), "k", None, "int", None, True, None, None),
        (("-r",), "r", None, "int", None, True, None, None),
    }),
    "decode-pair": ("decode LexRank codes to two sequences", {
        (("--codes",), "codes", None, None, None, True, None,
         'JSON [A, B], each {"<size>": [n, k, rank]}'),
        (("--ell",), "ell", None, "int", None, True, None, None),
        (("--gen",), "gen", None, "int", "+", True, None, None),
    }),
    "reproduce": ("recompute a bundled reference section", {
        ((), "section", None, None, None, True,
         ("table1-small", "dioph-all", "ell85-decode", "ell87-verify"), None),
    }),
    "pipeline": ("dioph → candidates → decompress end-to-end", {
        (("--budget",), "budget", 10000000, "int", None, False, None, None),
        (("--ell",), "ell", None, "int", None, True, None, None),
        (("--jobs",), "jobs", 1, "int", None, False, None, None),
        (("--max-solutions",), "max_solutions", 0, "int", None, False, None, None),
        (("--out",), "out", None, None, None, False, None, None),
        (("--seed",), "seed", 0, "int", None, False, None, None),
        (("--x",), "x", None, "int", "*", False, None, None),
    }),
}


def action_spec(parser):
    return {
        (tuple(a.option_strings), a.dest, a.default, getattr(a.type, "__name__", a.type),
         a.nargs, a.required, None if a.choices is None else tuple(a.choices), a.help)
        for a in parser._actions if a.dest != "help"
    }


class TestParserSpec:
    def test_every_subcommand_keeps_its_arguments(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        helps = {c.dest: c.help for c in sub._choices_actions}
        got = {name: (helps[name], action_spec(p)) for name, p in sub.choices.items()}
        assert got == PARSER_SPEC
        assert list(sub.choices) == list(PARSER_SPEC)


# exit code and sha256 of each section's full stdout, recorded before the
# sections were put in one registry
REPRODUCE_STDOUT = {
    "table1-small": "686e11cc4ff0f4d706fbf1dada2722198e2d65d5effde3ac1ab41f664042c361",
    "dioph-all": "d49e3d174d06bce6faf42e1941806b87e8e79fad21e2c303ce5a73f76f8a1362",
    "ell85-decode": "69cfb9a9b26ef0d45b14ec811240b3d85e5324a44979657d5e4b18bd03111e9e",
    "ell87-verify": "1e97aa020067ec376824cc3719901d4d257b4bcd97842b30a87a503207e1edb8",
}


class TestReproduce:
    @pytest.mark.parametrize("section", ["dioph-all", "ell87-verify", "ell85-decode"])
    def test_witness_sections_pass(self, section, capsys):
        assert main(["reproduce", section]) == 0

    def test_table1_small_reports_known_diff(self, capsys):
        # the bundled reference row for ℓ=5 states 2 as a coefficient of √5;
        # exhaustive search realizes |x| = 4 in the program's √5/2 unit, so
        # the known diff is reported as a unit conversion
        rc = main(["reproduce", "table1-small"])
        out = capsys.readouterr().out
        assert "ℓ=5 x-set: OK" in out
        assert "ℓ=15 x-set: OK" in out
        assert "reference: stated [2] as coefficient of √5 = x [4]" in out
        assert rc == 0 and "MISMATCH" not in out

    def test_table1_small_exits_one_on_a_non_pair(self, capsys, monkeypatch):
        bad = (1, 1, 1, -1, -1)  # PAF(1) = 1, so A = B fails shift 1
        monkeypatch.setattr(cli, "orbit_search",
                            lambda ell, cfg: SearchResult(pairs=[(bad, bad)], codes=[None]))
        assert main(["reproduce", "table1-small"]) == 1
        assert capsys.readouterr().out == (
            "ℓ=5: pair 0 is not a Legendre pair (failing shift 1)\n")

    @pytest.mark.parametrize("section", list(REPRODUCE_STDOUT))
    def test_stdout_digest_and_exit_code(self, section, capsys):
        assert main(["reproduce", section]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REPRODUCE_STDOUT[section]

    def test_mismatch_exits_one_and_prints_both_values(self, capsys, monkeypatch):
        data = copy.deepcopy(ell87())
        want = list(data["compressed_b"])
        data["compressed_b"][0] += 2
        monkeypatch.setattr(refdata, "ell87", lambda: data)
        assert main(["reproduce", "ell87-verify"]) == 1
        out = capsys.readouterr().out.splitlines()
        at = out.index("pair 1 B-compression: MISMATCH")
        assert out[at + 1:at + 3] == [f"  computed: {want}",
                                      f"  reference: {data['compressed_b']}"]
