"""Command-line contract: exit codes, file formats, manifests."""

import hashlib
import json

import pytest

from legendre_pairs.cli import main
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


class TestDecodePair:
    def test_published_codes(self, tmp_path, capsys):
        codes = {
            "a": {"1": {"k": 12, "rank": 12}, "2": {"k": 15, "rank": 1321116338}},
            "b": {"1": {"k": 12, "rank": 42}, "2": {"k": 15, "rank": 1275934280}},
        }
        f = tmp_path / "codes.json"
        f.write_text(json.dumps(codes))
        assert main(["decode-pair", "--ell", "85", "--gen", "69", "--codes", str(f)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        a = parse_sequence(lines[0])
        assert len(a) == 85 and sum(a) == 1


L15_ROWS = {"a": [-3, 1, 1, 1, 1], "b": [-3, 1, 1, 1, 1]}
CODES = ["decode-pair", "--ell", "85", "--gen", "69", "--codes", "{in}"]
HINTS = ["search-orbit", "--ell", "85", "--gen", "69", "--ones", "12", "--twos", "15",
         "--hints", "{in}"]
DECOMPRESS = ["decompress", "--candidates", "{in}", "--out", "{out}", "--budget", "1000"]


class TestBadInput:
    @pytest.mark.parametrize("argv, content, names", [
        pytest.param(CODES, {"a": [1, 2]}, ("{in}",), id="codes-side-list"),
        pytest.param(CODES, {"a": {"1": 5}}, ("{in}",), id="codes-spec-int"),
        pytest.param(CODES, {"a": {"1": {"k": "12", "rank": 12}}}, ("{in}",),
                     id="codes-k-string"),
        pytest.param(DECOMPRESS, [1, 2], ("{in}",), id="candidates-list"),
        pytest.param(DECOMPRESS, {"ell": 15, "m": 3, "pairs": [[[1], [1]]]}, ("{in}",),
                     id="candidate-pair-list"),
        # ℓ=15 rows declared as an ℓ=25 candidate: their joint PAF is -6, not -10
        pytest.param(DECOMPRESS, {"ell": 25, "m": 5, "pairs": [L15_ROWS]}, ("{in}",),
                     id="candidate-contradicts-m"),
        pytest.param(HINTS, [1, 2], ("{in}",), id="hints-flat"),
        pytest.param(HINTS, [[12, "x"]], ("{in}",), id="hints-rank-string"),
        pytest.param(HINTS, [[5000, 1]], ("rank 5000",), id="hints-rank-too-big"),
        pytest.param(HINTS, [[-1, 1]], ("rank -1",), id="hints-rank-negative"),
        pytest.param(["candidates", "--profile", "{in}", "--out", "{out}"], [1, 2], ("{in}",),
                     id="profile-list"),
        pytest.param(["verify", "{in}", "{seq}"], None, ("{in}",), id="verify-directory"),
        pytest.param(["candidates", "--out", "{out}"], [], ("--ell", "--profile"),
                     id="candidates-no-source"),
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
        err = capsys.readouterr().err
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

    def test_candidates_x_filter(self, tmp_path):
        out = tmp_path / "cx.json"
        assert main(["candidates", "--ell", "15", "--x", "8", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert [p["x"] for p in payload["pairs"]] == [8]

    def test_decompress_parallel_jobs_match_serial(self, tmp_path, monkeypatch):
        cands = tmp_path / "c.json"
        assert main(["candidates", "--ell", "15", "--out", str(cands)]) == 0
        serial = tmp_path / "serial.txt"
        parallel = tmp_path / "parallel.txt"
        assert main(["decompress", "--candidates", str(cands), "--out", str(serial)]) == 0
        monkeypatch.setenv("LP_THREADS", "2")
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
