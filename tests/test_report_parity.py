"""Golden outputs of every `gaitpair eval` analysis on one seeded corpus.

The corpus is written by `gaitpair synth` (4 subjects x 260 cycles, enough
windows for the randomness suite's 100 keys) and read back from CSV, so the
whole path from the files on disk to each report is covered.  Each case pins
the SHA-256 of every file one analysis writes.  A change to the front end,
the fingerprint layer, an analysis or a report writer that moves a single
byte of any report shows here, file by file.
"""

from __future__ import annotations

import hashlib

import pytest

from gaitpair import cli

# analysis -> file name -> sha256 of its bytes
GOLDEN = {
    "coherence": {
        "coherence.json":
            "3f4cd88eb32e4fafc56d0d7f570930a6782875bc764cf8c35cb75377ca0cd73c",
    },
    "discriminability": {
        "discriminability.json":
            "3e7ed92e751326ff5914625dd5a8a7aa142b246bbfb3babf5d390debb99100bb",
        "discriminability_inter.csv":
            "e6d3b4dfd6591fd12c8400a062917c0dcc174d277a5814fcaaf3d61b7399996b",
        "discriminability_intra.csv":
            "4357f60a86d021b7bee4a0ee0db25bd0ed7feb92952b56bcc5b0f1f40c324e8d",
    },
    "positions": {
        "positions.json":
            "cd3b12e8a4540a1a3f846aaf3d37837793dc7f43ee847e6f859b5163f7a09c00",
    },
    "randomness": {
        "randomness.json":
            "3d79038ae810ddcb657a70ce72cf8401dff78e4fcc1cf786127b2f1bd4d83c0e",
    },
    "reliability": {
        "reliability.json":
            "acd5c5ab87a547f719b11fd2868862d2406c21962b201a13cbabdee9885d0982",
        "reliability_M128.csv":
            "443e9b30ff5c0f06281600793f0f13a926b4b243464dd96f5e94b04e42c3c89e",
        "reliability_M144.csv":
            "404567b79f6579354c40c07b4320a78008e73ea96309ec834eaffa8b51300013",
        "reliability_M160.csv":
            "795178d2e1ebd5b8db754bab063694a3c61be4f8a2a4dbb7696839371b6770a5",
        "reliability_M176.csv":
            "568aa4aa871bf89a2de95930b092e81b43ec3404f18f1a96c2e84fe6f3304582",
        "reliability_M192.csv":
            "4357f60a86d021b7bee4a0ee0db25bd0ed7feb92952b56bcc5b0f1f40c324e8d",
        "reliability_M256.csv":
            "ffc5874530a3d92c86bf2ac21934cd7ae274cc815947eae5b4677dd54243461a",
    },
    "security": {
        "security.json":
            "57bc70ece3c8cbc888300e3e32585bc5edb39f1f1be2cc0f9fe8958ccad2c34e",
    },
}


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("report-parity") / "corpus"
    assert cli.main(["synth", str(path), "--subjects", "4", "--cycles", "260",
                     "--seed", "7"]) == 0
    return path


def _report_digests(corpus_dir, out_dir, analysis: str) -> dict[str, str]:
    assert cli.main(["eval", str(corpus_dir), "--analysis", analysis,
                     "--out", str(out_dir)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("analysis", sorted(GOLDEN))
def test_reports_match_golden(analysis, corpus_dir, tmp_path):
    assert _report_digests(corpus_dir, tmp_path, analysis) == GOLDEN[analysis]
