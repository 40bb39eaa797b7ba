"""Byte-identity of the CLI: exit code and sha256 of every output stream.

Each case runs `main([...])` in process and compares the exit code and the
sha256 of stdout and stderr (for `--output`, of the written file) with the
values in GOLDEN.  Any change to the bytes the CLI prints fails here; a
deliberate change to the output format must update GOLDEN in the same change.
"""

import hashlib
import json

import pytest

from nearfactor.cli import main
from nearfactor.factors import build_modular_factorization

GOOD = "{good}"
BAD = "{bad}"
OUT = "{out}"

# name -> argv; GOOD, BAD and OUT are replaced by paths under tmp_path.
CASES = {
    "construct-factor-json": ["construct", "--n", "7", "--k", "2"],
    "construct-factor-dot": ["construct", "--n", "7", "--k", "2", "--format", "dot"],
    "construct-factor-text": ["construct", "--n", "7", "--k", "2", "--format", "text"],
    "construct-family-json": ["construct", "--n", "5", "--format", "json"],
    "construct-family-dot": ["construct", "--n", "5", "--format", "dot"],
    "construct-family-text": ["construct", "--n", "5", "--format", "text"],
    "construct-even-json": ["construct", "--n", "6", "--k", "3", "--even"],
    "construct-even-dot": ["construct", "--n", "6", "--k", "3", "--even", "--format", "dot"],
    "construct-even-text": ["construct", "--n", "6", "--k", "2", "--even", "--format", "text"],
    "construct-even-no-k": ["construct", "--n", "6", "--even"],
    "construct-output": ["construct", "--n", "9", "--output", OUT],
    "pairs-json": ["pairs", "--n", "15", "--format", "json"],
    "pairs-text": ["pairs", "--n", "15", "--format", "text"],
    "pairs-matrix": ["pairs", "--n", "9", "--matrix"],
    "pairs-witness-json": ["pairs", "--n", "9", "--witness", "--k", "0", "--l", "3"],
    "pairs-witness-dot": ["pairs", "--n", "9", "--witness", "--k", "0", "--l", "1", "--format", "dot"],
    "pairs-witness-text": ["pairs", "--n", "9", "--witness", "--k", "1", "--l", "4", "--format", "text"],
    "pairs-dot-no-witness": ["pairs", "--n", "9", "--format", "dot"],
    "pairs-even": ["pairs", "--n", "4"],
    "equiv-json": ["equiv", "--s", "3", "--t", "5"],
    "equiv-text": ["equiv", "--s", "3", "--t", "5", "--format", "text"],
    "equiv-not-coprime": ["equiv", "--s", "3", "--t", "9"],
    "oracle-json": ["oracle", "--n", "5"],
    "oracle-text": ["oracle", "--n", "5", "--format", "text"],
    "oracle-refused": ["oracle", "--n", "9"],
    "verify-json": ["verify", "--input", GOOD],
    "verify-text": ["verify", "--input", GOOD, "--format", "text"],
    "verify-invalid-text": ["verify", "--input", BAD, "--format", "text"],
}

EMPTY = hashlib.sha256(b"").hexdigest()

# name -> (exit code, sha256 of stdout or of the --output file, sha256 of stderr)
GOLDEN = {
    "construct-even-dot": (0, "421eb2c2d1166bd80025262ace20eb19aee547f3e77a9f4e4f6c0e5778480641", EMPTY),
    "construct-even-json": (0, "091e481d546437c528f34f457e3ded7acdcefedea878ac0103c9db17ec78bd7b", EMPTY),
    "construct-even-no-k": (2, EMPTY, "7a963b527cea8b6431b26f836baacce4c05becc7a096f5337c1698fce6dc7c25"),
    "construct-even-text": (0, "da78ad1027bca704b10728625b12fb6c093f2ebedb8517bbcf55eb2a7bc1093c", EMPTY),
    "construct-factor-dot": (0, "0a2bc2078694400c3adaaaeb4e5a39bfc8b7f232516650296f50c7f4e71fcd80", EMPTY),
    "construct-factor-json": (0, "8d9050026706fb9859aa20bf17977f88f1f63d1aeada7b509f24f500233368ee", EMPTY),
    "construct-factor-text": (0, "7169157485117605de6501456843ebfe3d3f5efaaf3fd50e18500473b1f99be8", EMPTY),
    "construct-family-dot": (0, "98d1a059628a1cfe2506c355a2468f0ce3d403c103a61674cf8d1f5469357290", EMPTY),
    "construct-family-json": (0, "c69b7129319abb2100b04c776f58e096f04d69e00a86f0f444f1830917267e3b", EMPTY),
    "construct-family-text": (0, "466001a8f04f0ca91f02d71be7fe0708a883091bc0e4fd3abc1ef4ad5008f9e4", EMPTY),
    "construct-output": (0, "948d087cf721fadcc8c1e1750191c9a0b8898ea117d53539ed610bd2a7cf987a", EMPTY),
    "equiv-json": (0, "3b406f373203f73508520d26600b3ac1dc53160effc8ee9c98a95fb1b0c72767", EMPTY),
    "equiv-not-coprime": (2, EMPTY, "f61a7970ccb8aae38862bf187c40f27017b78379a47eac1cd251d34388dfa64e"),
    "equiv-text": (0, "bf450a99bd829c158ff5decddbe3ac3a6b907934a09e922fe870b4cc647672af", EMPTY),
    "oracle-json": (0, "b4d743ab980d5dabcdc8ac91f2e6a441d282854273c66da3135a788f9bcb164b", EMPTY),
    "oracle-refused": (3, EMPTY, "edb62b538d432e14e7eb0f7fece1e239cfdb156f6ac2135d33e639fbaa8cb63c"),
    "oracle-text": (0, "6f9ad9d8e9c68a0dbba68add4ea60d7b3267d208a56462e4f27b2f9e54075bc0", EMPTY),
    "pairs-dot-no-witness": (2, EMPTY, "5bae319861935a413decdbd5f4119549b5cc6aa3ea70615c766afd7f28bb4868"),
    "pairs-even": (2, EMPTY, "ccc904e918f52cc636c99321911841ad740ea5ab6caa5a464b0ff54d8c0f1f63"),
    "pairs-json": (0, "7066d5fc12ead4461b583a1072824c4404c6911ab773abe5e540f97f8ee5ae21", EMPTY),
    "pairs-matrix": (0, "ee6f46b2f323cdae9825fc5184e9ebf96058863be6e426c2a487368429cb9001", EMPTY),
    "pairs-text": (0, "b27bb75aef6ea776da52396faeb9f06000796b79635e9e6610cf84cde0185b1a", EMPTY),
    "pairs-witness-dot": (0, "563bdc32a0d8aef48e747be56460f5bfa2b3fa6492061336976a9e937e366b35", EMPTY),
    "pairs-witness-json": (0, "917cc074ed8706d235de65579ca39e79d29e3a158c8630ddebfd414fd17b3a0d", EMPTY),
    "pairs-witness-text": (0, "bf3138016a1c03f0bafefaae5f20aabb96c00c6072503df38956e2c68922d7ae", EMPTY),
    "verify-invalid-text": (2, "87771b6f33ff5a5ec78431c19793b59d15eae45548aac9f186816f6fd65faf0b", EMPTY),
    "verify-json": (0, "cffaf9f41c5f3dd17bacf32c0b9023113a424f6b84e1d62e805d82fb88e0662d", EMPTY),
    "verify-text": (0, "3ba327ca933cac06c9af856d45d49e2cfe9b7be6c95cee44db495f17f566df73", EMPTY),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture
def paths(tmp_path):
    good = build_modular_factorization(7).to_dict()
    bad = build_modular_factorization(7).to_dict()
    bad["factors"][1]["edges"][0] = bad["factors"][2]["edges"][0]
    (tmp_path / "good.json").write_text(json.dumps(good), encoding="utf-8")
    (tmp_path / "bad.json").write_text(json.dumps(bad), encoding="utf-8")
    return {
        GOOD: str(tmp_path / "good.json"),
        BAD: str(tmp_path / "bad.json"),
        OUT: str(tmp_path / "out.txt"),
    }


def run_case(name, paths, capsys):
    argv = [paths.get(arg, arg) for arg in CASES[name]]
    code = main(argv)
    captured = capsys.readouterr()
    out = captured.out.encode("utf-8")
    if OUT in CASES[name]:
        assert out == b""
        with open(paths[OUT], "rb") as handle:
            out = handle.read()
    return code, hashlib.sha256(out).hexdigest(), _sha(captured.err)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(name, paths, capsys):
    assert run_case(name, paths, capsys) == GOLDEN[name]


def test_every_format_of_every_subcommand_is_pinned():
    formats = {}
    for argv in CASES.values():
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
        formats.setdefault(argv[0], set()).add(fmt)
    assert formats == {
        "construct": {"json", "dot", "text"},
        "pairs": {"json", "dot", "text"},
        "equiv": {"json", "text"},
        "oracle": {"json", "text"},
        "verify": {"json", "text"},
    }
    assert {code for code, _, _ in GOLDEN.values()} == {0, 2, 3}
