"""Golden hashes: `oocgen construct --s 1` output is byte-identical.

The sha256 of each of the four artefacts was recorded from the original
shift-and-intersect implementation; any refactor of the sweeps must
reproduce them exactly.
"""

import hashlib
import json

import pytest

from conftest import canonical_sidon_f64, stack_calls
from oocgen import (CyclicSubspaceCode, build_coset_family, build_ooc,
                    code_from_dict, construct_g, ooc, s_of_w, subspaces)
from oocgen.cli import main
from oocgen.field import field_for_prime_power
from oocgen.subspaces import _orbit_proof

ARTEFACTS = ("ooc", "oos.json", "code.json", "report.json")

GOLDEN = {
    (3, 2): [
        "6cd5a4602b0eef1e1c10c9c05c1f8412aea54d5a7f158d185be159e96c7f73cb",
        "3be25786cdef09f10faee39c7fb5d5a919e69b37b91ac0ee2efe5cb22bb7f8cb",
        "a9941a6c946ad83bf71a33f12d541c31b594219cba763acae782ee67b9dc849f",
        "e21718dc1b94855a3b539a8579d472ab5d95aaf95290b81b6ba0ec0bc2fc467d",
    ],
    (5, 2): [
        "fbc89626cdb62e98a4d0d9098a684b3416a7e0582706917b4375160fe45243e5",
        "bc249a0dafd7ee314da9cb4f135a29593ec8900a6b9fe504f1673546541a8518",
        "0432fdde956a33d82f0d48996493bd85817978e4bbe0bab791915a9feef60d1c",
        "fb4617e960f64e8bf35bea256617b171a9e8ffe11aeb9719dd5748f572c25f9e",
    ],
    (7, 2): [
        "397ed1007d9777d1988d7ec4d6ea852a63c12dc3f1bf5d6efd6c876e5235cfe1",
        "da1079e4ddbc02e26a4f7d29f68f0dc4ac625426422cd0863f9c311f729a3c00",
        "fd7c051ab4fdbb9ebd2fe547443c0dfa45997df7f8a0468fce9b1d381728b26e",
        "12d6597afef103d0c9f05c9ef7f179d957f3cd40a6763320c5914eae72bf99f7",
    ],
    (3, 3): [
        "05e036704dfa53259f74ff3aec384507d45359c999d3c6b3226a9676cc370bfc",
        "4a76343fc96242aa72ecbcbbaf67f260bb757953ec8d029a3af540f8e0c53406",
        "7092ffc2cfcdab626427a260555b050902f0a2169d5c87dfeb7e3651c8ecbf30",
        "bc842d0db86a4aa94e1b5c994ea634ec354838cdb4a380bdb3f3ff43bfb94bf5",
    ],
    (9, 2): [
        "c3cce8f11beeb745ce9eeae56ba909b28e5f098eca4f11941cec360fd4d8cf9c",
        "0e8733109c608984f6242879841ab3d442d26fa99d9157382d59e585eaba92cc",
        "196cf806fa6dc0ba1bb26a81bd26230a472760377b83d05b7347b473010f8621",
        "12dcce2958ed895f504845b0d4f3846d71381a59795ca6b38e543b5fa7ea5442",
    ],
    # w = 81: twenty groups of four rows and one left over, in 7 planes;
    # recorded from the ripple-carry kernel
    (3, 4): [
        "6beced41e4006e2bce3acecf5f48715d69426d4efdce1176db961802b0df6916",
        "76a75f267e985035a197015e53f029ab2b61b88b97b2a6f8eb31fdefe7bebecf",
        "1a6777b5537b8012aa04f67971dbca65517d7467736c4d9a49d1e08d9aa42893",
        "3dfa8b4eb633ed5757189d81239cf7f871f14325154965710cfedede1217a6ca",
    ],
    # non-prime q, where each class of log indices modulo N/(q - 1) holds
    # q - 1 = 3 or 7 elements; recorded before the coset scan marked
    # F_q^*-classes in place of every F_q^*-shift
    (4, 3): [
        "4a73e7fbb880a1dd29f71a56de0aaafcf47bce02291fbe370031dc9bfa482edf",
        "efada7fdf4f8231c2958b7691093c86dc4b9064d4fa352e27376ba010073ed6d",
        "1b5975f278cabde331c654354232d3ef831bb10c4f719276fd19b5a027233cb6",
        "108b1e3079447b2ffd9d6940061534c5a61017b07c48c55e4503f31c310eae03",
    ],
    (8, 2): [
        "142e4bb95bc0c6eeb02594aaf2269c9c89f82ca30c7fd7225a33fc48d98b9ab5",
        "8ad1c9ed7c76ef718505796c990f74506ec9ad39079e838127c4961795914a9d",
        "5dbc297815eb8c7ae8256ec1da1b0f627132167c3cc7ec4638fc395857abd7f0",
        "671a64e7f587684c292462a73cad57274d45a5657b8656e673c557fc64988d30",
    ],
    # larger sizes, recorded from the exhaustive word sweep: about 5, 0.6,
    # 18 and 28 s of sweep each before build_ooc proved lambda from the
    # orbits
    (13, 2): [
        "e07282c09be8c9bf9a339175efbd13dbb408d6991d6d03cf6fbf1123d3ffd71a",
        "7c1ad488d590e89b561747e98d14a1af3af23db04546165bf2e4952e2c5f4f9d",
        "25ae8ec9882b06bebed28c862d2d38631f4ab3b70a0f075d65d0baf434441f6a",
        "48081cfede223cc5ca0b3d10f4560a197e0c9f64e2cf53091f5c0a98dd4cfe8c",
    ],
    (5, 3): [
        "e881045575de10cc9b7443e360d54494472e472293cceaf4ed5eba752d9b5935",
        "d032166affba077f15cc995fd337f20aadaaaaaf671ea157379828739c249ef1",
        "52baff0eda19445bbbbdd89768ce210bacb015a126de3bfa330c2c2ed9f48ed9",
        "368dfd3e326b17aaf33e31415f4775ef9ee358082381a3fb8de31c1f5090a90d",
    ],
    (4, 4): [
        "ee03e791535ed3c2bd11f142998af02d82a1dc743b3eddbd3d449de8101886bf",
        "b385f8ddf087aa20812571a028daec79533f914d10c1b83bcdcbbd6550ccbfba",
        "d25d91a3333933a4dd8829dcb3b6f9b4ffa0aab0536867a9916ca0201a795d1e",
        "44ce0444933015b70bb42d3d9e8e9ade0b921142f5dd921d153b23b3eaf9bd38",
    ],
    (3, 5): [
        "d1241c5b28cea655ff7212a8d15b68b2a8d30f9de082bc6fbd14c6ff6c02b2ab",
        "da359160cfef3cc5c2856a0bc58ca03297ee9025360f22d3eb9c482253621b03",
        "812222929521324c54a3c24466c38bc3b62e84c7abc9e0fa509a99a16f5c0dba",
        "fc4ec9445eeaaad1409186ff24efd2df92859c82920dd1ab59d2f16f24f8a4d2",
    ],
}


def _hashes(prefix):
    return [hashlib.sha256(prefix.with_name(f"{prefix.name}.{e}")
                           .read_bytes()).hexdigest() for e in ARTEFACTS]


@pytest.mark.parametrize("q,k", list(GOLDEN), ids=lambda v: str(v))
def test_construct_artefacts_match_golden_hashes(tmp_path, q, k):
    out = tmp_path / "out"
    assert main(["construct", "--q", str(q), "--k", str(k), "--s", "1",
                 "--out", str(out)]) == 0
    assert _hashes(out) == GOLDEN[(q, k)]


@pytest.mark.parametrize("q,k", list(GOLDEN), ids=lambda v: str(v))
def test_construct_from_golden_code_file_matches_golden_hashes(tmp_path, q,
                                                                k):
    # the code file's bases are read back through subspace_from_dict and
    # span, and must rebuild the same four artefacts
    out, again = tmp_path / "out", tmp_path / "again"
    assert main(["construct", "--q", str(q), "--k", str(k), "--s", "1",
                 "--out", str(out)]) == 0
    assert main(["construct", "--code", f"{out}.code.json",
                 "--out", str(again)]) == 0
    assert _hashes(again) == GOLDEN[(q, k)]


# q = 2, where N/(q - 1) = N and every F_q^*-class is one log index, by
# `construct --code`: the canonical F_64 Sidon code, (63,8,2) size 7, and a
# two-orbit F_32 code, (31,4,2) size 14; recorded before Subspace kept its
# span as F_q^*-classes
CODE_FILES = {
    "sidon_f64": {"field": {"p": 2, "e": 6, "modulus": [1, 0, 0, 0, 0, 1, 1],
                            "omega_index": 2},
                  "orbits": [{"ground_q": 2, "basis": [0, 1, 3]}]},
    "f32_two_orbit": {"field": {"p": 2, "e": 5,
                                "modulus": [1, 0, 0, 1, 0, 1],
                                "omega_index": 2},
                      "orbits": [{"ground_q": 2, "basis": [0, 1]},
                                 {"ground_q": 2, "basis": [0, 2]}]},
}

GOLDEN_CODE_FILES = {
    "sidon_f64": [
        "243ca2a00ad6ad05d1e3921879aa05d0b0f59d3be357af39fb11993e10f794ae",
        "957293d42df56b7c8ce659b3b2b5fa233ac5f65b3897ec014960308eb39d445c",
        "868c3e98dd1ee02c3d350d0377f1cb38f88e1a9fb1f9f04ac3761e91f9c81f73",
        "2d3346511a619989797d85d4e8bacd14b88c850d29f6442644af784cded933e4",
    ],
    "f32_two_orbit": [
        "163d22cc2d7a2ef6e8f7606e52c4d8e5b0fab9e3f74529f164ae21b6fa3c9456",
        "386c77fd28bb4b1d8299d7896870d3892186da8e68d6cc8e2c762f749ec13f23",
        "476a3edb83cb2011a9730f35a21e34b0c4a92f3e6ae1178c53d45a4abd60b7ee",
        "a4cae20a53a97a7d299c6e15ccbe3624b289f9efa12e8a29bf7b28d3379adbd1",
    ],
}


# two code files whose words 0 and 1 do not both reach lambda, so build_ooc
# sweeps every word: the F_64 code over F_2, (63,4,2) size 30, where the
# pair (0, 1) reaches 1, and the F_729 code over F_3, (728,9,3) size 80,
# where word 0's autocorrelation reaches 1; each field is its
# field_for_prime_power(p, e).descriptor(), and the hashes were recorded
# before the orbit proof tested membership in U by class
FALLBACK_CODE_FILES = {
    "f64_fallback": {"field": {"p": 2, "e": 6,
                               "modulus": [1, 0, 0, 0, 0, 1, 1],
                               "omega_index": 2},
                     "orbits": [{"ground_q": 2, "basis": [8, 36]},
                                {"ground_q": 2, "basis": [54, 51]}]},
    "f729_fallback": {"field": {"p": 3, "e": 6,
                                "modulus": [1, 0, 0, 0, 1, 1, 1],
                                "omega_index": 4},
                      "orbits": [{"ground_q": 3, "basis": [137, 582]},
                                 {"ground_q": 3, "basis": [64, 261]}]},
}

GOLDEN_FALLBACK_CODE_FILES = {
    "f64_fallback": [
        "9eefad8465e0f0fface34c2001851523f5c243f5981c1115dd3da70e9bc20894",
        "9f44740b3608302b926b996a622e27eb6c1e2625f727b5871ed5d3971aff9566",
        "4d3fe062ba16ab08ae8a6d6691e485c2baa5d6cc3ca1fadbe8ca5b14ee75311c",
        "6f8b601ca459e747db379d498320245140e1fa14e0691ec253b9ccf6df52e6c8",
    ],
    "f729_fallback": [
        "fcf2af8fb359724524dd653963fe965cc348ae82242a2f397720c162e5c99856",
        "e282c488ed5a360af9d9f6cabe2157daa73306bee946400df95f4ced656d3f29",
        "a4041b9c80ad1e98997dcf5483c1ad7276879bac05c17bbdde5d65c70f001007",
        "7b22c22ac99e48cf0ee260e958bc5d1712711ccb4d05873b6666ef5385f2a126",
    ],
}


# build_ooc takes its report from words 0 and 1 only where the orbit proof
# holds, so every golden code must take that route

@pytest.mark.parametrize("q,k", list(GOLDEN), ids=lambda v: str(v))
def test_orbit_proof_holds_at_every_golden_code(q, k):
    code = construct_g(q, k, 1)
    assert _orbit_proof(code, build_coset_family(code).cosets)


@pytest.mark.parametrize("name", list(CODE_FILES))
def test_orbit_proof_holds_at_the_q2_code_files(name):
    code = code_from_dict(CODE_FILES[name])
    assert _orbit_proof(code, build_coset_family(code).cosets)


@pytest.mark.parametrize("name,m", [("f64_fallback", 30),
                                    ("f729_fallback", 80)])
def test_fallback_code_files_sweep_every_word(monkeypatch, name, m):
    # the proof holds, but words 0 and 1 do not reach lambda in both
    # maxima, so build_ooc sweeps all m words without running the proof
    d = FALLBACK_CODE_FILES[name]
    code = code_from_dict(d)
    f = code.field
    assert field_for_prime_power(f.p, f.e).descriptor() == d["field"]
    assert _orbit_proof(code, build_coset_family(code).cosets)

    def no_proof(code, cosets):
        raise AssertionError("the orbit proof ran")

    monkeypatch.setattr(subspaces, "_orbit_proof", no_proof)
    calls = stack_calls(monkeypatch, ooc)
    _, _, report = build_ooc(code)
    assert calls == [2, m] and report.passed


def test_sidon_code_file_is_the_canonical_sidon_f64():
    U = canonical_sidon_f64()
    code = CyclicSubspaceCode(U.field, 2, (U,))
    assert code.to_dict() == CODE_FILES["sidon_f64"]


@pytest.mark.parametrize("name", list(GOLDEN_CODE_FILES))
def test_construct_from_q2_code_file_matches_golden_hashes(tmp_path, name):
    path, out = tmp_path / "code.json", tmp_path / "out"
    path.write_text(json.dumps(CODE_FILES[name]))
    assert main(["construct", "--code", str(path), "--out", str(out)]) == 0
    assert _hashes(out) == GOLDEN_CODE_FILES[name]


@pytest.mark.parametrize("name", list(GOLDEN_FALLBACK_CODE_FILES))
def test_construct_from_fallback_code_file_matches_golden_hashes(tmp_path,
                                                                  name):
    path, out = tmp_path / "code.json", tmp_path / "out"
    path.write_text(json.dumps(FALLBACK_CODE_FILES[name]))
    assert main(["construct", "--code", str(path), "--out", str(out)]) == 0
    assert _hashes(out) == GOLDEN_FALLBACK_CODE_FILES[name]


# sha256 of json.dumps([X.sorted() for X in sets]) for the S(W) sets of
# construct_g(3, 5, 1)'s coset family: the design workload's members hash
DESIGN_Q3K5_MEMBERS = (
    "daa18a246a967cb31a746a8d76074d048b22816452990d3e7a59248a7d657c22")


def test_design_q3k5_members_hash():
    code = construct_g(3, 5, 1)
    sets = [s_of_w(code.field, W) for W in build_coset_family(code).cosets]
    members = json.dumps([X.sorted() for X in sets]).encode()
    assert hashlib.sha256(members).hexdigest() == DESIGN_Q3K5_MEMBERS
