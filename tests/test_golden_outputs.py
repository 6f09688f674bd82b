"""Golden analytic outputs: the sweep CSV (at t <= 8 and at t = 10, 12, 16) and
JSON, `ptcache construct` JSON and `ptcache verify` JSON, pinned by SHA-256.

The sweep CSV and construct hashes were taken while `analysis` still kept its
own copy of the subfile-count formula, and the verify hashes but the
`--claims` one while `verify` still kept its own copies of F_PT, F_JCM and
α·F.  Any change to a count, γ, a ratio, a witness or the output format
shows up here.
"""

import hashlib

import pytest

from ptcache.analysis import records_to_csv, sweep
from ptcache.cli import main

SWEEP_CSV_SHA256 = "0f8e014c432b350656eb5a2617e615464e7e766ff4ac9d0093d8f9d99282f86b"
# records_to_csv(sweep([10, 12, 16], q_max=200)), taken while every point still
# read its own count_vectors: past t = 8, where the difference table is deeper
SWEEP_WIDE_T_CSV_SHA256 = "d9d3d6f8d85f44101fa0d77515023dfd40b33bb163febcea97bad5d60f8aeae1"
# `ptcache sweep --t 2,4,6,8 --q-max 9`, taken while F_JCM was still read per
# point: t = 6 has 3 points and t = 8 one, fewer than their t+1 seeds
SWEEP_SHORT_CSV_SHA256 = "e437db4fe0db69bb3a823cadf40f4fd83a6aae4da10e5d10ab8aea9c26be6245"
# `ptcache sweep --t 2,4 --q-max 60 --format json`, taken while each JSON
# record was still built by restating the column names
SWEEP_JSON_SHA256 = "a0b8e169e50ec6123e99df74b0b54049ba99ee4223b0fa8a0224f0f7d3521cf0"

CONSTRUCT = [
    # preset, K, t, sha256 of the emitted JSON
    ("theorem1", 7, 2, "6a8850f74002f5538344ccb984aaa0efe7b78cf1b3e57c9c17f49ab2a4cb0225"),
    ("theorem1", 17, 4, "3c9a1f4392947aeb3fe175077fc6e92a1a1ae259d5d13293d3a2b3e7e1553077"),
    ("odd_t3", 11, 3, "fa65a928bd19a42bd2e6f601f80fcfca9af2e0fe405b5437ac758f4e5d1400e5"),
    ("even_K", 12, 2, "b72ef786359edfbb51c831aa20f8518d27fbb2585844abb8c6dc71a01bce5bc9"),
    ("jcm", 13, 4, "c49b3fa7f7e220412a46a6f880521ae829902c645671b71f005c737e3122fb22"),
]

VERIFY = [
    # ptcache verify flags, sha256 of the emitted JSON
    ("--lemma1 --t 2 --q-range 3:20", "c9a3059b1c91e09a8e93df34924894711cc36fc10711516f68f52356aa4890fb"),
    ("--lemma3 --K 13 --t 2", "6125a93cf9bf8bc1e8ca4c98d44f20ff050fb01b372ca7f0ea25142735148b24"),
    ("--lemma3 --K 17 --t 4", "d487a4f249c0121ef67443b74949e6ced27dc9699ef835201ef67125a1e6f1b7"),
    ("--lemma3 --K 27 --t 8", "e606db7f9add36a0aabd167f51ada2772c027c92706eb979a9e136556e404dcd"),
    ("--remark3 --q-range 3:29", "c6c9bbb836d5d1b609c3af58c07844f21f21d52c159d81834b9292f432541601"),
    ("--odd-t --r-range 1:6", "52edc5324678702403c0bd79fc4fd4a28ffd18c7011778345e3750c555716675"),
    # claim 4's witness lists the k its implication compared ([11] at each q)
    ("--claims --t 24 --q-range 25:27", "41c26a4613207049a39953ee2900f5f445c83cc4c99f4dcf944e3ca525f1a9e8"),
    # a grid over the analytic_sweep workload's range, taken while count_vectors
    # still called binom 6(t+1) times and ratio_expectation summed one Fraction per j
    ("--claims --t 2 --q-range 2:41", "1a6b7ffa974d5ccdbfa1590736a3b6e5dba758ea066c44c565863f5ed0859181"),
    ("--claims --t 4 --q-range 4:44", "14571fdec3dbea03b311b9a76bf1029beb298b2dd3072fd30e0369cf4a8094fb"),
    ("--claims --t 6 --q-range 6:46", "590c1ccc8a266448927ef30d2db182a8d8bcc0a3dc757bb3d0fa320796f2d3a3"),
    ("--claims --t 8 --q-range 8:48", "d655697830e12108b48a948eca670434002d9d09d23ef48c7a634f7897154652"),
    ("--lemma1 --t 4 --q-range 5:104", "e17a127ad7cbd94671fcd0e9843584712e2a670d55dc3dfae114ce86bfa5477d"),
    ("--lemma1 --t 6 --q-range 7:106", "79d5e53c75d7b00f1e718c4713b9d97f17b76d2dc2c38f495a2a3091dc7ab1cd"),
    ("--lemma1 --t 8 --q-range 9:108", "0efe264b62972171cfbda670a35575109fb7335c2bf6367734303ab6775032f5"),
    ("--lemma1 --t 10 --q-range 11:70", "97a50b634f9cda7c31486dc91a9f44b5623900bc0ae7b9c95cdab234a73c138a"),
    ("--remark3 --q-range 30:60", "593cd1d019d6af8f345e85bce84db10c45f586d44dc0d6df3fffa18817fa305d"),
]


def test_sweep_csv_hash():
    text = records_to_csv(sweep([2, 4, 6, 8], q_max=400))
    assert text.count("\n") == 1 + 1580
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_CSV_SHA256


def test_sweep_csv_hash_past_t8():
    text = records_to_csv(sweep([10, 12, 16], q_max=200))
    assert text.count("\n") == 1 + 562
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_WIDE_T_CSV_SHA256


def test_sweep_csv_hash_shorter_than_the_seeds(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--t", "2,4,6,8", "--q-max", "9", "--output", str(out)]) == 0
    text = out.read_text()
    assert text.count("\n") == 1 + 7 + 5 + 3 + 1
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_SHORT_CSV_SHA256


def test_sweep_json_hash(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--t", "2,4", "--q-max", "60", "--format", "json",
                 "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_JSON_SHA256


@pytest.mark.parametrize("preset,K,t,sha", CONSTRUCT)
def test_construct_hash(tmp_path, preset, K, t, sha):
    out = tmp_path / "blueprint.json"
    code = main(["construct", "--preset", preset, "--K", str(K), "--t", str(t),
                 "--output", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


@pytest.mark.parametrize("flags,sha", VERIFY, ids=[f for f, _ in VERIFY])
def test_verify_hash(tmp_path, flags, sha):
    out = tmp_path / "checks.json"
    assert main(["verify", *flags.split(), "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha
