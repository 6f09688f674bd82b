"""Golden analytic outputs: the sweep CSV and `ptcache construct` JSON, pinned by SHA-256.

The hashes were taken while `analysis` still kept its own copy of the
subfile-count formula; any change to a count, γ, a ratio or the output
format shows up here.
"""

import hashlib

import pytest

from ptcache.analysis import records_to_csv, sweep
from ptcache.cli import main

SWEEP_CSV_SHA256 = "0f8e014c432b350656eb5a2617e615464e7e766ff4ac9d0093d8f9d99282f86b"

CONSTRUCT = [
    # preset, K, t, sha256 of the emitted JSON
    ("theorem1", 7, 2, "6a8850f74002f5538344ccb984aaa0efe7b78cf1b3e57c9c17f49ab2a4cb0225"),
    ("theorem1", 17, 4, "3c9a1f4392947aeb3fe175077fc6e92a1a1ae259d5d13293d3a2b3e7e1553077"),
    ("odd_t3", 11, 3, "fa65a928bd19a42bd2e6f601f80fcfca9af2e0fe405b5437ac758f4e5d1400e5"),
    ("even_K", 12, 2, "b72ef786359edfbb51c831aa20f8518d27fbb2585844abb8c6dc71a01bce5bc9"),
    ("jcm", 13, 4, "c49b3fa7f7e220412a46a6f880521ae829902c645671b71f005c737e3122fb22"),
]


def test_sweep_csv_hash():
    text = records_to_csv(sweep([2, 4, 6, 8], q_max=400))
    assert text.count("\n") == 1 + 1580
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_CSV_SHA256


@pytest.mark.parametrize("preset,K,t,sha", CONSTRUCT)
def test_construct_hash(tmp_path, preset, K, t, sha):
    out = tmp_path / "blueprint.json"
    code = main(["construct", "--preset", preset, "--K", str(K), "--t", str(t),
                 "--output", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha
