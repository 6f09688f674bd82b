"""Golden transcripts: `ptcache simulate --transcript` output is pinned by SHA-256.

The hashes were taken before the delivery, decode and transcript loops were
rewritten; any change to message order, index assignment, payload bytes or
line formatting shows up here.
"""

import hashlib

import pytest

from ptcache.cli import main

GOLDEN = [
    # preset, K, t, seed, demands, sha256, lines
    ("theorem1", 7, 2, 5, "uniform",
     "6ffac7423789ed33806515e4b7ed7691c4ef5762741c10de7596f31e5b5bea1d", 90),
    ("theorem1", 11, 4, 0, "distinct",
     "aa5e64959f12a99c6497cfa25e41bd4daf10318f8a5d6527caf128b319dac049", 2065),
    ("theorem1", 13, 2, 1, "distinct",
     "1837c3d5ea105a02114978787dedfa253a6249d03e03951b2059efd7ceffe309", 693),
    ("jcm", 7, 3, 2, "distinct",
     "5ad77b51583bdafc0160666b6c0800178e6f214983d1d63c37fc0027b1f92220", 140),
    ("odd_t3", 9, 3, 3, "distinct",
     "3392780f93bfc04d0372518553fe223580e1891f5c99d329d30331f12ab47baa", 420),
    ("even_K", 12, 2, 4, "uniform",
     "ad505718ee3ce4659b1946172577b47a8e399ebb51b87af5b116fe26c70527ed", 560),
    # The benchmark's many_messages point.
    ("theorem1", 17, 4, 0, "distinct",
     "5fbd638f202f3611fb7ec729e4b6c25365ad174d06aac4f68d35e532bf67a6c5", 26754),
]


def simulate_argv(preset, K, t, seed, demands, transcript, output):
    return [
        "simulate", "--preset", preset, "--K", str(K), "--t", str(t),
        "--seed", str(seed), "--demands", demands,
        "--transcript", str(transcript), "--output", str(output),
    ]


@pytest.mark.parametrize("preset,K,t,seed,demands,sha,lines", GOLDEN)
def test_transcript_hash(tmp_path, preset, K, t, seed, demands, sha, lines):
    transcript = tmp_path / "run.jsonl"
    code = main(simulate_argv(preset, K, t, seed, demands, transcript, tmp_path / "r.json"))
    assert code == 0
    data = transcript.read_bytes()
    assert data.count(b"\n") == lines
    assert hashlib.sha256(data).hexdigest() == sha


def test_one_split_and_one_delivery_per_run(tmp_path, exchange_calls):
    calls = exchange_calls("stream_delivery", "split_files")
    transcript = tmp_path / "run.jsonl"
    code = main(simulate_argv("theorem1", 7, 2, 5, "uniform", transcript, tmp_path / "r.json"))
    assert code == 0
    assert {name: len(args) for name, args in calls.items()} == {
        "stream_delivery": 1, "split_files": 1,
    }
    assert transcript.read_bytes().count(b"\n") == 90
