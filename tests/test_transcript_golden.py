"""Golden transcripts: `ptcache simulate --transcript` output is pinned by SHA-256.

The hashes were taken when packet indices were first shuffled by one word
stream per (seed, round, group); any later change to message order, index
assignment, payload bytes or line formatting shows up here.
"""

import hashlib
import json

import pytest

from ptcache import verify
from ptcache.cli import main

from test_exchange import malformed

GOLDEN = [
    # preset, K, t, seed, demands, sha256, lines
    ("theorem1", 7, 2, 5, "uniform",
     "be6b9f0958c64d89771b265d353a5228710e7cfda3c2ca9574845f33a5afdde9", 90),
    ("theorem1", 11, 4, 0, "distinct",
     "be2394cccb63dbac1022c91b3083380dae0e86b4934a7ce42563743628adff5a", 2065),
    ("theorem1", 13, 2, 1, "distinct",
     "1249501f4fa9df74edc2332810a6fc2685a8f68768bdbfd71e20bb8aed0ba862", 693),
    ("jcm", 7, 3, 2, "distinct",
     "9a21a6a62b5bbaf66f573ddcca7161a21b50d5fbb875d0a3b4248e09a679b6cb", 140),
    ("odd_t3", 9, 3, 3, "distinct",
     "c34d8a4f1d5966007c938bcccecd197d0c61faf1602ae467a2d64f89b4a8ce4a", 420),
    ("even_K", 12, 2, 4, "uniform",
     "c1ee32157083e42b0d107e317f2447f602c19dc911add0a8dcf57f74aca67dde", 560),
    # The benchmark's many_messages point.
    ("theorem1", 17, 4, 0, "distinct",
     "ed7d9e3fb7ed8a6c43659b3a6c8c5f488cdea41b5855e583b72df0234c2ad0f3", 26754),
]


# Two store paths the table above misses: the benchmark's bulk_bytes point
# (a unit of 4096 bytes) and a demand vector with repeated files, whose store
# holds what several demanders lack.
GOLDEN_STORES = [
    # preset, K, t, unit, seed, demands, sha256, lines
    ("theorem1", 13, 2, 4096, 7, "distinct",
     "66c1d2316cc356df2df89470439b43887cfdc14553e26a26648f717309fad2e3", 693),
    ("theorem1", 7, 2, 1, 0, "1,1,2,2,3,3,4",
     "30db18d438e66770d8984d0b3529e23d9f788bca3e4c55fd240ab721b7bda66c", 90),
]


def simulate_argv(preset, K, t, seed, demands, transcript, output, unit=1):
    return [
        "simulate", "--preset", preset, "--K", str(K), "--t", str(t), "--unit", str(unit),
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


@pytest.mark.parametrize("preset,K,t,unit,seed,demands,sha,lines", GOLDEN_STORES)
def test_store_transcript_hash(tmp_path, preset, K, t, unit, seed, demands, sha, lines):
    transcript = tmp_path / "run.jsonl"
    argv = simulate_argv(preset, K, t, seed, demands, transcript, tmp_path / "r.json", unit)
    assert main(argv) == 0
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


def test_rerun_over_a_longer_run_leaves_no_stale_tail(tmp_path):
    """Rerun into the paths of the K=17 t=4 run: both files end where the new run's output does."""
    transcript, report = tmp_path / "run.jsonl", tmp_path / "r.json"
    preset, K, t, seed, demands, _, _ = GOLDEN[-1]
    assert main(simulate_argv(preset, K, t, seed, demands, transcript, report)) == 0
    stale = transcript.stat().st_size, report.stat().st_size
    preset, K, t, seed, demands, sha, lines = GOLDEN[0]
    assert main(simulate_argv(preset, K, t, seed, demands, transcript, report)) == 0
    fresh = tmp_path / "fresh.json"
    assert main(simulate_argv(preset, K, t, seed, demands, tmp_path / "fresh.jsonl", fresh)) == 0
    assert transcript.stat().st_size < stale[0] and report.stat().st_size < stale[1]
    data = transcript.read_bytes()
    assert data.count(b"\n") == lines
    assert hashlib.sha256(data).hexdigest() == sha
    assert report.read_bytes() == fresh.read_bytes()


def test_rerun_stopped_early_leaves_no_stale_tail(tmp_path, monkeypatch):
    """A transcript stopped by a constituent outside the layout keeps no line of the run before."""
    transcript, report = tmp_path / "run.jsonl", tmp_path / "r.json"
    preset, K, t, seed, demands, _, lines = GOLDEN[0]
    assert main(simulate_argv(preset, K, t, seed, demands, transcript, report)) == 0
    real = verify.stream_delivery

    def tampering(store, *args, **kwargs):
        msgs = list(real(store, *args, **kwargs))
        return msgs[:1] + [malformed(store, msgs[1], "unknown_index")] + msgs[2:]

    monkeypatch.setattr(verify, "stream_delivery", tampering)
    assert main(simulate_argv(preset, K, t, seed, demands, transcript, report)) == 1
    fresh_transcript, fresh = tmp_path / "fresh.jsonl", tmp_path / "fresh.json"
    assert main(simulate_argv(preset, K, t, seed, demands, fresh_transcript, fresh)) == 1
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["failure"].startswith("UndecodableMessage") and doc["message_count"] == 1
    assert transcript.read_bytes().count(b"\n") == 1 < lines
    assert transcript.read_bytes() == fresh_transcript.read_bytes()
    assert report.read_bytes() == fresh.read_bytes()
