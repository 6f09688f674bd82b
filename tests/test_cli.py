import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ptcache import cli, verify
from ptcache.cli import main
from ptcache.exchange import MemoryMismatch

from test_exchange import skewed_repeats


ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_example1_document(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "--preset", "theorem1", "--K", "7", "--t", "2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["fs"]["aggregate"] == [0, 2, 2]
        assert doc["sizing"]["gamma"][1] == "5/1"

    def test_jcm(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "--preset", "jcm", "--K", "5", "--t", "2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["fs"]["aggregate"] == [2]
        assert doc["F_PT"] == 20

    def test_constraint_violation_exit2(self, capsys):
        code, _, err = run_cli(
            capsys, "construct", "--preset", "theorem1", "--K", "8", "--t", "2"
        )
        assert code == 2
        assert "K must be odd" in err

    def test_grouping_override(self, capsys):
        # the wider split costs more packets than the preset's (7, 6)
        code, out, _ = run_cli(
            capsys, "construct", "--preset", "theorem1", "--K", "13", "--t", "2",
            "--grouping", "8,5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["grouping"]["sizes"] == [8, 5]
        assert doc["F_PT"] == 136  # vs 126 at the preset grouping

    def test_bad_grouping_override_exit2(self, capsys):
        code, _, err = run_cli(
            capsys, "construct", "--preset", "theorem1", "--K", "13", "--t", "2",
            "--grouping", "9,3",
        )
        assert code == 2
        assert "error" in err


class TestSimulate:
    def test_example1_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--preset", "theorem1", "--K", "7", "--t", "2",
            "--seed", "0", "--demands", "distinct",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["rate"] == "5/2"

    def test_odd_t3(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--preset", "odd_t3", "--K", "9", "--t", "3",
            "--seed", "2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["packets_per_file"] == 210

    def test_even_K_validity_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--preset", "even_K", "--K", "12", "--t", "2"
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_transcript_and_determinism(self, capsys, tmp_path):
        t1, t2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ["simulate", "--preset", "theorem1", "--K", "7", "--t", "2",
                "--seed", "5", "--demands", "uniform"]
        code1, out1, _ = run_cli(capsys, *args, "--transcript", str(t1))
        code2, out2, _ = run_cli(capsys, *args, "--transcript", str(t2))
        assert code1 == code2 == 0
        assert out1 == out2
        assert t1.read_bytes() == t2.read_bytes()
        first = json.loads(t1.read_text().splitlines()[0])
        assert first["round"] == 1

    def test_grouping_override_simulates(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--preset", "theorem1", "--K", "13", "--t", "2",
            "--grouping", "8,5", "--seed", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True and doc["packets_per_file"] == 136

    def test_explicit_demands(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--preset", "jcm", "--K", "5", "--t", "2",
            "--demands", "5,4,3,2,1",
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_no_transcript_when_run_fails_before_delivery(self, capsys, tmp_path, monkeypatch):
        """Placement fails, or delivery fails its up-front checks: no transcript file."""
        def broken(*args, **kwargs):
            raise MemoryMismatch("injected")

        argv = ["simulate", "--preset", "theorem1", "--K", "7", "--t", "2"]
        transcript = tmp_path / "run.jsonl"
        with monkeypatch.context() as patch:
            patch.setattr(verify, "build_caches", broken)
            code, out, _ = run_cli(capsys, *argv, "--transcript", str(transcript))
        assert code == 1
        assert json.loads(out)["failure"] == "MemoryMismatch: injected"
        assert not transcript.exists()

        real = cli.derive
        monkeypatch.setattr(cli, "derive", lambda spec: skewed_repeats(real(spec)))
        code, out, _ = run_cli(capsys, *argv, "--transcript", str(transcript))
        assert code == 1
        report = json.loads(out)
        assert report["failure"].startswith("DeliveryCountMismatch: receiver")
        assert report["message_count"] == 0
        assert not transcript.exists()

    @pytest.mark.parametrize("seed", [str(-(2**63) - 1), str(2**63)])
    def test_out_of_range_seed_reported(self, tmp_path, seed):
        transcript = tmp_path / "run.jsonl"
        result = subprocess.run(
            [sys.executable, "-m", "ptcache.cli", "simulate", "--preset", "theorem1",
             "--K", "7", "--t", "2", "--seed", seed, "--transcript", str(transcript)],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert json.loads(result.stdout)["failure"].startswith("SeedOutOfRange: seed " + seed)
        assert not transcript.exists()

    def test_strict_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--preset", "jcm", "--K", "5", "--t", "2", "--strict"])
        assert exc.value.code == 2
        assert "--strict" in capsys.readouterr().err

    def test_bad_demands_exit2(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--preset", "jcm", "--K", "5", "--t", "2",
            "--demands", "1,2",
        )
        assert code == 2
        assert "error" in err


class TestVerify:
    def test_claims_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--claims", "--t", "4", "--q-range", "5:15"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True

    def test_remark3(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--remark3", "--q", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["checks"][0]["witness"]["mc_satisfying"] == [[2, 2, 2]]

    def test_lemma3(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--lemma3", "--K", "13", "--t", "2"
        )
        assert code == 0
        assert json.loads(out)["checks"][0]["witness"]["argmin"] == 7

    def test_lemma1_and_odd_t(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--lemma1", "--t", "2", "--q-range", "3:8",
            "--odd-t", "--r-range", "1:6",
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(
            verify, "verify_remark3",
            lambda q: verify.CheckResult("remark3_homogeneous_uniqueness", False, {}),
        )
        code, out, _ = run_cli(capsys, "verify", "--remark3", "--q", "3")
        assert code == 1
        doc = json.loads(out)
        assert doc["passed"] is False
        assert doc["checks"][0]["name"] == "remark3_homogeneous_uniqueness[q=3]"

    def test_strict_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--remark3", "--q", "3", "--strict"])
        assert exc.value.code == 2
        assert "--strict" in capsys.readouterr().err

    def test_no_selection_exit2(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2
        assert "nothing to verify" in err


class TestSweep:
    def test_two_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--t", "2", "--q-max", "4", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["ratio_exact"] for r in rows] == ["6/7", "5/6"]

    def test_json_same_content(self, capsys):
        code_c, out_c, _ = run_cli(
            capsys, "sweep", "--t", "2,4", "--q-max", "8", "--format", "csv"
        )
        code_j, out_j, _ = run_cli(
            capsys, "sweep", "--t", "2,4", "--q-max", "8", "--format", "json"
        )
        assert code_c == code_j == 0
        rows_csv = list(csv.DictReader(io.StringIO(out_c)))
        rows_json = [{k: str(v) for k, v in r.items()} for r in json.loads(out_j)]
        assert rows_json == rows_csv

    def test_odd_t_exit2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--t", "3")
        assert code == 2
        assert "even t required for theorem1 sweep" in err

    def test_odd_t_message_names_a_command_that_runs(self, capsys):
        _, _, err = run_cli(capsys, "sweep", "--t", "3")
        command = err.strip().split("ptcache ", 1)[1].split()
        code, out, _ = run_cli(capsys, *command)
        assert code == 0
        assert json.loads(out)["params"]["t"] == 3

    def test_output_dir_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PTCACHE_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(
            capsys, "sweep", "--t", "2", "--q-max", "4", "--output", "ratios.csv"
        )
        assert code == 0
        assert (tmp_path / "ratios.csv").exists()
