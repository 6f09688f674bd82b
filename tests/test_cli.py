import builtins
import csv
import io
import json
import os
import shlex
import subprocess
from pathlib import Path

import pytest

from ptcache import cli, verify
from ptcache.cli import main
from ptcache.exchange import MemoryMismatch

from conftest import PYTHON
from test_exchange import skewed_repeats


ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """``python -m ptcache.cli`` in a fresh interpreter: what a shell user sees."""
    return subprocess.run(
        [*PYTHON, "-m", "ptcache.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )


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

    def test_output_in_missing_directory_exit2(self, tmp_path):
        missing = tmp_path / "missing" / "blueprint.json"
        result = run_module("construct", "--preset", "theorem1", "--K", "7", "--t", "2",
                            "--output", str(missing))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: ") and str(missing) in result.stderr


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
        result = run_module("simulate", "--preset", "theorem1", "--K", "7", "--t", "2",
                            "--seed", seed, "--transcript", str(transcript))
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert json.loads(result.stdout)["failure"].startswith("SeedOutOfRange: seed " + seed)
        assert not transcript.exists()

    def test_transcript_in_missing_directory_exit2(self, tmp_path):
        missing = tmp_path / "missing" / "run.jsonl"
        result = run_module("simulate", "--preset", "theorem1", "--K", "7", "--t", "2",
                            "--transcript", str(missing))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: ") and str(missing) in result.stderr
        assert result.stdout == ""

    def test_output_in_missing_directory_exit2(self, tmp_path):
        """The report path is opened before the audit, so no transcript is left without it."""
        transcript = tmp_path / "run.jsonl"
        missing = tmp_path / "missing" / "report.json"
        result = run_module("simulate", "--preset", "theorem1", "--K", "7", "--t", "2",
                            "--transcript", str(transcript), "--output", str(missing))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: ") and str(missing) in result.stderr
        assert not transcript.exists()

    def test_failed_run_removes_the_report_it_created(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, _, err = run_cli(
            capsys, "simulate", "--preset", "theorem1", "--K", "7", "--t", "2",
            "--transcript", str(tmp_path / "missing" / "run.jsonl"), "--output", str(report),
        )
        assert code == 2 and err.startswith("error: [Errno 2]")
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_keeps_an_existing_report(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        report.write_bytes(b"an earlier report\n")
        code, _, _ = run_cli(
            capsys, "simulate", "--preset", "theorem1", "--K", "7", "--t", "2",
            "--transcript", str(tmp_path / "missing" / "run.jsonl"), "--output", str(report),
        )
        assert code == 2
        assert report.read_bytes() == b"an earlier report\n"

    def test_output_dir_override_transcript(self, capsys, tmp_path, monkeypatch):
        """--transcript resolves against PTCACHE_OUTPUT_DIR as --output does."""
        out, cwd = tmp_path / "out", tmp_path / "cwd"
        out.mkdir()
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        monkeypatch.setenv("PTCACHE_OUTPUT_DIR", str(out))
        code, _, _ = run_cli(
            capsys, "simulate", "--preset", "theorem1", "--K", "7", "--t", "2",
            "--transcript", "run.jsonl", "--output", "report.json",
        )
        assert code == 0
        assert json.loads((out / "report.json").read_text())["message_count"] == 90
        assert len((out / "run.jsonl").read_text().splitlines()) == 90
        assert not any(cwd.iterdir())

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
        code, out, _ = run_cli(capsys, "verify", "--remark3", "--q-range", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["checks"][0]["witness"]["mc_satisfying"] == [[2, 2, 2]]

    def test_q_abbreviates_q_range(self, capsys):
        """``--q`` is gone; argparse reads it as the prefix of ``--q-range``."""
        code, out, _ = run_cli(capsys, "verify", "--remark3", "--q", "3")
        assert code == 0
        assert run_cli(capsys, "verify", "--remark3", "--q-range", "3") == (0, out, "")
        assert "--q " not in cli.build_parser().format_help()

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
        code, out, _ = run_cli(capsys, "verify", "--remark3", "--q-range", "3")
        assert code == 1
        doc = json.loads(out)
        assert doc["passed"] is False
        assert doc["checks"][0]["name"] == "remark3_homogeneous_uniqueness[q=3]"

    def test_strict_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--remark3", "--q-range", "3", "--strict"])
        assert exc.value.code == 2
        assert "--strict" in capsys.readouterr().err

    def test_no_selection_exit2(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2
        assert "nothing to verify" in err

    MISSING_OR_EMPTY = {
        "verify --claims --t 4": "--claims needs --t and --q-range",
        "verify --lemma1 --q-range 3:5": "--lemma1 needs --t and --q-range",
        "verify --lemma3 --t 2": "--lemma3 needs --K and --t",
        "verify --lemma3 --K 12 --t 2": "K must be odd (K = 2q+1)",
        "verify --remark3": "--remark3 needs --q-range",
        "verify --odd-t": "--odd-t needs --r-range",
        "verify --claims --t 4 --q-range 9:5": "--q-range 9:5 has no points (need lo <= hi)",
        "verify --lemma1 --t 2 --q-range 9:5": "--q-range 9:5 has no points (need lo <= hi)",
        "verify --remark3 --q-range 9:5": "--q-range 9:5 has no points (need lo <= hi)",
        "verify --odd-t --r-range 3:1": "--r-range 3:1 has no points (need lo <= hi)",
        "verify --lemma1 --t 4 --q-range 5": "one q value (5) to check: a decrease needs two",
        "verify --lemma3 --K 7 --t 2": "one grouping (4, 3) to scan: a strict minimum needs two",
        "verify --lemma3 --K 11 --t 4": "one grouping (6, 5) to scan: a strict minimum needs two",
        "verify --remark3 --q-range 3:4:5": "--q-range 3:4:5 is not lo:hi or one integer",
        "verify --lemma1 --t 2 --q-range 3:": "--q-range 3: is not lo:hi or one integer",
        "verify --odd-t --r-range 1:x": "--r-range 1:x is not lo:hi or one integer",
        "sweep --t 2,x": "--t 2,x is not a comma-separated list of integers",
        "construct --preset theorem1 --K 13 --t 2 --grouping 8,x":
            "--grouping 8,x is not a comma-separated list of integers",
        "construct --preset theorem1 --K 13 --t 2 --grouping=":
            "--grouping '' is not a comma-separated list of integers",
        "sweep --t=": "--t '' is not a comma-separated list of integers",
        "simulate --preset jcm --K 5 --t 2 --demands=":
            "--demands '' is not a comma-separated list of integers",
        "simulate --preset jcm --K 5 --t 2 --demands 1,2,3,4,x":
            "--demands 1,2,3,4,x is not a comma-separated list of integers",
        "simulate --preset jcm --K 5 --t 2 --demands 1,2":
            "--demands 1,2: demand vector has length 2, expected 5",
        "simulate --preset theorem1 --K 7 --t 2 --demands 0,1,2,3,4,5,6":
            "--demands 0,1,2,3,4,5,6: demand 0 outside 1..7",
        "simulate --preset jcm --K 5 --t 2 --N 6 --demands 1,2,3,4,7":
            "--demands 1,2,3,4,7: demand 7 outside 1..6",
        # N admits file 2**64 + 1, but the file oracle keys a file by 8 bytes
        "simulate --preset jcm --K 3 --t 1 --N 18446744073709551617 --demands 1,2,18446744073709551617":
            "--demands 1,2,18446744073709551617: demand 18446744073709551617 "
            "does not fit the file oracle's 8-byte index",
        # one plan for a two-group layout: its length mismatch comes first
        "construct --preset jcm --K 7 --t 2 --grouping 4,3":
            "plan covers 1 group types, layout has 4",
        "sweep --t 2 --q-max 2": "q_max=2 leaves t=2 no point (need q_max >= 3)",
        "sweep --t 2 --q-max -5": "q_max=-5 leaves t=2 no point (need q_max >= 3)",
        "sweep --t 2,8 --q-max 6": "q_max=6 leaves t=8 no point (need q_max >= 9)",
    }

    @pytest.mark.parametrize("argv", list(MISSING_OR_EMPTY),
                             ids=lambda argv: argv.removeprefix("verify "))
    def test_missing_or_empty_input_exit2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out, err) == (2, "", f"error: {self.MISSING_OR_EMPTY[argv]}\n")


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


@pytest.fixture
def file_calls(monkeypatch):
    """Record every ``os.open`` as ``(path, flags)`` and every rename's target.

    Builtin ``open`` does not call ``os.open``, so it gets an opener that
    does, unless its caller passed one: then each open shows its real flags.
    """
    opened, renamed = [], []
    real_os_open, real_open = os.open, builtins.open

    def spy_open(path, flags, mode=0o777, **kwargs):
        opened.append((os.fspath(path), flags))
        return real_os_open(path, flags, mode, **kwargs)

    def routed_open(file, mode="r", buffering=-1, encoding=None, errors=None, newline=None,
                    closefd=True, opener=None):
        opener = opener or (lambda path, flags: os.open(path, flags, 0o666))
        return real_open(file, mode, buffering, encoding, errors, newline, closefd, opener)

    def spy_rename(real):
        def rename(src, dst, **kwargs):
            renamed.append(os.fspath(dst))
            return real(src, dst, **kwargs)
        return rename

    monkeypatch.setattr(os, "open", spy_open)
    monkeypatch.setattr(builtins, "open", routed_open)
    monkeypatch.setattr(os, "replace", spy_rename(os.replace))
    monkeypatch.setattr(os, "rename", spy_rename(os.rename))
    return opened, renamed


class TestRewriteInPlace:
    """Output files are rewritten from their start and cut at their end, never truncated
    to zero on open or renamed over (on ext4 either waits for the last run's writeback)."""

    SIM = ["simulate", "--preset", "theorem1", "--K", "7", "--t", "2", "--seed", "5"]
    COMMANDS = {
        "simulate": SIM + ["--transcript", "{transcript}"],
        "construct": ["construct", "--preset", "theorem1", "--K", "7", "--t", "2"],
        "verify": ["verify", "--remark3", "--q-range", "3"],
        "sweep": ["sweep", "--t", "2", "--q-max", "5"],
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_output_rewritten_through_a_symlink(self, capsys, tmp_path, file_calls, command):
        """A longer earlier output leaves no tail, and a symlinked --output stays a symlink."""
        target, link = tmp_path / "target", tmp_path / "link"
        transcript = tmp_path / "run.jsonl"
        for path in (target, transcript):
            path.write_text("an earlier, longer output\n" * 1000, encoding="utf-8")
        link.symlink_to(target)
        argv = [a.format(transcript=transcript) for a in self.COMMANDS[command]]
        code, _, _ = run_cli(capsys, *argv, "--output", str(link))
        opened, renamed = file_calls
        outputs = {str(link)} | ({str(transcript)} if command == "simulate" else set())
        assert code == 0
        assert outputs <= {path for path, _ in opened}
        assert [path for path, flags in opened if path in outputs and flags & os.O_TRUNC] == []
        assert renamed == []
        assert link.is_symlink()
        fresh = [a.format(transcript=tmp_path / "fresh.jsonl") for a in self.COMMANDS[command]]
        _, out, _ = run_cli(capsys, *fresh)
        assert target.read_text(encoding="utf-8") == out
        if command == "simulate":
            assert transcript.read_bytes() == (tmp_path / "fresh.jsonl").read_bytes()

    def test_transcript_to_dev_null(self, capsys):
        code, out, _ = run_cli(capsys, *self.SIM, "--transcript", os.devnull)
        assert code == 0
        assert json.loads(out)["message_count"] == 90


def readme_commands():
    """The ``ptcache ...`` commands of README's CLI block, continuation lines joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = (line.split("#", 1)[0] for line in block.replace("\\\n", " ").splitlines())
    return [shlex.split(line) for line in lines if line.strip()]


README_COMMANDS = readme_commands()


def test_readme_cli_block_covers_every_command():
    assert all(argv[0] == "ptcache" for argv in README_COMMANDS)
    assert {argv[1] for argv in README_COMMANDS} == {"construct", "simulate", "verify", "sweep"}


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[" ".join(a[1:]) for a in README_COMMANDS])
def test_readme_command_runs(argv, capsys, tmp_path, monkeypatch):
    """Each documented command parses and exits 0, run in a temporary directory."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PTCACHE_OUTPUT_DIR", raising=False)
    code, _, err = run_cli(capsys, *argv[1:])
    assert code == 0, err
