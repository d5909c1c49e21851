from __future__ import annotations

from fractions import Fraction

import pytest

import mqsim.cli as cli
from mqsim.adversary import BoundFalsified
from mqsim.analysis import Verdict
from mqsim.model import Trace


WITNESS = "A 1\nA 2\nS\nA 1\nS\nS\n"


@pytest.fixture
def witness_file(tmp_path):
    path = tmp_path / "witness.trace"
    path.write_text(WITNESS)
    return str(path)


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_witness_summary(self, witness_file, capsys):
        code, out, err = run(
            ["simulate", "--values", "1", "2", "--caps", "1", "1",
             "--trace", witness_file], capsys)
        assert code == 0
        assert out.strip().split("\n")[-1] == "greedy=3 opt=4 ratio=4/3"
        assert err == ""

    def test_empty_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.trace"
        path.write_text("")
        code, out, _ = run(
            ["simulate", "--values", "1", "2", "--caps", "1", "1",
             "--trace", str(path)], capsys)
        assert code == 0
        assert "greedy=0 opt=0 ratio=1" in out

    def test_bad_class_index_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.trace"
        path.write_text("A 0\n")
        code, _, err = run(
            ["simulate", "--values", "1", "2", "--caps", "1", "1",
             "--trace", str(path)], capsys)
        assert code == 2
        assert "error" in err

    def test_class_above_m_exit_2(self, tmp_path, capsys):
        path = tmp_path / "high.trace"
        path.write_text("A 3\nS\n")
        code, _, _ = run(
            ["simulate", "--values", "1", "2", "--caps", "1", "1",
             "--trace", str(path)], capsys)
        assert code == 2

    def test_state_cap_exit_3(self, witness_file, capsys):
        code, _, err = run(
            ["simulate", "--values", "1", "2", "--caps", "1", "1",
             "--trace", witness_file, "--state-cap", "3"], capsys)
        assert code == 3
        assert "error" in err

    def test_auto_drain_note(self, tmp_path, capsys):
        path = tmp_path / "raw.trace"
        path.write_text("A 1\nA 2\n")
        code, out, err = run(
            ["simulate", "--values", "1", "2", "--caps", "1", "1",
             "--trace", str(path)], capsys)
        assert code == 0
        assert "auto-drained (2 sends appended)" in err
        assert "greedy=3 opt=3 ratio=1" in out


class TestVerify:
    def test_witness_all_true(self, witness_file, capsys):
        code, out, _ = run(
            ["verify", "--values", "1", "2", "--caps", "1", "1",
             "--trace", witness_file], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 15
        assert all(line.split()[2] == "true" for line in lines)

    def test_wide_fields_exit_3(self, tmp_path, capsys):
        # 1.2 M cells at caps (4, 3), each 2,011 bits wide: 32 words apiece
        path = tmp_path / "long.trace"
        path.write_text("A 2\n" * 30_008 + "S\n" * 30_009)
        code, out, err = run(
            ["verify", "--values", "1", str(10**600), "--caps", "4", "3",
             "--trace", str(path)], capsys)
        assert (code, out) == (3, "")
        assert err == f"error: needs {20 * 60_017 * 32} DP cells, cap is 10000000\n"

    def test_config_file(self, witness_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("values: 1 2\ncapacities: 1 1\n")
        code, out, _ = run(
            ["verify", "--config", str(cfg), "--trace", witness_file], capsys)
        assert code == 0
        assert "verdict ratio_bound true" in out

    def test_config_repeated_key_exit_2(self, witness_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("values: 1 2\nvalues: 1 3 4\ncapacities: 1 1 1\n")
        code, out, err = run(
            ["verify", "--config", str(cfg), "--trace", witness_file], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: line 2: repeated key 'values'\n"

    def test_false_verdict_exit_1(self, witness_file, capsys, monkeypatch):
        # Test-only hook: corrupt one verdict to exercise the failure path.
        real = cli.verify_all

        def corrupted(*args, **kwargs):
            report = real(*args, **kwargs)
            bad = Verdict("transmit_surplus_nonneg", False, h=1, event=5)
            verdicts = dict(report.verdicts)
            verdicts[bad.name] = bad
            object.__setattr__(report, "verdicts", verdicts)
            return report

        monkeypatch.setattr(cli, "verify_all", corrupted)
        code, out, _ = run(
            ["verify", "--values", "1", "2", "--caps", "1", "1",
             "--trace", witness_file], capsys)
        assert code == 1
        assert "verdict transmit_surplus_nonneg false h=1 e=5" in out

    def test_m2_profile_passes(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        path.write_text("A 2\nA 1\nS\nS\n")
        code, _, _ = run(
            ["verify", "--values", "1", "2", "--caps", "1", "1",
             "--trace", str(path)], capsys)
        assert code == 0

    def test_non_ascii_digit_exit_2_with_line(self, tmp_path, capsys):
        path = tmp_path / "bad.trace"
        path.write_text("A \u00b2\n", encoding="utf-8")
        code, out, err = run(
            ["verify", "--values", "1", "2", "--caps", "1", "1",
             "--trace", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 1:")

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(
            ["verify", "--values", "1", "2", "--caps", "1", "1",
             "--trace", "/nonexistent/x.trace"], capsys)
        assert code == 2


class TestBound:
    def test_two_valued(self, capsys):
        code, out, _ = run(["bound", "--values", "1", "2"], capsys)
        assert code == 0
        assert "c*=1/2 upper=3/2 lower=4/3" in out

    def test_three_valued(self, capsys):
        code, out, _ = run(["bound", "--values", "1", "2", "5"], capsys)
        assert code == 0
        assert "c: 1/2,1/2" in out
        assert "c*=1/2 upper=3/2" in out
        assert "note" not in out

    def test_literal_recurrence_note(self, capsys):
        code, out, _ = run(["bound", "--values", "1", "2", "3"], capsys)
        assert code == 0
        assert "c*=3/4 upper=7/4" in out
        assert "note:" in out
        assert "1/2" in out

    def test_invalid_profile_exit_2(self, capsys):
        code, _, err = run(["bound", "--values", "2", "1"], capsys)
        assert code == 2
        assert "error" in err

    def test_conflicting_sources_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("values: 1 2\ncapacities: 1 1\n")
        code, _, _ = run(
            ["bound", "--values", "1", "2", "--config", str(cfg)], capsys)
        assert code == 2

    def test_rejects_state_cap_exit_2(self, capsys):
        # bound runs no DP, so a cap on DP cells would have no effect
        with pytest.raises(SystemExit) as exc:
            cli.main(["bound", "--values", "1", "2", "--state-cap", "-5"])
        assert exc.value.code == 2
        assert "--state-cap" in capsys.readouterr().err


class TestSearch:
    def test_exhaustive_header_and_trace(self, capsys):
        code, out, _ = run(
            ["search", "--values", "1", "2", "--caps", "1", "1",
             "--max-len", "5"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# worst_ratio=4/3 bound=3/2")
        # the rest of stdout is a re-feedable trace in the line grammar
        assert all(line == "S" or line.startswith("A ") for line in lines[1:])

    def test_max_len_one_ratio_one(self, capsys):
        code, out, _ = run(
            ["search", "--values", "1", "2", "--caps", "1", "1",
             "--max-len", "1"], capsys)
        assert code == 0
        assert "worst_ratio=1 " in out

    def test_seed_runs_byte_identical(self, capsys):
        argv = ["search", "--values", "1", "2", "--caps", "1", "1",
                "--samples", "300", "--seed", "42", "--max-len", "10"]
        code1, out1, _ = run(argv, capsys)
        code2, out2, _ = run(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "seed=42" in out1

    def test_random_needs_seed(self, capsys):
        code, _, err = run(
            ["search", "--values", "1", "2", "--caps", "1", "1",
             "--samples", "10"], capsys)
        assert code == 2
        assert "seed" in err

    def test_budget_exit_3(self, capsys):
        code, _, _ = run(
            ["search", "--values", "1", "2", "--caps", "1", "1",
             "--max-len", "6", "--budget", "10"], capsys)
        assert code == 3

    @pytest.mark.parametrize("mode", [["--max-len", "2"],
                                      ["--samples", "10", "--seed", "1"]])
    def test_state_cap_exit_3(self, mode, capsys):
        code, out, err = run(
            ["search", "--values", "1", "2", "3", "--caps", "30", "30", "30",
             *mode, "--state-cap", "10"], capsys)
        assert code == 3
        assert out == ""
        assert "DP cells" in err

    @pytest.mark.parametrize("flag", ["--jobs", "--budget"])
    def test_random_rejects_exhaustive_flag_exit_2(self, flag, capsys):
        code, out, err = run(
            ["search", "--values", "1", "2", "--caps", "1", "1",
             "--samples", "10", "--seed", "1", flag, "1"], capsys)
        assert code == 2
        assert out == ""
        assert flag in err

    @pytest.mark.parametrize("args, flag", [
        (["--max-len", "3", "--seed", "1"], "--seed"),
        (["--max-len", "-1"], "--max-len"),
        (["--samples", "10", "--seed", "1", "--max-len", "-1"], "--max-len"),
        (["--samples", "-5", "--seed", "1"], "--samples"),
        (["--max-len", "3", "--jobs", "0"], "--jobs"),
        (["--max-len", "3", "--jobs", "-2"], "--jobs"),
    ])
    def test_rejects_ineffective_flag_exit_2(self, args, flag, capsys):
        code, out, err = run(
            ["search", "--values", "1", "2", "--caps", "1", "1", *args], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and flag in err

    def test_falsification_exit_4(self, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise BoundFalsified(Trace((1, 0)), Fraction(2), Fraction(3, 2))

        monkeypatch.setattr(cli, "exhaustive_worst", explode)
        code, _, err = run(
            ["search", "--values", "1", "2", "--caps", "1", "1",
             "--max-len", "3"], capsys)
        assert code == 4
        assert "FALSIFIED" in err

    def test_search_output_refeeds_to_verify(self, tmp_path, capsys):
        code, out, _ = run(
            ["search", "--values", "1", "2", "--caps", "1", "1",
             "--max-len", "5"], capsys)
        assert code == 0
        path = tmp_path / "worst.trace"
        path.write_text(out)
        code, out2, _ = run(
            ["verify", "--values", "1", "2", "--caps", "1", "1",
             "--trace", str(path)], capsys)
        assert code == 0
        assert "verdict ratio_bound true" in out2


class TestArgumentErrors:
    def test_missing_values_exit_2(self, witness_file, capsys):
        code, _, _ = run(["simulate", "--trace", witness_file], capsys)
        assert code == 2

    def test_caps_length_mismatch_exit_2(self, witness_file, capsys):
        code, _, _ = run(
            ["simulate", "--values", "1", "2", "--caps", "1",
             "--trace", witness_file], capsys)
        assert code == 2

    @pytest.mark.parametrize("mode", [["--max-len", "4"], ["--samples", "5", "--seed", "1"]])
    def test_search_caps_length_mismatch_exit_2(self, mode, capsys):
        code, out, err = run(
            ["search", "--values", "1", "2", "5", "--caps", "1", "1", *mode], capsys)
        assert (code, out, err) == (2, "", "error: 2 capacities given for 3 classes\n")
