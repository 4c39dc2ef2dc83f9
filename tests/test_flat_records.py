"""One line rule for the config file and the plan record: ``#`` starts a
comment anywhere, names match exactly, and a repeated name fails."""

from pathlib import Path

import pytest

from iohp.cli import load_config, main
from iohp.matrices import TripletMatrix, write_matrix_market
from iohp.planner import HardwareConfig, PartitionPlan, record_fields

README = Path(__file__).resolve().parents[1] / "README.md"
# the record the planner writes for a 3x3 product on the default 8x8 grid
FITTING = ("t_m=1\nt_k=1\nt_n=1\nm_t=1\nk_t=3\nn_t=1\nstrategy=RAF\n"
           "predicted_dram=480\n")


def _config(tmp_path, text):
    path = tmp_path / "hw.cfg"
    path.write_text(text)
    return str(path)


def _sim(tmp_path, *extra):
    a = tmp_path / "a.mtx"
    write_matrix_market(TripletMatrix(3, 3, [(0, 0, 1.0), (2, 1, 2.0)]), a)
    return main(["sim", "--a", str(a), "--b", str(a), "--mode", "ssmm",
                 *extra])


class TestRecordFields:
    def test_yields_stripped_fields_with_their_lines(self):
        text = "# header\n\n  a = 1  # trailing\nb=\n  # indented\nc=x=y\n"
        assert list(record_fields(text, "r", "name")) == [
            (3, "a", "1"), (4, "b", ""), (6, "c", "x=y")]

    @pytest.mark.parametrize("text, message", [
        ("a=1\nb # no equals sign\n", "r line 2: expected name=value"),
        ("a=1\n = 3\n", "r line 2: expected name=value"),
        ("a=1\n\na = 2 # again\n", "r line 3: a: already given on line 1"),
    ])
    def test_names_the_faulty_line(self, text, message):
        with pytest.raises(ValueError) as err:
            list(record_fields(text, "r", "name"))
        assert str(err.value) == message

    def test_each_line_is_used_before_the_next_is_read(self):
        seen = []
        with pytest.raises(ValueError, match="line 2: expected"):
            for _, name, _ in record_fields("a=1\nb\n", "r", "name"):
                seen.append(name)
        assert seen == ["a"]


class TestConfigFile:
    def test_repeated_key_fails(self, tmp_path, capsys):
        cfg = _config(tmp_path, "c_a=100\nc_a=4096\n")
        assert _sim(tmp_path, "--config", cfg) == 1
        assert capsys.readouterr().err == (
            f"error: config: {cfg} line 2: c_a: already given on line 1\n")

    def test_empty_key_fails(self, tmp_path, capsys):
        cfg = _config(tmp_path, "=3\n")
        assert _sim(tmp_path, "--config", cfg) == 1
        assert capsys.readouterr().err == (
            f"error: config: {cfg} line 1: expected key=value\n")

    def test_key_case_is_exact(self, tmp_path, capsys):
        cfg = _config(tmp_path, "C_A=1\n")
        assert _sim(tmp_path, "--config", cfg) == 1
        assert capsys.readouterr().err == (
            f"error: config: {cfg} line 1: C_A: unknown config key\n")

    def test_first_fault_is_named(self, tmp_path, capsys):
        cfg = _config(tmp_path, "c_a=0\nc_b=1\nc_b=2\n")
        assert _sim(tmp_path, "--config", cfg) == 1
        assert capsys.readouterr().err == (
            f"error: config: {cfg} line 1: c_a: buffer capacities must be "
            ">= 1\n")

    def test_trailing_comment(self, tmp_path):
        cfg = load_config(_config(tmp_path, "c_a=1024  # half\nr_x=0.5#\n"))
        assert (cfg.c_a, cfg.r_x) == (1024, 0.5)

    def test_readme_example_is_the_default(self, tmp_path):
        text = README.read_text(encoding="utf-8")
        section = text.split("### Hardware config file\n", 1)[1]
        example = section.split("```\n", 2)[1]
        assert "c_a=" in example
        assert load_config(_config(tmp_path, example)) == HardwareConfig()


class TestPlanRecord:
    def test_trailing_comment_loads(self, tmp_path):
        record = FITTING.replace("strategy=RAF\n", "strategy=RAF  # reuse A\n")
        assert PartitionPlan.from_text(record) == PartitionPlan.from_text(FITTING)
        plan = tmp_path / "plan.txt"
        plan.write_text(record)
        assert _sim(tmp_path, "--plan", str(plan)) == 0

    def test_empty_field_name_fails(self, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        plan.write_text(FITTING.replace("t_k=1\n", "=1\n"))
        assert _sim(tmp_path, "--plan", str(plan)) == 1
        assert capsys.readouterr().err == (
            "error: plan: plan record line 2: expected field=value\n")
