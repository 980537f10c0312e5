import json

import pytest

from drinfeld_towers.cli import RunConfig, main
from drinfeld_towers.isogeny import TowerParams
from drinfeld_towers.towers import TowerPoint


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestPoints:
    def test_json_records(self, capsys):
        code, out = run(
            capsys, "points", "--p", "2", "--m", "2", "--j", "1", "--n", "2",
            "--variant", "F",
        )
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert code == 0 and len(lines) == 6
        assert all(r["supersingular"] for r in lines)
        assert lines[0]["params"] == {"p": 2, "e": 1, "m": 2, "j": 1}

    def test_level_one_count(self, capsys):
        code, out = run(
            capsys, "points", "--p", "3", "--m", "2", "--j", "1", "--n", "1",
            "--variant", "F",
        )
        assert code == 0 and len(out.strip().splitlines()) == 8

    def test_csv_has_header(self, capsys):
        code, out = run(
            capsys, "points", "--p", "2", "--m", "2", "--j", "1", "--n", "2",
            "--variant", "F", "--format", "csv",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "variant,p,e,m,j,coord_1,coord_2,supersingular"
        assert len(lines) == 7

    def test_reread_points_revalidate(self, capsys):
        # every emitted record reconstructs into a valid point
        _, out = run(
            capsys, "points", "--p", "3", "--m", "2", "--j", "1", "--n", "2",
            "--variant", "F",
        )
        params = TowerParams(3, 1, 2, 1)
        ctx = params.field(2)
        for line in out.strip().splitlines():
            rec = json.loads(line)
            coords = tuple(ctx.parse_elem(c) for c in rec["coords"])
            TowerPoint(rec["variant"], params, ctx, coords)  # raises if invalid

    def test_invalid_rank_pair(self, capsys):
        code, _ = run(
            capsys, "points", "--p", "2", "--m", "2", "--j", "2", "--n", "1",
            "--variant", "F",
        )
        assert code == 2

    def test_level_zero_rejected(self, capsys):
        code, out = run(
            capsys, "points", "--p", "2", "--m", "2", "--j", "1", "--n", "0",
            "--variant", "F",
        )
        assert code == 2 and out == ""

    def test_resource_cap(self, capsys):
        code, _ = run(
            capsys, "ss-count", "--p", "7", "--m", "7", "--j", "1", "--n", "2"
        )
        assert code == 3


class TestOtherCommands:
    def test_fibers(self, capsys):
        code, out = run(
            capsys, "fibers", "--p", "2", "--m", "2", "--j", "1", "--x", "[1,0]"
        )
        rec = json.loads(out)
        assert code == 0 and rec["solutions"] == ["[0,1]", "[1,1]"]

    def test_ss_count(self, capsys):
        code, out = run(capsys, "ss-count", "--p", "2", "--m", "2", "--j", "1", "--n", "3")
        rec = json.loads(out)
        assert code == 0 and rec["enumerated"] == rec["formula"] == 12

    def test_ss_count_rejects_level_zero(self, capsys):
        code, out = run(capsys, "ss-count", "--p", "2", "--m", "2", "--j", "1", "--n", "0")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("cap", ["abc", "0", "-5"])
    def test_malformed_size_cap_is_usage_error(self, capsys, monkeypatch, cap):
        monkeypatch.setenv("DRINFELD_SIZE_CAP", cap)
        code = main(["bound", "--p", "2", "--m", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and "DRINFELD_SIZE_CAP" in captured.err

    def test_valid_size_cap_is_echoed(self, capsys, monkeypatch):
        monkeypatch.setenv("DRINFELD_SIZE_CAP", "4096")
        code, out = run(capsys, "fibers", "--p", "2", "--m", "2", "--j", "1", "--x", "[1,0]")
        assert code == 0 and json.loads(out)["config"]["size_cap"] == 4096

    def test_bound_values(self, capsys):
        for args, want in [
            (("2", "1"), "3/2"),
            (("3", "1"), "16/5"),
            (("2", "2"), "21/5"),
        ]:
            code, out = run(capsys, "bound", "--p", args[0], "--m", args[1])
            assert code == 0 and out.strip() == want

    def test_bound_rejects_composite(self, capsys):
        code, _ = run(capsys, "bound", "--p", "6", "--m", "1")
        assert code == 2


class TestVerifyCommand:
    def test_single_params_suite(self, capsys):
        code, out = run(
            capsys, "verify", "--suite", "lemma1_6", "--p", "2", "--e", "1",
            "--m", "2", "--j", "1",
        )
        doc = json.loads(out)
        assert code == 0
        by_deg = {e["ambient_degree"]: e for e in doc["report"]}
        assert by_deg[2]["cases_run"] == 3 and by_deg[2]["failures"] == []

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _ = run(capsys, "verify", "--suite", "nope")
        assert code == 2

    def test_partial_params_rejected(self, capsys):
        code, _ = run(capsys, "verify", "--suite", "lemma1_6", "--p", "2")
        assert code == 2

    def test_roundtrip_suite(self, capsys):
        code, out = run(capsys, "verify", "--suite", "roundtrip")
        doc = json.loads(out)
        assert code == 0
        skipped = [e for e in doc["report"] if e.get("skipped")]
        assert skipped and skipped[0]["skipped"] == "p divides k"


class TestRunConfig:
    def test_threads_option_removed(self, capsys):
        code, _ = run(capsys, "verify", "--suite", "rsu", "--threads", "2")
        assert code == 2

    def test_serialization_has_no_thread_field(self):
        cfg = RunConfig(command="verify", suite="rsu")
        assert "threads" not in cfg.to_dict()

    def test_none_fields_dropped(self):
        cfg = RunConfig(command="bound", p=2, m=1)
        d = cfg.to_dict()
        assert "variant" not in d and d["p"] == 2
