import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld_towers.cli import _JSON, COMMANDS, _config, build_parser, fast_parse, main
from drinfeld_towers import field
from drinfeld_towers.field import DEFAULT_SIZE_CAP, FieldCtx, is_prime
from drinfeld_towers.isogeny import TowerParams
from drinfeld_towers.towers import TowerPoint, enumerate_rational, ihara_bound
from drinfeld_towers.verify import SUITES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


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

    @pytest.mark.parametrize(
        "variant,tup,n",
        [("F", (2, 1, 3, 2), 3), ("G", (5, 1, 3, 1), 2), ("H", (5, 1, 3, 1), 3), ("F", (2, 2, 2, 1), 2)],
        ids=["F2132", "G5131", "H5131", "F2221"],
    )
    def test_records_are_the_reference_encoding(self, capsys, variant, tup, n):
        # oracle: each JSON line is _JSON.encode(pt.to_json_dict()) of the same
        # point, and the CSV lines are the unchanged per-point format
        params = TowerParams(*tup)
        pts = enumerate_rational(params, n, variant)
        argv = ["points", "--p", str(tup[0]), "--e", str(tup[1]), "--m", str(tup[2]), "--j", str(tup[3]),
                "--n", str(n), "--variant", variant]
        code, out = run(capsys, *argv)
        assert code == 0 and out.splitlines() == [_JSON.encode(pt.to_json_dict()) for pt in pts]
        code, out = run(capsys, *argv, "--format", "csv")
        cols = ",".join(f"coord_{i + 1}" for i in range(len(pts[0].coords)))
        rows = [
            f"{variant},{tup[0]},{tup[1]},{tup[2]},{tup[3]},"
            f"{','.join(pt.ctx.format_elem(c) for c in pt.coords)},{pt.is_supersingular()}"
            for pt in pts
        ]
        assert code == 0 and out.splitlines() == [f"variant,p,e,m,j,{cols},supersingular"] + rows

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

    def test_resource_cap(self, capsys, monkeypatch):
        # 7^10 is past the size cap 2^26
        monkeypatch.delenv("DRINFELD_SIZE_CAP", raising=False)
        code, _ = run(
            capsys, "ss-count", "--p", "7", "--m", "10", "--j", "1", "--n", "2"
        )
        assert code == 3

    def test_count_past_listing_cap(self, capsys, monkeypatch):
        # 7^7 is past ENUMERATION_CAP, but a count lists nothing
        monkeypatch.delenv("DRINFELD_SIZE_CAP", raising=False)
        code, out = run(
            capsys, "ss-count", "--p", "7", "--m", "7", "--j", "1", "--n", "2"
        )
        rec = json.loads(out)
        assert code == 0 and rec["enumerated"] == rec["formula"] == 96_888_892_758 and rec["match"]

    @pytest.mark.parametrize("variant, n", [("F", "1"), ("G", "1"), ("H", "2")])
    def test_level_one_refused_before_any_field(self, capsys, monkeypatch, variant, n):
        # level 1 holds 8192^2 - 1 points, past POINTS_CAP, for every variant:
        # the command is refused before F_{8192^2} (or any field) is built
        def fail(*args):
            raise AssertionError("field built")

        monkeypatch.delenv("DRINFELD_SIZE_CAP", raising=False)
        field._make_field_cached.cache_clear()  # so that any build reaches FieldCtx.__init__
        monkeypatch.setattr(FieldCtx, "__init__", fail)
        code = main(["points", "--p", "2", "--e", "13", "--m", "2", "--j", "1", "--n", n, "--variant", variant])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "resource limit: 67108863 points on one level exceed the cap 262144\n"

    def test_count_at_level_one_answers_to_size_cap(self, capsys, monkeypatch):
        # level 1 needs no field, but ss-count builds F_{7^10} first, past the size cap 2^26
        monkeypatch.delenv("DRINFELD_SIZE_CAP", raising=False)
        code = main(["ss-count", "--p", "7", "--m", "10", "--j", "1", "--n", "1"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "resource limit: p^(e*d) = 7^10 exceeds cap 67108864\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["points", "--n", "1", "--variant", "F"],
            ["points", "--n", "1", "--variant", "G"],
            ["points", "--n", "2", "--variant", "H"],
            ["verify", "--suite", "lemma1_6"],
            ["verify", "--suite", "thm1_7"],
            ["verify", "--suite", "all"],
        ],
        ids=["points-F", "points-G", "points-H", "lemma1_6", "thm1_7", "all"],
    )
    def test_listing_cap(self, capsys, monkeypatch, argv):
        # 2^17 - 1 points per level pass POINTS_CAP; listing F_{2^17} is refused
        monkeypatch.delenv("DRINFELD_SIZE_CAP", raising=False)
        code = main([*argv, "--p", "2", "--m", "17", "--j", "1"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "exceeds enumeration cap" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [["points", "--n", "1", "--variant", "F"], ["ss-count", "--n", "1"]],
        ids=["points", "ss-count"],
    )
    def test_non_prime_p_checked_before_cap(self, capsys, argv):
        # q^m = 64^3 is over the enumeration cap, but p = 4 is invalid first
        code = main([*argv, "--p", "4", "--e", "3", "--m", "3", "--j", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "invalid input: 4 is not prime\n"


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

    def test_out_of_memory_is_resource_limit(self, capsys, monkeypatch):
        def exhausted(params, n):
            raise MemoryError

        monkeypatch.setattr("drinfeld_towers.cli.count_supersingular", exhausted)
        code = main(["ss-count", "--p", "3", "--m", "9", "--j", "1", "--n", "2"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.splitlines() == ["resource limit: out of memory"]

    def test_wide_listing_is_resource_limit_at_once(self, capsys):
        # level 2 holds 2047 * 2^10 points: F's level sizes come from the
        # hyperplane T_1, with no walk over the 2047 successor sets
        start = time.perf_counter()
        code, out = run(capsys, "points", "--p", "2", "--m", "11", "--j", "1", "--n", "2", "--variant", "F")
        assert code == 3 and out == "" and time.perf_counter() - start < 1

    def test_deep_wide_ss_count_is_fast(self, capsys):
        # a 4,192-digit count from one rank, not from 3000 walked levels
        start = time.perf_counter()
        code, out = run(capsys, "ss-count", "--p", "5", "--m", "3", "--j", "1", "--n", "3000")
        assert code == 0 and json.loads(out)["match"] is True and time.perf_counter() - start < 1

    def test_deep_listing_is_resource_limit(self, capsys):
        # level 18 would hold 3 * 2^17 chains, over the per-level point cap
        code, out = run(
            capsys, "points", "--p", "2", "--m", "2", "--j", "1", "--n", "22", "--variant", "F"
        )
        assert code == 3 and out == ""

    def test_deep_csv_listing_prints_no_header(self, capsys):
        # points stream, but the cap walk runs before the header is printed
        code, out = run(
            capsys, "points", "--p", "2", "--m", "2", "--j", "1", "--n", "22", "--variant", "F",
            "--format", "csv",
        )
        assert code == 3 and out == ""

    def test_deep_ss_count_walks_past_the_point_cap(self, capsys):
        # counting lists no point, so 3 * 2^21 chains need no cap
        code, out = run(capsys, "ss-count", "--p", "2", "--m", "2", "--j", "1", "--n", "22")
        rec = json.loads(out)
        assert code == 0 and rec["enumerated"] == rec["formula"] == 6_291_456

    @pytest.mark.parametrize("n", ["14284", "20000", "1000000000"])
    def test_unprintable_count_is_resource_limit(self, capsys, n):
        # 3 * 2^(n-1) has more than 4,300 decimal digits from n = 14,284 on:
        # n = 14,284 passes the digit estimate and stops at serialization
        code, out = run(capsys, "ss-count", "--p", "2", "--m", "2", "--j", "1", "--n", n)
        assert code == 3 and out == ""

    def test_deepest_printable_count(self, capsys):
        code, out = run(capsys, "ss-count", "--p", "2", "--m", "2", "--j", "1", "--n", "14283")
        rec = json.loads(out)
        assert code == 0 and rec["enumerated"] == rec["formula"] == 3 * 2**14282

    def test_module_entry_point(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "drinfeld_towers", "bound", "--p", "2", "--m", "2"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0 and proc.stdout == "21/5\n"

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

    @pytest.mark.parametrize(
        "cap, argv",
        [
            ("5", ["points", "--p", "3", "--m", "2", "--j", "1", "--n", "1", "--variant", "F"]),
            ("5", ["ss-count", "--p", "3", "--m", "2", "--j", "1", "--n", "1"]),
            ("5", ["verify", "--suite", "lemma1_6", "--p", "3", "--m", "2", "--j", "1"]),
            ("5", ["fibers", "--p", "3", "--m", "2", "--j", "1", "--x", "[1,0]"]),
            # F_4 fits, but the splitting ambient F_16 of the theta suite does not
            ("10", ["verify", "--suite", "theta", "--p", "2", "--m", "2", "--j", "1"]),
        ],
        ids=["points", "ss-count", "verify-lemma1_6", "fibers", "verify-theta"],
    )
    def test_size_cap_is_resource_limit(self, capsys, monkeypatch, cap, argv):
        monkeypatch.setenv("DRINFELD_SIZE_CAP", cap)
        code, out = run(capsys, *argv)
        assert code == 3 and out == ""

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

    # m = 14,000 passes the digit estimate and stops at printing; the other
    # two stop before the arithmetic
    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--p", "2", "--m", "14000"],
            ["bound", "--p", "2", "--m", "100000000"],
            ["ss-count", "--p", "2", "--m", "2", "--j", "1", "--n", "1000000000"],
        ],
        ids=["bound-printing", "bound-estimate", "ss-count-estimate"],
    )
    def test_unprintable_value_is_resource_limit(self, capsys, argv):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "" and elapsed < 1
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("resource limit: ")

    def test_bound_of_a_composite_stays_usage_error_however_large_m(self, capsys):
        code = main(["bound", "--p", "4", "--m", "100000000"])
        assert code == 2 and capsys.readouterr().err == "invalid input: 4 is not prime\n"

    def test_large_prime(self, capsys):
        # 10^24 + 7 is prime and below the primality limit
        p = 10**24 + 7
        start = time.perf_counter()
        code, out = run(capsys, "bound", "--p", str(p), "--m", "2")
        assert code == 0 and time.perf_counter() - start < 1
        v = ihara_bound(p, 2)
        assert out == f"{v.numerator}/{v.denominator}\n"

    def test_prime_past_primality_limit_is_resource_limit(self, capsys):
        start = time.perf_counter()
        code = main(["points", "--p", str(10**30 + 57), "--m", "2", "--j", "1", "--n", "1", "--variant", "F"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "" and time.perf_counter() - start < 1
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("resource limit: ")


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

    def test_enumeration_cap_is_resource_limit(self, capsys):
        # the ambient F_{2^18} is under the size cap but too large to list
        code, out = run(capsys, "verify", "--suite", "lemma1_6", "--p", "2", "--m", "9", "--j", "1")
        assert code == 3 and out == ""

    def test_roundtrip_suite(self, capsys):
        code, out = run(capsys, "verify", "--suite", "roundtrip")
        doc = json.loads(out)
        assert code == 0
        skipped = [e for e in doc["report"] if e.get("skipped")]
        assert skipped and skipped[0]["skipped"] == "p divides k"

    def test_roundtrip_rejects_grid_params(self, capsys):
        # the suite runs fixed cases, so a grid would be echoed but not applied
        code = main(
            ["verify", "--suite", "roundtrip", "--p", "1", "--e", "0", "--m", "3", "--j", "3"]
        )
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err.count("\n") == 1

    @pytest.mark.parametrize("option", ["--e", "--m", "--j"])
    def test_grid_option_without_p_rejected(self, capsys, option):
        # without --p the default grid runs, so the option would be echoed but not applied
        code = main(["verify", "--suite", "rsu", option, "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err.count("\n") == 1


class TestRunConfig:
    """The configuration a report echoes is the parsed namespace (`_config`)."""

    @pytest.mark.parametrize(
        "option", [["--threads", "2"], ["--format", "json"]], ids=["threads", "format"]
    )
    def test_removed_option_rejected(self, capsys, option):
        code, out = run(capsys, "verify", "--suite", "rsu", *option)
        assert code == 2 and out == ""

    def test_serialization_has_no_thread_field(self):
        assert "threads" not in _config(fast_parse(["verify", "--suite", "rsu"]))

    def test_none_fields_dropped(self):
        d = _config(fast_parse(["bound", "--p", "2", "--m", "1"]))
        assert "variant" not in d and d["p"] == 2

    def test_config_serializes_every_set_field(self):
        ns = fast_parse(["points", "--p", "2", "--m", "2", "--j", "1", "--n", "3", "--variant", "F"])
        ns.size_cap = 5
        assert _config(ns) == {
            "command": "points", "p": 2, "e": 1, "m": 2, "j": 1, "n": 3, "variant": "F",
            "format": "json", "size_cap": 5, "seed": 0,
        }

    # each report's echo, as printed before the namespace became the configuration
    ECHOES = {
        "fibers": (
            ["fibers", "--p", "2", "--m", "3", "--j", "1", "--x", "[1,0,1]"],
            {"command": "fibers", "e": 1, "format": "json", "j": 1, "m": 3, "p": 2, "seed": 0,
             "x": "[1,0,1]"},
        ),
        "ss-count": (
            ["ss-count", "--p", "5", "--m", "3", "--j", "1", "--n", "2"],
            {"command": "ss-count", "e": 1, "format": "json", "j": 1, "m": 3, "n": 2, "p": 5, "seed": 0},
        ),
        "verify-p": (
            ["verify", "--suite", "lemma1_6", "--p", "2", "--m", "3", "--j", "2"],
            {"command": "verify", "e": 1, "format": "json", "j": 2, "m": 3, "p": 2, "seed": 0,
             "suite": "lemma1_6"},
        ),
        "verify-grid": (
            ["verify", "--suite", "rsu"],
            {"command": "verify", "e": 1, "format": "json", "seed": 0, "suite": "rsu"},
        ),
        "verify-seed": (
            ["verify", "--suite", "rsu", "--p", "2", "--e", "2", "--m", "3", "--j", "2", "--seed", "7"],
            {"command": "verify", "e": 2, "format": "json", "j": 2, "m": 3, "p": 2, "seed": 7,
             "suite": "rsu"},
        ),
    }

    @pytest.mark.parametrize("argv, echo", ECHOES.values(), ids=ECHOES)
    def test_report_echo(self, capsys, monkeypatch, argv, echo):
        monkeypatch.delenv("DRINFELD_SIZE_CAP", raising=False)
        code, out = run(capsys, *argv)
        assert code == 0 and json.loads(out)["config"] == dict(echo, size_cap=DEFAULT_SIZE_CAP)


# F_{q^m} above this size runs with the cap at this size; a full run stays
# near a second only up to q^m = 27 (q^m = 64 takes 8-12 s for points or
# thm1_7 at n = 3)
FUZZ_FIELD_LIMIT = 27
SMALL_TOWERS = [
    (p, e, m, j)
    for p in (2, 3, 5) for e in (1, 2, 3) for m in (2, 3) for j in range(1, m)
    if (p**e) ** m <= FUZZ_FIELD_LIMIT
]


@st.composite
def cli_runs(draw):
    command = draw(st.sampled_from(["points", "fibers", "ss-count", "verify", "bound"]))
    # half the draws are towers that run in full, which random draws seldom are
    p, e, m, j = draw(st.one_of(st.sampled_from(SMALL_TOWERS), st.tuples(
        st.integers(1, 5), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))))
    n = draw(st.integers(0, 3))
    variant = draw(st.sampled_from("FGH"))
    suite = draw(st.sampled_from(SUITES + ("all",)))
    digits = draw(st.lists(st.integers(0, max(p - 1, 0)), min_size=e * m, max_size=e * m))
    x = draw(st.sampled_from(["[" + ",".join(map(str, digits)) + "]", "", "[", "[1,2", "abc", "[9]"]))
    cap = draw(st.sampled_from([None, "abc", "0", "5", str(FUZZ_FIELD_LIMIT)]))
    if cap is None and (p**e) ** m > FUZZ_FIELD_LIMIT:
        cap = str(FUZZ_FIELD_LIMIT)
    params = ["--p", str(p), "--e", str(e), "--m", str(m), "--j", str(j)]
    argv = {
        "points": ["points", *params, "--n", str(n), "--variant", variant],
        "fibers": ["fibers", *params, "--x", x],
        "ss-count": ["ss-count", *params, "--n", str(n)],
        "verify": ["verify", "--suite", suite, *params],
        "bound": ["bound", "--p", str(p), "--m", str(m)],
    }[command]
    # every command but bound builds F_{q^m} once its input is valid
    builds = (
        command != "bound"
        and is_prime(p) and e >= 1 and 1 <= j < m and math.gcd(j, m - j) == 1
        and (command not in ("points", "ss-count") or n >= 1)
        and (command != "points" or variant != "H" or n >= 2)
        and not (command == "verify" and suite == "theta" and (m - j) % p == 0)
        and not (command == "verify" and suite == "roundtrip")
    )
    return argv, cap, builds and cap in ("5", str(FUZZ_FIELD_LIMIT)) and int(cap) < (p**e) ** m


# the messages by which main refuses a combination of verify options
VERIFY_ARGUMENT_ERRORS = (
    "verify --suite roundtrip runs fixed cases; it takes no --p/--e/--m/--j",
    "verify with --p also needs --m and --j",
    "verify with --e, --m or --j also needs --p",
)


@settings(max_examples=100, deadline=None)
@given(cli_runs())
def test_main_exit_codes(run_args):
    argv, cap, over_cap = run_args
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ):
        os.environ.pop("DRINFELD_SIZE_CAP", None)
        if cap is not None:
            os.environ["DRINFELD_SIZE_CAP"] = cap
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    err_lines = err.getvalue().splitlines()
    if code in (0, 1):
        assert err_lines == []
    if code in (2, 3):
        assert out.getvalue() == ""
    if code == 3:
        assert len(err_lines) == 1 and err_lines[0].startswith("resource limit: ")
    if code == 2:
        one_line = len(err_lines) == 1 and (
            err_lines[0].startswith("invalid input: ") or err_lines[0] in VERIFY_ARGUMENT_ERRORS
        )
        usage = bool(err_lines) and err_lines[0].startswith("usage: ") and "error: " in err_lines[-1]
        assert one_line or usage, err_lines
    if code == 1:
        doc = json.loads(out.getvalue())
        assert argv[0] in ("verify", "ss-count")
        assert any(e["failures"] for e in doc["report"]) if argv[0] == "verify" else not doc["match"]
    if over_cap:
        assert code == 3


# --- the fast parse against argparse --------------------------------------


PARSER = build_parser()  # parse_args leaves a parser as it was


def argparse_options(argv):
    """vars(build_parser().parse_args(argv)), or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


# option names of any command, abbreviations, unknown names and help
OPTION_NAMES = sorted({name for _, options in COMMANDS.values() for name in options}) + [
    "su", "va", "se", "fo", "threads", "P", "h", "help", "",
]
ODD_TEXTS = [
    "0", "-1", "-3", "-1_0", "-2 ", "3_0", " 3 ", "\uff13", "+2", "1e3",  # ints argparse may or may not take
    "nope", "all", "F", "csv",  # no choice, or another option's
    "", "--", "-", "-h", "--p", "x y", "[0,1]", "[", "abc",
]
DEFECTS = [None, "odd value", "odd value", "typo", "extra", "joined", "repeat", "before", "drop", "missing"]


def plain_texts(spec):
    if "choices" in spec:
        return st.sampled_from(spec["choices"])
    if "type" in spec:
        return st.integers(1, 5).map(str)
    return st.sampled_from(["[0,1]", "[1]", "abc", "x y"])


@st.composite
def token_argvs(draw):
    """argv from a token grammar: a command with its declared options in any
    order and plain values, then at most two defects, each of which argparse
    may or may not accept."""
    command = draw(st.sampled_from(list(COMMANDS)))
    options = COMMANDS[command][1]
    pairs = [
        ["--" + name, draw(plain_texts(options[name]))]
        for name in draw(st.permutations(list(options)))
        if options[name].get("required") or draw(st.booleans())
    ]
    defects = [draw(st.sampled_from(DEFECTS)), draw(st.one_of(st.none(), st.sampled_from(DEFECTS)))]
    for defect in defects:
        at = draw(st.integers(0, len(pairs)))
        pair = pairs[at % len(pairs)] if pairs else None
        if defect == "typo":
            command = draw(st.sampled_from(["point", "Verify", "ss_count", "", "-h", "--help"]))
        elif defect == "extra":  # an option of this command or another, with any number of dashes
            name = draw(st.one_of(st.sampled_from(list(options)), st.sampled_from(OPTION_NAMES)))
            texts = st.sampled_from(ODD_TEXTS)
            if name in options:
                texts = st.one_of(plain_texts(options[name]), texts)
            pairs.insert(at, [draw(st.sampled_from(["--", "-", "", "---"])) + name, draw(texts)])
        elif pair and defect == "odd value":
            choices = options.get(pair[0][2:], {}).get("choices", ())
            pair[1:] = [draw(st.sampled_from([*ODD_TEXTS, *(c.swapcase() for c in choices)]))]
        elif pair and defect == "joined":
            pair[:] = ["=".join(pair)]
        elif pair and defect == "repeat":
            pairs.insert(at, [pair[0], draw(st.sampled_from(["2", "F", "all", *ODD_TEXTS]))])
        elif pair and defect == "drop":  # the last option's value
            del pairs[-1][-1:]
        elif pair and defect == "missing":
            pairs.remove(pair)
    tokens = [token for pair in pairs for token in pair]
    if "before" in defects:
        return tokens[:2] + [command] + tokens[2:]
    return [command, *tokens]


@settings(max_examples=1000, deadline=None)
@given(token_argvs())
def test_fast_parse_is_argparse_or_declines(argv):
    fast = fast_parse(argv)
    assert fast is None or vars(fast) == argparse_options(argv)


@settings(max_examples=100, deadline=None)
@given(cli_runs())
def test_fast_parse_accepts_what_argparse_accepts(run_args):
    # cli_runs repeats no option and writes no value with a leading "-", so
    # every argv it draws that argparse accepts is well formed
    argv = run_args[0]
    fast = fast_parse(argv)
    assert (None if fast is None else vars(fast)) == argparse_options(argv)


def _benchmark_workloads():
    path = os.path.join(ROOT, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    # run.py imports its sibling modules, and its dataclasses look it up by name
    with mock.patch.object(sys, "path", [os.path.dirname(path), *sys.path]), \
            mock.patch.dict(sys.modules, {spec.name: module}):
        spec.loader.exec_module(module)
    return module


def test_fast_parse_accepts_the_benchmark_commands():
    bench = _benchmark_workloads()
    commands = [cmd for cmds in bench.WORKLOADS.values() for cmd in cmds]
    assert len(commands) >= 9
    for cmd in commands:
        for seed in (bench.DEFAULT_SEED, 1):
            argv = cmd.args(seed)
            fast = fast_parse(argv)
            assert fast is not None and vars(fast) == argparse_options(argv), argv


# stdout, stderr and exit code of help and usage errors, captured with
# COLUMNS=80 before the parser was built from COMMANDS
with open(os.path.join(ROOT, "tests", "argparse_text.json"), encoding="utf-8") as _f:
    ARGPARSE_TEXT = json.load(_f)


@pytest.mark.parametrize("pin", ARGPARSE_TEXT, ids=lambda pin: " ".join(pin["argv"]) or "no-args")
def test_argparse_text_is_unchanged(capsys, monkeypatch, pin):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(list(pin["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (pin["exit"], pin["stdout"], pin["stderr"])
