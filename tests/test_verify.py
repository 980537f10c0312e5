"""The seeded draws of the rsu_random check, the reports they give at nonzero
seeds, and how an error raised inside a suite reaches the report or the CLI."""

import hashlib
import itertools
import json
import random

import pytest

from drinfeld_towers import verify
from drinfeld_towers.cli import main
from drinfeld_towers.errors import NoMarkedPreimage, NotCyclic, NotOnCurve, SizeCapExceeded
from drinfeld_towers.isogeny import TowerParams
from drinfeld_towers.towers import fiber_solutions
from drinfeld_towers.verify import DEFAULT_GRID, _random_fiber_pairs

# stdout sha256 at nonzero seeds, as printed when rsu_random drew x by
# `rng.choice` over a listing of the ambient's nonzero elements
SEEDED_SHA256 = {
    "verify --suite rsu --p 2 --e 1 --m 2 --j 1 --seed 3": "8b1a334a9f96c8c44733bdf64cdbf22c1fa2ffaad6797ee5b572a93e52cbe655",
    "verify --suite rsu --p 2 --e 1 --m 3 --j 2 --seed 3": "ea73c9355052f3a2978154821dd8be08f2033ee6d3a8b757d6311e01ce60c62c",
    "verify --suite rsu --p 3 --e 1 --m 2 --j 1 --seed 3": "99a2f60fa644e8db6ccd538509850bd2c8e17dd7c1d3d433da803eac563b1ae2",
    "verify --suite rsu --p 3 --e 1 --m 3 --j 2 --seed 3": "8e0e64c5cfb8de86fbd654381ba54587bd51d6a6a9e086b1fd6e0a95bbfc71eb",
    "verify --suite rsu --p 2 --e 2 --m 3 --j 2 --seed 3": "2936a5bc1b1c9b7eeae6dd280502becfe3d83fca82833df48044136ff88419f0",
    "verify --suite rsu --p 5 --e 1 --m 2 --j 1 --seed 3": "c3e6872ebc88498be1af1879a3aad985d0a8edc7539dbd12499c29f7525841d1",
    "verify --suite all --seed 1": "c850b6e7126d67cef454142309b7b8a6a7b82f2c2e86d28fcb03c31d51ad174e",
}


def _choice_over_listing(params, amb, rng):
    """The pairs drawn by `rng.choice` over the listed nonzero elements."""
    nonzero = [x for x in amb.all_elements() if x != amb.zero]
    while True:
        x = rng.choice(nonzero)
        ys = fiber_solutions(params, amb, x)
        if ys:
            yield x, rng.choice(ys)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("tup", DEFAULT_GRID, ids=str)
def test_draw_matches_choice_over_listing(tup, seed):
    params = TowerParams(*tup)
    amb = params.field(2 * params.m)
    key = f"{seed}-{tup}"  # the suite's seeding
    drawn = list(itertools.islice(_random_fiber_pairs(params, amb, random.Random(key)), 20))
    listed = list(itertools.islice(_choice_over_listing(params, amb, random.Random(key)), 20))
    assert drawn == listed


@pytest.mark.parametrize("command", sorted(SEEDED_SHA256))
def test_seeded_report_unchanged(command, capsys, monkeypatch):
    monkeypatch.delenv("DRINFELD_SIZE_CAP", raising=False)
    assert main(command.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SEEDED_SHA256[command]


# the check each suite's cases call, patched to raise; theta and rsu run on one
# grid tuple, roundtrip on its fixed cases
RAISING_CHECKS = {
    "rsu": ("rsu", ["--p", "2", "--m", "2", "--j", "1"]),
    "check_theta_marked_point": ("theta", ["--p", "2", "--m", "2", "--j", "1"]),
    "check_roundtrip": ("roundtrip", []),
}


def _raise(exc):
    def check(*args):
        raise exc

    return check


@pytest.mark.parametrize("exc", [SizeCapExceeded("cap hit"), MemoryError()], ids=type)
@pytest.mark.parametrize("target", sorted(RAISING_CHECKS))
def test_resource_limit_inside_suite_exits_3(target, exc, capsys, monkeypatch):
    monkeypatch.setattr(verify, target, _raise(exc))
    suite, params = RAISING_CHECKS[target]
    assert main(["verify", "--suite", suite, *params]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("resource limit: ")


@pytest.mark.parametrize(
    "target, exc",
    [("rsu", NotOnCurve), ("check_theta_marked_point", NoMarkedPreimage), ("check_roundtrip", NotCyclic)],
)
def test_property_error_inside_suite_is_a_failure(target, exc, capsys, monkeypatch):
    monkeypatch.setattr(verify, target, _raise(exc("property fails")))
    suite, params = RAISING_CHECKS[target]
    assert main(["verify", "--suite", suite, *params]) == 1
    report = json.loads(capsys.readouterr().out)["report"]
    run = [e for e in report if not e.get("skipped")]
    assert run and all(len(e["failures"]) == e["cases_run"] > 0 for e in run)
    assert all(f.endswith(": property fails") for e in run for f in e["failures"])


@pytest.mark.parametrize("target", sorted(RAISING_CHECKS))
def test_bug_inside_suite_propagates(target, monkeypatch):
    monkeypatch.setattr(verify, target, _raise(TypeError("a bug")))
    suite, _ = RAISING_CHECKS[target]
    with pytest.raises(TypeError, match="a bug"):
        verify.run_suite(suite, ((2, 1, 2, 1),))
