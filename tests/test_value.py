"""The immutable value classes, and the import cost they exist to keep low."""

import json
import os
import subprocess
import sys

import pytest

from drinfeld_towers.drinfeld import DrinfeldModule
from drinfeld_towers.isogeny import TowerParams, XChain
from drinfeld_towers.ore import Subspace
from drinfeld_towers.towers import RSU, TowerPoint, fiber_solutions

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

P221 = TowerParams(2, 1, 2, 1)
F4 = P221.field(2)
W = F4.from_int(2)
Y = fiber_solutions(P221, F4, F4.one)[0]

# each builds a new instance, equal to every other it builds
BUILDERS = {
    "TowerParams": lambda: TowerParams(2, 1, 2, 1),
    "XChain": lambda: XChain(P221, F4, (F4.one, Y)),
    "DrinfeldModule": lambda: DrinfeldModule(F4, 2, 1, W),
    "Subspace": lambda: Subspace.from_vectors(F4, [W]),
    "TowerPoint": lambda: TowerPoint("F", P221, F4, (F4.one, Y)),
    "RSU": lambda: RSU(F4.one, W, F4.zero),
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
class TestValueClasses:
    def test_fields_cannot_be_assigned(self, build):
        obj = build()
        field = type(obj).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))
        with pytest.raises(AttributeError):
            delattr(obj, field)
        with pytest.raises(AttributeError):
            obj.extra = 1

    def test_equal_fields_are_equal_and_hash_equal(self, build):
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)

    def test_repr_names_the_class(self, build):
        obj = build()
        assert repr(obj).startswith(type(obj).__name__ + "(")


@pytest.mark.parametrize("values", [(1, 2), (1, 2, 3, 4)], ids=["too-few", "too-many"])
def test_assign_needs_one_value_per_field(values):
    blank = RSU.__new__(RSU)
    with pytest.raises(ValueError, match="3 fields"):
        blank._assign(*values)


def test_different_fields_differ():
    assert TowerParams(2, 1, 3, 1) != TowerParams(2, 1, 3, 2)
    assert DrinfeldModule(F4, 2, 1, W) != DrinfeldModule(F4, 2, 1, F4.one)


def test_other_types_never_equal():
    assert TowerParams(2, 1, 2, 1) != (2, 1, 2, 1)
    assert RSU(F4.one, W, F4.zero) != (F4.one, W, F4.zero)


def test_repr_shows_fields_not_derived_data():
    assert repr(P221) == "TowerParams(p=2, e=1, m=2, j=1, k=1, a=1, b=0)"


def test_cli_import_skips_heavy_modules():
    # compare before and after: what `site` preloads differs between machines
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import drinfeld_towers.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(json.loads(proc.stdout))
    assert "drinfeld_towers.cli" in added
    assert not added & {"dataclasses", "inspect", "fractions"}


# one well-formed command of each subcommand, cheap enough to run together
WELL_FORMED = [
    ["points", "--p", "2", "--m", "2", "--j", "1", "--n", "2", "--variant", "F"],
    ["fibers", "--p", "2", "--m", "2", "--j", "1", "--x", "[1,0]"],
    ["ss-count", "--p", "2", "--m", "2", "--j", "1", "--n", "3"],
    ["verify", "--suite", "lemma1_6", "--p", "2", "--m", "2", "--j", "1"],
    ["bound", "--p", "3", "--m", "2"],
]
ARGPARSE_MODULES = ["argparse", "gettext", "locale"]


def _run_main(argvs: list) -> dict:
    """Run main on each argv in one fresh interpreter; its exit codes, stderr
    and the modules of ARGPARSE_MODULES it loaded that site had not."""
    code = (
        "import contextlib, io, json, sys\n"
        f"argvs, watched = {argvs!r}, {ARGPARSE_MODULES!r}\n"
        "before = set(sys.modules)\n"
        "from drinfeld_towers.cli import main\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        "    codes = [main(argv) for argv in argvs]\n"
        "loaded = sorted(m for m in watched if m in sys.modules and m not in before)\n"
        "print(json.dumps({'codes': codes, 'stderr': err.getvalue(), 'loaded': loaded}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_well_formed_commands_skip_argparse():
    # argparse and the gettext and locale it loads cost a few ms of every
    # command's start-up; only help and usage errors need them
    run = _run_main(WELL_FORMED)
    assert run == {"codes": [0] * len(WELL_FORMED), "stderr": "", "loaded": []}


def test_malformed_command_still_prints_argparse_usage():
    run = _run_main([["ss-count", "--p", "2", "--m", "2", "--j", "1", "--n", "0"]])
    assert run["codes"] == [2] and "argparse" in run["loaded"]
    assert run["stderr"].startswith("usage: drinfeld-towers ss-count [-h]")
    assert run["stderr"].endswith("error: argument --n: must be at least 1, got 0\n")
