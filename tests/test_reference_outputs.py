"""Every benchmark command prints the stdout frozen in perfbench/reference.json.

The reference maps each CLI command ("{seed}" standing for the seed) to the
sha256 of its stdout at seed 0.  Running them in-process here catches a
changed report before the benchmark does.
"""

import hashlib
import json
from pathlib import Path

import pytest

from drinfeld_towers.cli import main

REFERENCE = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "reference.json").read_text()
)


@pytest.mark.parametrize("command", sorted(REFERENCE))
def test_stdout_matches_reference(command, capsys, monkeypatch):
    monkeypatch.delenv("DRINFELD_SIZE_CAP", raising=False)
    code = main(command.replace("{seed}", "0").split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REFERENCE[command]
