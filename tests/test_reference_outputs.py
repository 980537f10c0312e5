"""Every benchmark command prints the stdout frozen in perfbench/reference.json.

The reference maps each CLI command ("{seed}" standing for the seed) to the
sha256 of its stdout at seed 0.  Running them in-process here catches a
changed report before the benchmark does.  The commands over F_9 (odd p,
e > 1), where F_q runs on its cached operations rather than on tables, are
in no workload and are pinned here alone.
"""

import hashlib
import json
from pathlib import Path

import pytest

from drinfeld_towers.cli import main

REFERENCE = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "reference.json").read_text()
)

ODD_P_EXTENSION_SHA256 = {
    "verify --suite thm1_7 --p 3 --e 2 --m 2 --j 1": "b7de61a93ab26901df37e4033f8a8585213d92e3fc80ae4c9b514a4d687f6946",
    "verify --suite theta --p 3 --e 2 --m 2 --j 1": "9dc397fb8c6a8a52bb4059bb19d63120937ccee324babef193af404993660d23",
    "verify --suite rsu --p 3 --e 2 --m 2 --j 1": "a541ef31ce8b244ce8260013806ea02c7228a0c412c4237987c0c9574df9f6b2",
    "points --p 3 --e 2 --m 3 --j 1 --n 2 --variant G": "5a6724344a589bd412f9c6257b08b923284bf47465b11ed497fe8721cef639ff",
}


def _stdout_sha256(command, capsys, monkeypatch):
    monkeypatch.delenv("DRINFELD_SIZE_CAP", raising=False)
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(REFERENCE))
def test_stdout_matches_reference(command, capsys, monkeypatch):
    assert _stdout_sha256(command.replace("{seed}", "0"), capsys, monkeypatch) == REFERENCE[command]


@pytest.mark.parametrize("command", sorted(ODD_P_EXTENSION_SHA256))
def test_odd_p_extension_stdout_pinned(command, capsys, monkeypatch):
    assert _stdout_sha256(command, capsys, monkeypatch) == ODD_P_EXTENSION_SHA256[command]
