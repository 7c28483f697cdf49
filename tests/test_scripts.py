"""The scripts that import the library, run as a user runs them, so a
change to what they call fails here and not only when someone runs them."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

from nervelim.presets import PRESETS

ROOT = Path(__file__).resolve().parent.parent


def _script(name, *args, cwd):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
    )


def test_betti_tables_prints_each_presets_chain(tmp_path):
    p = _script("betti_tables.py", cwd=tmp_path)
    assert p.returncode == 0, p.stderr
    headers = re.findall(r"^(\S+)  \(nerve stabilized: (?:True|False)\)$", p.stdout, re.M)
    assert headers == list(PRESETS)


def test_run_presets_prints_a_row_per_preset(tmp_path):
    p = _script("run_presets.py", "--out", str(tmp_path / "runs"), cwd=tmp_path)
    # circle-a3 fails nerve_absorption by design: the flag complex of its
    # one level is a filled triangle, its nerve the boundary
    assert p.returncode == 1, p.stderr
    table = p.stdout.split("\npreset ", 1)[1].splitlines()[1:]
    assert [row.split()[0] for row in table] == list(PRESETS)
    failures = {row.split()[0]: row.split()[2] for row in table}
    assert failures == {name: "-" for name in PRESETS} | {"circle-a3": "nerve_absorption"}
