"""The library names the benchmark's set-up probe imports.

``benchmark/probe_setup.py`` loads, converts (factor data), normalizes
and validates specs through ``FactorSpec``, ``factor_to_scheme``,
``load_spec``, ``normalize(...).spec`` and ``validate``.  Running its
``main`` on the shipped specs here makes a change that breaks one of
those names fail in this suite, not first in a benchmark run.
"""

import runpy
import sys
from pathlib import Path

from conftest import SPEC_DIR

ROOT = Path(__file__).resolve().parent.parent


def test_probe_setup_runs_on_the_shipped_specs(tmp_path, monkeypatch):
    specs = sorted(SPEC_DIR.iterdir())
    assert any(p.suffix == ".factor" for p in specs)
    listing = tmp_path / "specs.txt"
    listing.write_text("".join(f"{p}\n" for p in specs), encoding="utf-8")
    probe = runpy.run_path(str(ROOT / "benchmark" / "probe_setup.py"))
    monkeypatch.setattr(sys, "path", list(sys.path))    # main prepends the source dir
    assert probe["main"](str(ROOT / "src"), str(listing)) == 0
