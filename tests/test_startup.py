"""Start-up guards.  Every CLI command is a fresh process that first
imports toricq.cli, so that import loads neither dataclasses nor logging
and freezes the heap it built; the library's rare warnings still reach
logging, which the first of them imports."""

import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from toricq import library
from toricq.polytope import polytope_from_json
from toricq.quadrature import integrate, triangulate

FRESH_IMPORT = """
import gc, sys
import toricq.cli
print(sorted({"dataclasses", "logging"} & set(sys.modules)),
      gc.get_freeze_count() > 0)
"""


def test_import_loads_neither_dataclasses_nor_logging():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", FRESH_IMPORT],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    assert proc.stdout == "[] True\n"


def test_first_warnings_reach_logging(monkeypatch, caplog):
    # the package logger as a fresh process has it: no handler until the
    # first warning, then exactly one NullHandler however many follow
    package = logging.getLogger("toricq")
    monkeypatch.setattr(package, "handlers", [])
    monkeypatch.setenv("TORICQ_CELL_BUDGET", "8")
    with caplog.at_level(logging.WARNING, logger="toricq"):
        polytope_from_json({"dim": 1, "facets": [
            {"normal": [1], "offset": 0.1}, {"normal": [-1], "offset": 1}]})
        integrate(lambda x: np.exp(-10 * np.sum((x - 0.3) ** 2, axis=-1)),
                  triangulate(library.square(1)), tol=1e-12)
    assert [r.name for r in caplog.records] == ["toricq.polytope",
                                                "toricq.quadrature"]
    assert "rationalised" in caplog.records[0].getMessage()
    assert "budget 8" in caplog.records[1].getMessage()
    assert [type(h) for h in package.handlers] == [logging.NullHandler]
