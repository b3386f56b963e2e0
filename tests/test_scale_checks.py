"""The rows of tests/scale_checks.py, each input written at n = 63."""

import importlib
import subprocess

import pytest

import scale_checks
from ugg.convex import ChordedCycle
from ugg.trees import Forest, caterpillar_spine
from ugg.workbench import fileio


def test_import_runs_no_row(monkeypatch, capsys):
    def run(*args, **kwargs):
        raise AssertionError(f"ran {args}")

    monkeypatch.setattr(subprocess, "run", run)
    importlib.reload(scale_checks)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("row", scale_checks.ROWS, ids=lambda row: row.name)
def test_row_input_loads(tmp_path, row):
    path = tmp_path / "input.txt"
    scale_checks.write(path, scale_checks.input_lines(row.generator, 63, row.seed))
    graph = fileio.load_input(path)
    if row.expect or row.kind in ("universal", "caterpillar"):
        assert isinstance(graph, Forest)
    if row.kind == "caterpillar":
        caterpillar_spine(graph)
    if not row.expect and row.kind == "twochord":
        assert isinstance(graph, ChordedCycle) and graph.h == 2
