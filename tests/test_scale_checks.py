"""The rows of tests/scale_checks.py, each input written at n = 63."""

import importlib
import subprocess
import sys
import time

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


def test_command_reads_its_peak_rss_and_exit_code():
    script = "import sys; x = b'x' * (64 << 20); print(len(x)); sys.exit(3)"
    result, mb = scale_checks.command([sys.executable, "-c", script], 60)
    assert (result.returncode, result.stdout) == (3, f"{64 << 20}\n")
    assert 64 < mb < 1024


def test_command_peak_is_not_this_process_peak():
    # a peak of this process, gone before the command starts, stays out of
    # the command's reading
    resource = pytest.importorskip("resource")
    x = b"x" * (128 << 20)
    del x
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _, mb = scale_checks.command([sys.executable, "-c", "pass"], 60)
    assert mb < own - 64, (mb, own)


def test_command_stops_at_its_limit():
    t0 = time.monotonic()
    with pytest.raises(subprocess.TimeoutExpired):
        scale_checks.command([sys.executable, "-c", "import time; time.sleep(60)"], 0.5)
    assert time.monotonic() - t0 < 30
