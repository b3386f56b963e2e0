"""The rows of tests/scale_checks.py, each input written at n = 63."""

import dataclasses
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
    # an identity row maps a forest; any other reads what its kind embeds
    assert isinstance(graph, Forest if row.identity else fileio.KINDS[row.kind].embeds)
    if row.kind == "caterpillar":
        caterpillar_spine(graph)
    if isinstance(graph, ChordedCycle):
        assert graph.h == 2


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


@pytest.mark.parametrize("name", ["binary", "random", "explicit-random"])
def test_row_fails_a_command_over_its_peak_ceiling(tmp_path, monkeypatch, name):
    # every command exits as the row expects and prints what it checks;
    # `ugg embed`, `ugg verify` and the verify of a changed host copy read
    # the peak set here, and each fails its row only over its own ceiling
    monkeypatch.chdir(tmp_path)
    row = dataclasses.replace(next(r for r in scale_checks.ROWS if r.name == name), n=63,
                              explicit=None)
    assert row.verify_mb is not None
    mb = {}

    def command(argv, limit):
        if argv[1] == "build":  # a host file of 12 lines, the 10th of them changed for a copy
            scale_checks.write(argv[-1], [f"line {i}" for i in range(12)])
        if argv[-1].startswith("changed-"):
            result = subprocess.CompletedProcess(argv, 2, "", f"error: {row.changed[1]}\n")
            return result, mb.get("changed", 20)
        return subprocess.CompletedProcess(argv, 0, "ok\n", ""), mb.get(argv[1], 20)

    monkeypatch.setattr(scale_checks, "command", command)
    caps = {"embed": row.embed_mb, "verify": row.verify_mb,
            "changed": row.verify_mb if row.changed else None}
    mb.update((key, cap) for key, cap in caps.items() if cap is not None)
    peaks = []
    scale_checks.run(row, peaks)
    want = [("build", 20), ("embed", mb.get("embed", 20)), ("verify", mb["verify"])]
    assert peaks == want + ([("verify", mb["changed"])] if "changed" in mb else [])
    checks = {"embed": "ugg embed", "verify": "ugg verify",
              "changed": "ugg verify of the changed host file"}
    for over in list(mb):
        mb[over] += 1
        with pytest.raises(scale_checks.Failed, match=f"^{checks[over]} peaked at {mb[over]} MB"):
            scale_checks.run(row, [])
        mb[over] -= 1
    if name == "explicit-random":
        assert (row.embed_mb, row.verify_mb) == (None, scale_checks.EXPLICIT_VERIFY_MB)
    else:
        assert (row.embed_mb, row.verify_mb) == (scale_checks.EMBED_MB, scale_checks.VERIFY_MB)
