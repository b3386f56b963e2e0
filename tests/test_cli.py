"""End-to-end command-line flows through cli.main()."""

import argparse
import inspect
import itertools
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

import ugg
from ugg import cli, errors
from ugg.convex import _CaterpillarHost, _CustomHost, _StarHost, build_twochord_host
from ugg.errors import SizeTooLarge
from ugg.host import Embedding
from ugg.trees import Forest
from ugg.ugraph import UniversalGraph
from ugg.workbench import fileio, selftest
from ugg.workbench.families import enumerate_caterpillars, enumerate_chorded_cycles


def write_forest(tmp_path, name, n, edges):
    p = tmp_path / name
    p.write_text("\n".join(fileio.forest_lines(Forest(n, edges))) + "\n", encoding="utf-8")
    return str(p)


def write_host(tmp_path, kind, n, edges):
    p = tmp_path / "host.txt"
    lines = ["ugg-graph v1", f"kind {kind}", f"n {n}", *(f"e {u} {v}" for u, v in edges)]
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(p)


def verify_identity(tmp_path, host, n_in):
    """`ugg verify` of the path 0-1-...-(n_in - 1) under the identity map."""
    forest = write_forest(tmp_path, "path.txt", n_in, [(i, i + 1) for i in range(n_in - 1)])
    emb = tmp_path / "emb.txt"
    emb.write_text("".join(f"m {t} {t}\n" for t in range(n_in)), encoding="utf-8")
    return cli.main(["verify", "--host", host, "--input", forest, "--embedding", str(emb)])


def traced(call):
    """What a call returns, and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_universal_build_embed_verify(tmp_path, capsys):
    host = str(tmp_path / "host.txt")
    emb = str(tmp_path / "emb.txt")
    forest = write_forest(tmp_path, "forest.txt", 6, [(0, 1), (1, 2), (2, 3), (4, 5)])
    assert cli.main(["build", "--kind", "universal", "--n", "6", "--out", host]) == 0
    assert cli.main(["embed", "--host", host, "--input", forest, "--out", emb]) == 0
    assert cli.main(["verify", "--host", host, "--input", forest, "--embedding", emb]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_embed_that_fails_validation_writes_nothing(tmp_path, monkeypatch, capsys):
    # an embedder that maps (0, 1) and (2, 3) onto crossing host edges: the
    # failures are printed, the exit code is 1 and no embedding is written
    host = str(tmp_path / "host.txt")
    emb = tmp_path / "emb.txt"
    forest = write_forest(tmp_path, "forest.txt", 4, [(0, 1), (2, 3)])
    assert cli.main(["build", "--kind", "universal", "--n", "15", "--out", host]) == 0
    monkeypatch.setattr("ugg.embedder.embed_forest",
                        lambda host, forest: Embedding({0: 1, 1: 3, 2: 2, 3: 5}))
    capsys.readouterr()
    assert cli.main(["embed", "--host", host, "--input", forest, "--out", str(emb)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "embedding failed validation:", "  ('Crossing', ((1, 3), (2, 5)))"]
    assert not emb.exists()


def test_caterpillar_build_embed_verify(tmp_path):
    host = str(tmp_path / "host.txt")
    emb = str(tmp_path / "emb.txt")
    # a 7-vertex caterpillar: spine 0-1-2 with leaves hanging off
    forest = write_forest(tmp_path, "cat.txt", 7,
                          [(0, 1), (1, 2), (0, 3), (1, 4), (1, 5), (2, 6)])
    assert cli.main(["build", "--kind", "caterpillar", "--n", "7", "--out", host]) == 0
    assert cli.main(["embed", "--host", host, "--input", forest, "--out", emb]) == 0
    assert cli.main(["verify", "--host", host, "--input", forest, "--embedding", emb]) == 0


def test_twochord_build_embed_verify(tmp_path):
    host = str(tmp_path / "host.txt")
    emb = str(tmp_path / "emb.txt")
    cc = tmp_path / "cc.txt"
    cc.write_text("n 10\nh 2\nc 0 3\nc 5 9\n", encoding="utf-8")
    assert cli.main(["build", "--kind", "twochord", "--n", "10", "--out", host]) == 0
    assert cli.main(["embed", "--host", host, "--input", str(cc), "--out", emb]) == 0
    assert cli.main(["verify", "--host", host, "--input", str(cc), "--embedding", emb]) == 0
    mapping = fileio.load_embedding(emb)
    assert mapping[9] == 0 and mapping[0] == 1


def test_verify_rejects_tampered_embedding(tmp_path, capsys):
    host = str(tmp_path / "host.txt")
    emb = str(tmp_path / "emb.txt")
    forest = write_forest(tmp_path, "forest.txt", 6, [(0, 1), (1, 2), (2, 3), (4, 5)])
    cli.main(["build", "--kind", "universal", "--n", "6", "--out", host])
    cli.main(["embed", "--host", host, "--input", forest, "--out", emb])
    mapping = fileio.load_embedding(emb)
    mapping[0] = mapping[1]
    fileio.save_embedding(mapping, emb)
    code = cli.main(["verify", "--host", host, "--input", forest, "--embedding", emb])
    assert code == 1
    assert "failed" in capsys.readouterr().out


def test_verify_reports_crossing(tmp_path, capsys):
    host = str(tmp_path / "host.txt")
    emb = tmp_path / "emb.txt"
    forest = write_forest(tmp_path, "forest.txt", 7, [(1, 3), (2, 5)])
    cli.main(["build", "--kind", "universal", "--n", "7", "--out", host])
    emb.write_text("".join(f"m {t} {t}\n" for t in range(7)), encoding="utf-8")
    code = cli.main(["verify", "--host", host, "--input", forest,
                     "--embedding", str(emb)])
    assert code == 1
    assert "Crossing" in capsys.readouterr().out


def test_verify_prints_the_crossing_count_and_at_most_20_witnesses(tmp_path, capsys):
    # the chords (i, i + 31) of the complete 63-gon pairwise interleave
    n, half = 63, 31
    host = tmp_path / "host.txt"
    host.write_text(f"ugg-graph v1\nkind complete\nn {n}\n", encoding="utf-8")
    forest = write_forest(tmp_path, "matching.txt", n, [(i, i + half) for i in range(half)])
    emb = tmp_path / "emb.txt"
    emb.write_text("".join(f"m {t} {t}\n" for t in range(n)), encoding="utf-8")
    code = cli.main(["verify", "--host", str(host), "--input", forest, "--embedding", str(emb)])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[0] == f"failed: {half * (half - 1) // 2} problem(s)"
    assert len(out) == 21 and all("Crossing" in line for line in out[1:])


def test_verify_rejects_extra_mapping_key(tmp_path, capsys):
    host = str(tmp_path / "host.txt")
    emb = tmp_path / "emb.txt"
    forest = write_forest(tmp_path, "forest.txt", 15, [(0, 1), (1, 2)])
    cli.main(["build", "--kind", "universal", "--n", "15", "--out", host])
    identity = "".join(f"m {t} {t}\n" for t in range(15))
    emb.write_text(identity, encoding="utf-8")
    args = ["verify", "--host", host, "--input", forest, "--embedding", str(emb)]
    assert cli.main(args) == 0
    emb.write_text(identity + "m 99 3\n", encoding="utf-8")
    assert cli.main(args) == 1
    assert "SizeMismatch" in capsys.readouterr().out


@pytest.mark.parametrize("role, text", [
    ("input", "n\n"),
    ("input", "n 10\nh\nc 0 3\nc 5 9\n"),
    ("host", "ugg-graph v1\nkind universal\nn\n"),
    ("host", "ugg-graph v1\nkind\nn 6\n"),
])
def test_header_without_value_exits_2(tmp_path, capsys, role, text):
    files = {"host": tmp_path / "host.txt", "input": tmp_path / "input.txt"}
    cli.main(["build", "--kind", "universal", "--n", "6", "--out", str(files["host"])])
    files["input"].write_text("n 6\ne 0 1\n", encoding="utf-8")
    files[role].write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["embed", "--host", str(files["host"]), "--input", str(files["input"]),
                     "--out", str(tmp_path / "e.txt")]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_malformed_input_exits_2(tmp_path):
    host = str(tmp_path / "host.txt")
    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense 1 2 3\n", encoding="utf-8")
    cli.main(["build", "--kind", "universal", "--n", "6", "--out", host])
    assert cli.main(["embed", "--host", host, "--input", str(bad),
                     "--out", str(tmp_path / "e.txt")]) == 2


def test_missing_file_exits_2(tmp_path):
    assert cli.main(["embed", "--host", str(tmp_path / "absent.txt"),
                     "--input", str(tmp_path / "absent2.txt"),
                     "--out", str(tmp_path / "e.txt")]) == 2


def test_wrong_input_for_host_exits_2(tmp_path):
    host = str(tmp_path / "host.txt")
    cc = tmp_path / "cc.txt"
    cc.write_text("n 10\nh 2\nc 0 3\nc 5 9\n", encoding="utf-8")
    cli.main(["build", "--kind", "caterpillar", "--n", "10", "--out", host])
    assert cli.main(["embed", "--host", host, "--input", str(cc),
                     "--out", str(tmp_path / "e.txt")]) == 2


def test_non_caterpillar_into_caterpillar_host_exits_2(tmp_path):
    host = str(tmp_path / "host.txt")
    # spider with three legs of length 2 is not a caterpillar
    forest = write_forest(tmp_path, "spider.txt", 7,
                          [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    cli.main(["build", "--kind", "caterpillar", "--n", "7", "--out", host])
    assert cli.main(["embed", "--host", host, "--input", forest,
                     "--out", str(tmp_path / "e.txt")]) == 2


def test_mismatched_forest_exits_2(tmp_path):
    host = str(tmp_path / "host.txt")
    forest = write_forest(tmp_path, "big.txt", 8, list(zip(range(7), range(1, 8))))
    cli.main(["build", "--kind", "universal", "--n", "6", "--out", host])
    assert cli.main(["embed", "--host", host, "--input", forest,
                     "--out", str(tmp_path / "e.txt")]) == 2


def test_render_host_and_embedding(tmp_path):
    host = str(tmp_path / "host.txt")
    emb = str(tmp_path / "emb.txt")
    svg = tmp_path / "pic.svg"
    forest = write_forest(tmp_path, "forest.txt", 6, [(0, 1), (1, 2), (2, 3), (4, 5)])
    cli.main(["build", "--kind", "universal", "--n", "6", "--out", host])
    cli.main(["embed", "--host", host, "--input", forest, "--out", emb])
    assert cli.main(["render", "--host", host, "--embedding", emb,
                     "--out", str(svg)]) == 0
    assert svg.read_text(encoding="utf-8").startswith("<svg")


@pytest.mark.parametrize("kind", ["universal", "caterpillar"])
@pytest.mark.parametrize("line", ["m 0 99", "m 1 -3"])
def test_render_off_host_image_exits_2(tmp_path, capsys, kind, line):
    host = str(tmp_path / "host.txt")
    emb = tmp_path / "emb.txt"
    cli.main(["build", "--kind", kind, "--n", "6", "--out", host])
    emb.write_text(line + "\n", encoding="utf-8")
    assert cli.main(["render", "--host", host, "--embedding", str(emb),
                     "--out", str(tmp_path / "pic.svg")]) == 2
    assert "not a host vertex" in capsys.readouterr().err
    assert not (tmp_path / "pic.svg").exists()


def test_render_exact_layout_at_n_100(tmp_path):
    host = str(tmp_path / "host.txt")
    cli.main(["build", "--kind", "universal", "--n", "100", "--out", host])
    assert cli.main(["render", "--host", host, "--layout", "exact",
                     "--out", str(tmp_path / "pic.svg")]) == 0
    assert "<path" not in (tmp_path / "pic.svg").read_text(encoding="utf-8")


def test_render_huge_host_exits_3_quickly(tmp_path):
    host = write_host(tmp_path, "complete", 100_000, [])
    t0 = time.perf_counter()
    assert cli.main(["render", "--host", host, "--out", str(tmp_path / "pic.svg")]) == 3
    assert time.perf_counter() - t0 < 5.0


def test_render_universal_63(tmp_path):
    host = str(tmp_path / "host.txt")
    svg = tmp_path / "pic.svg"
    cli.main(["build", "--kind", "universal", "--n", "63", "--out", host])
    assert cli.main(["render", "--host", host, "--out", str(svg)]) == 0
    assert svg.read_text(encoding="utf-8").count('class="vertex"') == 63


def test_build_implicit_host_counts_no_edges(tmp_path, capsys):
    out = tmp_path / "host.txt"
    t0 = time.perf_counter()
    assert cli.main(["build", "--kind", "universal", "--n", "262143", "--out", str(out)]) == 0
    assert time.perf_counter() - t0 < 2.0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 3
    assert "edges" not in capsys.readouterr().out
    assert cli.main(["build", "--kind", "universal", "--n", "15", "--explicit",
                     "--out", str(out)]) == 0
    listed = sum(line.startswith("e ") for line in out.read_text(encoding="utf-8").splitlines())
    assert f", {listed} edges," in capsys.readouterr().out


@pytest.mark.parametrize("kind, n", [
    ("twochord", 10**6),  # 1,997,998,002 edges
    ("universal", 2**20 - 1),
    ("caterpillar", 10**9),
])
def test_explicit_build_past_the_cap_exits_3_quickly(tmp_path, capsys, kind, n):
    out = tmp_path / "host.txt"
    start = time.perf_counter()
    assert cli.main(["build", "--kind", kind, "--n", str(n), "--explicit",
                     "--out", str(out)]) == 3
    assert time.perf_counter() - start < 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "explicit host file" in err and "Traceback" not in err


@pytest.mark.parametrize("kind", cli.KINDS)
@pytest.mark.parametrize("n", [0, -1])
def test_build_of_a_nonpositive_size_exits_2(tmp_path, capsys, kind, n):
    out = tmp_path / "host.txt"
    assert cli.main(["build", "--kind", kind, "--n", str(n), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_explicit_cap_counts_edges_not_only_vertices(tmp_path):
    # 40000 vertices are within the cap, their 2,237,617 edges are not;
    # the bench's largest explicit host, two-chord at n = 1023, is well within
    out = tmp_path / "host.txt"
    with pytest.raises(SizeTooLarge):
        fileio.save_host(UniversalGraph(40000), out, explicit=True)
    assert not out.exists()
    assert fileio.save_host(build_twochord_host(1023), out, explicit=True) == 62403
    assert 16 * 62403 < fileio.EXPLICIT_CAP


@pytest.mark.parametrize("command", ["build", "verify", "embed", "render"])
def test_twochord_host_past_its_cap_exits_3(tmp_path, capsys, command):
    # the centers of a two-chord host are listed in memory, so n = 10^18 is
    # refused before any is made
    n = str(10**18)
    host = tmp_path / "host.txt"
    out = str(tmp_path / "out.txt")
    if command == "build":
        argv = ["build", "--kind", "twochord", "--n", n, "--out", out]
    else:
        host.write_text(f"ugg-graph v1\nkind twochord\nn {n}\n", encoding="utf-8")
        graph = tmp_path / "input.txt"
        graph.write_text("n 6\nh 2\nc 0 2\nc 3 5\n", encoding="utf-8")
        emb = tmp_path / "emb.txt"
        emb.write_text("m 0 0\n", encoding="utf-8")
        argv = {
            "verify": ["verify", "--host", str(host), "--input", str(graph),
                       "--embedding", str(emb)],
            "embed": ["embed", "--host", str(host), "--input", str(graph), "--out", out],
            "render": ["render", "--host", str(host), "--out", out],
        }[command]
    start = time.perf_counter()
    assert cli.main(argv) == 3
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert "two-chord host capped" in err and "Traceback" not in err


# exit code of `main` for each error a command may raise
EXIT_CODES = {
    "SizeTooLarge": 3,
    "InputError": 2,
    "MalformedInput": 2, "NotACaterpillar": 2, "NotTwoChord": 2,
    "InvalidSize": 2, "InvalidS": 2, "IndexOutOfRange": 2,
    "DegenerateEdge": 2, "SizeMismatch": 2, "EqualIndices": 2,
    "OSError": 2,
    "PreconditionViolated": 1, "InternalInvariantBroken": 1,
    "NoRealizingPair": 1, "NoSpanningCycle": 1, "UggError": 1,
}


def test_exit_code_of_every_error(tmp_path, monkeypatch, capsys):
    raised = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
              if issubclass(cls, errors.UggError)] + [OSError]
    assert sorted(cls.__name__ for cls in raised) == sorted(EXIT_CODES)
    for cls in raised:
        def fail(args, cls=cls):
            raise cls("boom")

        monkeypatch.setattr(cli, "_build", fail)
        argv = ["build", "--kind", "universal", "--n", "3", "--out", str(tmp_path / "h")]
        assert cli.main(argv) == EXIT_CODES[cls.__name__], cls.__name__
        assert capsys.readouterr().err == "error: boom\n"


def test_repeated_main_calls_behave_as_fresh_calls(tmp_path, monkeypatch, capsys):
    # One parser serves every `main` call in the process.  The first round
    # below builds it; the second must print, write and return exactly what
    # the first did, after an argparse error in between, and no call may
    # carry a value into the next, such as --explicit into a plain build.
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    n = 9
    chorded = tmp_path / "chorded.txt"
    chorded.write_text(f"n {n}\nh 2\nc 0 2\nc 3 5\n", encoding="utf-8")
    inputs = {
        "universal": write_forest(tmp_path, "tree.txt", n, [(i // 2, i) for i in range(1, n)]),
        "caterpillar": write_forest(tmp_path, "cat.txt", n, [(0, 1), (1, 2), (2, 3), (0, 4),
                                                             (1, 5), (1, 6), (3, 7), (3, 8)]),
        "twochord": str(chorded),
    }

    def call(argv):
        code = cli.main(argv)
        said = capsys.readouterr()
        return code, said.out, said.err

    rounds = []
    for _ in range(2):
        seen = []
        for kind, graph in inputs.items():
            host, emb = tmp_path / f"{kind}-host.txt", tmp_path / f"{kind}-emb.txt"
            host.unlink(missing_ok=True)
            emb.unlink(missing_ok=True)
            build = ["build", "--kind", kind, "--n", str(n), "--out", str(host)]
            seen.append(call(build + ["--explicit"]))
            direct = tmp_path / f"{kind}-direct.txt"
            fileio.save_host(fileio.HOST_BUILDERS[kind](n), direct, explicit=True)
            assert host.read_bytes() == direct.read_bytes()
            seen.append(host.read_bytes())
            seen.append(call(["embed", "--host", str(host), "--input", graph, "--out", str(emb)]))
            seen.append(emb.read_bytes())
            verify = ["verify", "--host", str(host), "--input", graph, "--embedding", str(emb)]
            assert call(verify) == (0, "ok\n", "")
            seen.append(call(build))
            assert host.read_text(encoding="utf-8") == f"ugg-graph v1\nkind {kind}\nn {n}\n"
            assert call(verify) == (0, "ok\n", "")
        assert all(said[0] == 0 and said[2] == "" for said in seen if isinstance(said, tuple))
        rounds.append(seen)
        with pytest.raises(SystemExit) as exc:
            cli.main(["build", "--kind", "nonesuch", "--n", str(n), "--out", str(tmp_path / "x")])
        assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err
    assert rounds[0] == rounds[1]
    # the parser and each subcommand's parser, built once each
    assert built[0] == "ugg" and len(built) == len(set(built)) > 1


def test_enumerate_forests(tmp_path):
    out = tmp_path / "forests.txt"
    assert cli.main(["enumerate", "--what", "forests", "--n", "5",
                     "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.count("# class") == 10
    blocks = [b for b in text.split("# class") if b.strip()]
    assert len(blocks) == 10


def test_enumerate_chorded(tmp_path):
    out = tmp_path / "chorded.txt"
    assert cli.main(["enumerate", "--what", "chorded", "--n", "8", "--h", "2",
                     "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.count("# class") == len(enumerate_chorded_cycles(8, 2))


def test_enumerate_caterpillars_builds_no_forest(tmp_path, monkeypatch):
    built = []
    check = Forest.__post_init__
    monkeypatch.setattr(Forest, "__post_init__", lambda self: (built.append(self.n), check(self)))
    out = tmp_path / "caterpillars.txt"
    assert cli.main(["enumerate", "--what", "caterpillars", "--n", "14",
                     "--out", str(out)]) == 0
    assert built == []
    assert cli.main(["enumerate", "--what", "forests", "--n", "4",
                     "--out", str(tmp_path / "forests.txt")]) == 0
    assert built  # the count sees the forests that are built
    monkeypatch.undo()
    # each class as the forest it is, edges in the caterpillar's order
    blocks = [[f"# class {i}", *fileio.forest_lines(c.to_forest()), ""]
              for i, c in enumerate(enumerate_caterpillars(14))]
    assert out.read_text(encoding="utf-8") == "\n".join(itertools.chain(*blocks))


@pytest.mark.parametrize("host, graph, message", [
    ("ugg-graph v1\nkind universal\nn 63\n", "", "forest file must start with `n <int>`"),
    ("ugg-graph v1\n", "n 2\ne 0 1\n", "host file needs `kind` and `n` lines"),
    ("ugg-graph v1\nkind twochord\nn 63\n", "n 2\nh 0\n", "cycle needs >= 3 vertices"),
    ("ugg-graph v1\nkind twochord\nn 63\n", "n 6\nh 1\nc 0 9\n",
     "chord endpoint outside [0, 6)"),
    ("ugg-graph v1\nkind complete\nn 6\n", "n 2\ne 0 1\n",
     "no embedder for host kind 'complete'"),
])
def test_embed_names_what_is_wrong(tmp_path, capsys, host, graph, message):
    (tmp_path / "host.txt").write_text(host, encoding="utf-8")
    (tmp_path / "input.txt").write_text(graph, encoding="utf-8")
    out = tmp_path / "emb.txt"
    assert cli.main(["embed", "--host", str(tmp_path / "host.txt"),
                     "--input", str(tmp_path / "input.txt"), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("what, n, code", [
    ("forests", 0, 2), ("forests", 13, 3),
    ("caterpillars", 0, 2), ("caterpillars", 15, 3),
    ("chorded", 2, 2), ("chorded", 31, 3),
])
def test_enumerate_size_exit_codes(tmp_path, capsys, what, n, code):
    out = str(tmp_path / "out.txt")
    assert cli.main(["enumerate", "--what", what, "--n", str(n), "--out", out]) == code
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind, body", [
    ("universal", "e 0 1\n"),
    ("twochord", "h 2\nc 0 2\nc 3 5\n"),
])
def test_huge_input_exits_3_quickly(tmp_path, capsys, kind, body):
    # one past the cap: a copy without the cap still loads it in memory
    n = fileio.INPUT_CAP + 1
    host = str(tmp_path / "host.txt")
    assert cli.main(["build", "--kind", kind, "--n", "63", "--out", host]) == 0
    graph = tmp_path / "input.txt"
    graph.write_text(f"n {n}\n{body}", encoding="utf-8")
    emb = tmp_path / "emb.txt"
    emb.write_text("m 0 0\n", encoding="utf-8")
    start = time.perf_counter()
    assert cli.main(["embed", "--host", host, "--input", str(graph),
                     "--out", str(tmp_path / "out.txt")]) == 3
    assert cli.main(["verify", "--host", host, "--input", str(graph),
                     "--embedding", str(emb)]) == 3
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert "input cap" in err and "Traceback" not in err


def test_selftest_smoke(capsys):
    assert cli.main(["selftest", "--max-n", "4"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 8


SELFTEST_15 = """\
PASS criterion-1-edge-bound (N.Ns): n=15: 87 < 320
PASS criterion-2-universality-small (N.Ns): 637 forest classes embedded and validated
PASS criterion-3-predicate-oracle (N.Ns): 3951 edge pairs agree at n in (7, 15, 31)
PASS criterion-4-large-smoke (N.Ns): 0 random trees ok, worst case 0.00s
PASS criterion-5-recursion-invariants (N.Ns): 4381 single-portal and 28604 two-portal \
instances verified
PASS criterion-6-caterpillar (N.Ns): 560 caterpillar classes embedded; 15 host budgets hold
PASS criterion-7-twochord (N.Ns): 245 two-chord classes embedded; covering holds to 15
PASS criterion-8-lower-bound-side (N.Ns): complete host universal at desk scale; \
bare cycle is not; counts agree
"""


def test_selftest_output_is_pinned(capsys):
    # every line of `ugg selftest --max-n 15`, its time masked
    assert cli.main(["selftest", "--max-n", "15"]) == 0
    out = capsys.readouterr().out
    assert re.sub(r"\(\d+\.\ds\)", "(N.Ns)", out) == SELFTEST_15


def test_selftest_criterion_fails_at_its_ceiling(monkeypatch):
    # a clock that jumps 61 s per reading puts criterion 2 past its 60 s ceiling
    ticks = itertools.count(0.0, 61.0)
    monkeypatch.setattr(selftest, "time", SimpleNamespace(perf_counter=ticks.__next__))
    res = selftest.criterion_2(limit=3)
    assert not res.ok
    assert re.fullmatch(r"runtime \d+\.\ds >= 60s", res.detail), res.detail


def test_selftest_seed_defaults_to_the_criteria_seed(monkeypatch):
    # each call's seed once run_all's own defaults apply, and whether the
    # caller gave one: without --seed the parser spells no seed of its own
    signature = inspect.signature(selftest.run_all)
    seeds = []

    def run_all(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        given = "seed" in bound.arguments
        bound.apply_defaults()
        seeds.append((bound.arguments["seed"], given))
        return True

    monkeypatch.setattr(selftest, "run_all", run_all)
    assert cli.main(["selftest", "--max-n", "4"]) == 0
    assert cli.main(["selftest", "--max-n", "4", "--seed", "7"]) == 0
    assert seeds == [(selftest.SEED, False), (7, True)]


@pytest.mark.parametrize("max_n", ["0", "-1"])
def test_selftest_refuses_a_size_limit_below_1(capsys, max_n):
    assert cli.main(["selftest", "--max-n", max_n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1 and "Traceback" not in captured.err


def test_repeated_edge_does_not_load_as_complete_host(tmp_path, capsys):
    host = write_host(tmp_path, "complete", 4, [(0, 1)] * 6)
    assert verify_identity(tmp_path, host, 3) == 2
    assert "listed twice" in capsys.readouterr().err


def test_swapped_universal_edge_exits_2(tmp_path, capsys):
    host = tmp_path / "host.txt"
    assert cli.main(["build", "--kind", "universal", "--n", "15", "--explicit",
                     "--out", str(host)]) == 0
    lines = host.read_text(encoding="utf-8").splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("e "))
    lines[first] = "e 3 13"  # not an edge of the n=15 host; the count is unchanged
    host.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert verify_identity(tmp_path, str(host), 3) == 2
    assert "(3, 13) is not an edge" in capsys.readouterr().err


def test_repeated_custom_edge_exits_2(tmp_path, capsys):
    host = write_host(tmp_path, "custom", 4, [(0, 1), (1, 2), (1, 0)])
    assert verify_identity(tmp_path, host, 3) == 2
    assert "listed twice" in capsys.readouterr().err


@pytest.mark.parametrize("kind, n", [("complete", 100_000), ("twochord", 1_000_000),
                                     ("universal", 1_000_000_000)])
def test_huge_host_verifies_without_building_edges(tmp_path, capsys, kind, n):
    host = write_host(tmp_path, kind, n, [])
    t0 = time.perf_counter()
    code, peak = traced(lambda: verify_identity(tmp_path, host, 3))
    assert time.perf_counter() - t0 < 5.0
    assert code == 0 and capsys.readouterr().out.strip() == "ok"
    assert peak < 1 << 20  # nothing of size n


@pytest.mark.parametrize("kind", ["universal", "caterpillar"])
def test_short_list_on_huge_host_exits_2_quickly(tmp_path, capsys, kind):
    # the list is checked against the host's edge stream, which stops at
    # the first difference; no walk over all n vertices
    host = tmp_path / "host.txt"
    host.write_text(f"ugg-graph v1\nkind {kind}\nn 1000000000\nedges 1\ne 0 1\n",
                    encoding="utf-8")
    t0 = time.perf_counter()
    code, peak = traced(lambda: verify_identity(tmp_path, str(host), 2))
    assert time.perf_counter() - t0 < 2.0
    assert code == 2 and f"disagrees with {kind} host" in capsys.readouterr().err
    assert peak < 1 << 20  # nothing of size n, such as a table of vertex labels


@pytest.mark.parametrize("role", ["host", "input", "embedding"])
def test_non_utf8_file_exits_2(tmp_path, capsys, role):
    files = {role: tmp_path / f"{role}.txt" for role in ("host", "input", "embedding")}
    cli.main(["build", "--kind", "universal", "--n", "6", "--explicit",
              "--out", str(files["host"])])
    files["input"].write_text("n 3\ne 0 1\n", encoding="utf-8")
    files["embedding"].write_text("m 0 0\nm 1 1\nm 2 2\n", encoding="utf-8")
    assert cli.main(["verify", *(f"--{r}={p}" for r, p in files.items())]) == 0
    files[role].write_bytes(b"\xff\xfe")
    capsys.readouterr()
    assert cli.main(["verify", *(f"--{r}={p}" for r, p in files.items())]) == 2
    err = capsys.readouterr().err
    assert "not UTF-8" in err and "Traceback" not in err


def test_explicit_hosts_load_without_is_edge(tmp_path, monkeypatch):
    def refuse(self, u, v):
        raise AssertionError("load_host called is_edge")

    for cls in (UniversalGraph, _CaterpillarHost, _StarHost, _CustomHost):
        monkeypatch.setattr(cls, "is_edge", refuse)
    for kind in ("universal", "caterpillar", "twochord"):
        host = tmp_path / f"{kind}.txt"
        assert cli.main(["build", "--kind", kind, "--n", "1023", "--explicit",
                         "--out", str(host)]) == 0
        loaded = fileio.load_host(host)
        assert (loaded.kind, loaded.n) == (kind, 1023)


def test_dropped_universal_edge_exits_2(tmp_path, capsys):
    host = tmp_path / "host.txt"
    assert cli.main(["build", "--kind", "universal", "--n", "63", "--explicit",
                     "--out", str(host)]) == 0
    lines = host.read_text(encoding="utf-8").splitlines()
    count = next(i for i, line in enumerate(lines) if line.startswith("edges "))
    lines[count] = f"edges {int(lines[count].split()[1]) - 1}"
    del lines[count + 5]  # an edge line; the header still matches the list
    host.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert verify_identity(tmp_path, str(host), 3) == 2
    assert "disagrees with universal host" in capsys.readouterr().err


def loaded_after(code):
    """The names of the modules a fresh interpreter holds after running code."""
    src = str(Path(ugg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    return set(done.stdout.splitlines()[-1].split())


def workbench(*names):
    return {f"ugg.workbench.{name}" for name in names}


def core(*names):
    return {f"ugg.{name}" for name in names}


def test_each_entry_point_loads_only_what_it_runs(tmp_path):
    # every command is a fresh process that compiles what it imports, so an
    # import that a command never runs costs each run its compile time
    loaded = loaded_after("import ugg")
    assert sorted(m for m in loaded if m.startswith("ugg.")) == []
    loaded = loaded_after("import ugg.cli")
    assert "fractions" not in loaded
    assert sorted(m for m in loaded if m.startswith("ugg.workbench")) == []

    host, emb = str(tmp_path / "host.txt"), str(tmp_path / "emb.txt")
    tree = write_forest(tmp_path, "tree.txt", 63, [(i, i + 1) for i in range(62)])
    never_run = workbench("families", "selftest", "render")  # by build, embed or verify
    # each command, the modules it must load, and those it must not
    commands = [
        (["build", "--kind", "universal", "--n", "63", "--out", host],
         workbench("fileio"), workbench("validate") | never_run | core("embedder", "geometry")),
        (["embed", "--host", host, "--input", tree, "--out", emb],
         workbench("fileio", "validate") | core("embedder"), never_run),
        (["verify", "--host", host, "--input", tree, "--embedding", emb],
         workbench("fileio", "validate"), never_run | core("embedder")),
    ]
    for argv, wanted, unwanted in commands:
        loaded = loaded_after(f"import ugg.cli\nassert ugg.cli.main({argv!r}) == 0")
        assert wanted <= loaded, argv[0]
        assert sorted(loaded & unwanted) == [], argv[0]

    for module in ("validate", "families"):
        loaded = loaded_after(f"import ugg.workbench.{module}")
        assert sorted(loaded & workbench("selftest", "render", "fileio")) == [], module
