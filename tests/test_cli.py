import argparse
import json
from pathlib import Path

import pytest

from convexcount import TypeCounts5, dumps_placement, load_placement
from convexcount import cli
from convexcount.cli import main
from convexcount.search import MAX_ANNEAL_N

from conftest import parabola

SCHEMA_KEYS = {"n", "engine", "counts4", "counts5", "stats", "identities", "bound", "timings"}


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return str(path)


@pytest.fixture
def parabola7_file(tmp_path):
    return _write(tmp_path, "p7.txt", dumps_placement(parabola(7)))


@pytest.fixture
def t2_file(tmp_path):
    return _write(tmp_path, "t2.txt", "5\n0 0\n12 0\n0 12\n3 2\n2 3\n")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "convexcount" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["gen"],
        ["gen", "--n", "2"],
        ["gen", "--n", "8", "--kind", "spiral"],
        ["gen", "--n", "8", "--bound", "2"],
        ["count"],
        ["count", "f.txt", "--engine", "warp"],
        ["bench", "--n", "8"],
        ["verify", "f.txt", "--engine", "naive"],
        ["minimize", "--n", "4"],
        ["count", "f.txt", "--threads", "2"],
    ],
)
def test_usage_errors_exit_3(argv, capsys):
    assert main(argv) == 3
    capsys.readouterr()


def test_gen_writes_parabola_file(tmp_path, capsys):
    out = str(tmp_path / "p.txt")
    assert main(["gen", "--kind", "parabola", "--n", "6", "-o", out]) == 0
    with open(out, encoding="ascii") as fh:
        assert load_placement(fh) == parabola(6)
    capsys.readouterr()


def test_gen_stdout_roundtrip(capsys):
    assert main(["gen", "--kind", "parabola", "--n", "6"]) == 0
    assert load_placement(capsys.readouterr().out) == parabola(6)


def test_gen_deterministic(tmp_path, capsys):
    a, b, c = (str(tmp_path / name) for name in ("a.txt", "b.txt", "c.txt"))
    for out in (a, b):
        assert main(["gen", "--kind", "random", "--n", "9", "--seed", "4",
                     "--bound", "500", "-o", out]) == 0
    assert main(["gen", "--kind", "random", "--n", "9", "--seed", "5",
                 "--bound", "500", "-o", c]) == 0
    text_a = Path(a).read_text(encoding="ascii")
    assert text_a == Path(b).read_text(encoding="ascii")
    assert text_a != Path(c).read_text(encoding="ascii")
    capsys.readouterr()


def test_gen_infeasible_exits_2(capsys):
    assert main(["gen", "--kind", "parabola", "--n", "200", "--bound", "100"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("engine", ["naive", "regions", "auto"])
def test_count_parabola7(engine, parabola7_file, capsys):
    assert main(["count", parabola7_file, "--engine", engine,
                 "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == SCHEMA_KEYS
    assert report["n"] == 7
    assert report["engine"] == engine
    assert report["counts4"] == {"quad": "35", "tridot": "0"}
    assert report["counts5"] == {"pentagon": "21", "four_hull": "0", "three_hull": "0"}
    assert report["stats"]["mean_gamma"] == {"exact": "4", "float": 4.0}
    assert report["identities"] is None and report["bound"] is None
    assert "aggregate" in report["timings"]
    assert ("naive" in report["timings"]) == (engine != "regions")


def test_count_text_output(parabola7_file, capsys):
    assert main(["count", parabola7_file]) == 0
    out = capsys.readouterr().out
    assert "pentagon=21" in out
    assert "quad=35" in out


def test_count_square_center(tmp_path, capsys):
    path = _write(tmp_path, "sq.txt", "5\n0 0\n6 0\n6 6\n0 6\n3 2\n")
    assert main(["count", path, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counts5"] == {"pentagon": "0", "four_hull": "1", "three_hull": "0"}
    assert report["counts4"] == {"quad": "3", "tridot": "2"}


@pytest.mark.parametrize(
    "content",
    [
        "3\n0 0\n1 1\n2 2\n",      # collinear
        "3\n0 0\n1 1\n1 1\n",      # duplicate
        "3\n0 0\n1 1\n",           # count mismatch
        "nonsense\n",
    ],
)
def test_count_bad_file_exits_2(tmp_path, content, capsys):
    path = _write(tmp_path, "bad.txt", content)
    assert main(["count", path]) == 2
    capsys.readouterr()


def test_count_missing_file_exits_2(tmp_path, capsys):
    assert main(["count", str(tmp_path / "absent.txt")]) == 2
    capsys.readouterr()


def test_count_engine_mismatch_exits_1(parabola7_file, capsys, monkeypatch):
    monkeypatch.setattr(cli, "count5_naive", lambda p: TypeCounts5(999, 0, 0))
    assert main(["count", parabola7_file, "--engine", "naive"]) == 1
    capsys.readouterr()


def test_count_naive_above_size_limit_exits_2(tmp_path, capsys, monkeypatch):
    def refuse(placement):
        raise AssertionError("the naive engine ran above its size limit")

    monkeypatch.setattr(cli, "count5_naive", refuse)
    n = cli.NAIVE_ENGINE_MAX_N + 1
    path = _write(tmp_path, "p.txt", dumps_placement(parabola(n)))
    assert main(["count", path, "--engine", "naive"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and f"n <= {cli.NAIVE_ENGINE_MAX_N}" in err


def test_verify_t2(t2_file, capsys):
    assert main(["verify", t2_file, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    ident = report["identities"]
    assert ident["all_pass"] is True
    assert len(ident["checks"]) == 17
    by_id = {c["id"]: c for c in ident["checks"]}
    assert by_id["E9"]["lhs"] == "1" and by_id["E9"]["rhs"] == "1"
    assert by_id["E12"]["relation"] == "<="
    assert all(c["pass"] for c in ident["checks"])


def test_verify_text_output(t2_file, capsys):
    assert main(["verify", t2_file]) == 0
    out = capsys.readouterr().out
    assert "all_pass=yes" in out
    assert out.count("pass") >= 17


def test_bound_parabola20(tmp_path, capsys):
    path = _write(tmp_path, "p20.txt", dumps_placement(parabola(20)))
    assert main(["bound", path, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    br = report["bound"]
    assert br["c5_estimate"]["exact"] == "1"
    assert br["amgm_ok"] is True
    assert br["degenerate_gamma"] is False
    assert abs(br["c5_lower_const"] - 0.04508497187473726) < 1e-12
    assert br["mean_gamma"] == {"exact": "17", "float": 17.0}
    assert float(br["rhs_gamma"]["float"]) >= br["rhs_const"]
    assert br["tracker_gamma_sums"] > 0


def test_bound_too_small_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "tiny.txt", "4\n0 0\n6 0\n0 6\n1 1\n")
    assert main(["bound", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the bound chain needs n >= 5, got 4\n"


def test_minimize_deterministic(tmp_path, capsys):
    argv = ["minimize", "--n", "6", "--iters", "200", "--restarts", "1",
            "--seed", "5", "--bound", "50"]
    outs = []
    for name in ("m1.txt", "m2.txt"):
        path = str(tmp_path / name)
        assert main(argv + ["-o", path]) == 0
        outs.append(Path(path).read_text(encoding="ascii"))
        summary = capsys.readouterr().out
        assert "best_pentagons:" in summary
        assert "consistency: ok" in summary
    assert outs[0] == outs[1]
    placement = load_placement(outs[0])
    assert placement.n == 6


def test_minimize_above_size_limit_exits_2(capsys):
    assert main(["minimize", "--n", str(MAX_ANNEAL_N + 1)]) == 2
    assert f"n <= {MAX_ANNEAL_N}" in capsys.readouterr().err


def test_minimize_target_stops_early(capsys):
    assert main(["minimize", "--n", "8", "--iters", "20000", "--restarts", "2",
                 "--seed", "1", "--target", "0"]) == 0
    out = capsys.readouterr().out
    assert "best_pentagons: 0" in out


def test_readme_lists_every_subcommand():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    listed = {line.split()[1] for line in block.splitlines()
              if line.startswith("convexcount ")}
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert listed == set(sub.choices)
