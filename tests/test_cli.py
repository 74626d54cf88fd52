import argparse
import dataclasses
import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexcount import (
    COORD_BOUND,
    ParseError,
    Placement,
    dumps_placement,
    find_violation,
    load_placement,
)
from convexcount import _kernels, cli
from convexcount.cli import main
from convexcount.search import MAX_ANNEAL_N

from conftest import parabola, random_disc

SCHEMA_KEYS = {"n", "engine", "counts4", "counts5", "stats", "identities", "bound", "timings"}

# Pinned count/verify/bound reports of two placements, in both formats.
# Written by running this file as a script; every later change to the
# report code must reproduce them byte for byte, timing values aside.
REPORTS_FIXTURE = Path(__file__).with_name("data") / "cli_reports.json"
REPORT_PLACEMENTS = {
    "square_center": Placement.from_points([(0, 0), (6, 0), (6, 6), (0, 6), (3, 2)]),
    "random_disc12": random_disc(12, seed=1),
}
REPORT_REQUESTS = (["count", "--engine", "auto"], ["verify"], ["bound"])


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
        ["gen", "--n", "8", "--bound", "10000001"],
        ["gen", "--n", "x"],
        ["gen", "--n", "8", "--bound", "x"],
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
        # one edit away from the valid square_center file
        "4\n0 0\n6 0\n6 6\n0 6\n3 2\n",
        "6\n0 0\n6 0\n6 6\n0 6\n3 2\n",
        "+5\n0 0\n6 0\n6 6\n0 6\n3 2\n",
        "05\n0 0\n6 0\n6 6\n0 6\n3 2\n",
        "5\n0 0\n6 0\n6 6\n0 6\n+3 2\n",
        "5\n0 0\n6 0\n6 6\n0 6\n03 2\n",
        "5\n0 0\n6 0\n6 6\n0 6\n3 2 \n",
        f"5\n0 0\n6 0\n6 6\n0 6\n3 {COORD_BOUND + 1}\n",
        f"5\n0 0\n6 0\n6 6\n0 6\n{-COORD_BOUND - 1} 2\n",
    ],
)
def test_count_bad_file_exits_2(tmp_path, content, capsys):
    path = _write(tmp_path, "bad.txt", content)
    assert main(["count", path]) == 2
    assert capsys.readouterr().err.startswith("error: ")


LINE_EDITS = (
    lambda line: line + " ",
    lambda line: "+" + line,
    lambda line: "0" + line,
    lambda line: "-" + line,
    lambda line: line.replace(" ", "  "),
    lambda line: line.replace(" ", "\t"),
    lambda line: "# " + line,
    lambda line: "",
    lambda line: line + "\r",
)
fuzz_coord = st.one_of(
    st.integers(-3, 3),
    st.integers(-COORD_BOUND, COORD_BOUND),
    st.sampled_from([COORD_BOUND, -COORD_BOUND, COORD_BOUND + 1, -COORD_BOUND - 1]),
)


@st.composite
def near_valid_placements(draw):
    """Placement text of a few points, often repeated or collinear, with up
    to two lines edited out of the canonical format."""
    pts = draw(st.lists(st.tuples(fuzz_coord, fuzz_coord), min_size=3, max_size=8))
    lines = [str(len(pts) + draw(st.sampled_from([0, 0, 0, 0, 0, -1, 1])))]
    lines += [f"{x} {y}" for x, y in pts]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(st.sampled_from(LINE_EDITS))(lines[i])
    return "\n".join(lines) + draw(st.sampled_from(["\n", "\n", "", "\n\n"]))


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.binary(max_size=200),
    st.text(max_size=200).map(lambda text: text.encode("utf-8")),
    near_valid_placements().map(lambda text: text.encode("ascii")),
))
def test_count_request_fuzz_exits_0_or_2(data):
    # hypothesis refuses the function-scoped tmp_path fixture
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "placement.txt"
        path.write_bytes(data)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["count", str(path)])
    assert code in (0, 2)
    assert (code == 2) == err.getvalue().startswith("error: ")


@pytest.mark.parametrize("data", [
    b"3\r\n0 0\r\n6 0\r\n0 6\r\n",
    b"3\r0 0\r6 0\r0 6\r",
    b"3\n0 0\n6 0\n0 6",
    b"3\n0 0\n6 0\n0 \xff\n",
    b"\xef\xbb\xbf3\n0 0\n6 0\n0 6\n",
], ids=["crlf", "cr", "no_final_newline", "byte_ff", "utf8_bom"])
def test_cli_reads_a_file_as_load_placement_does(tmp_path, data, capsys):
    path = tmp_path / "placement.txt"
    path.write_bytes(data)
    code = main(["count", str(path), "--format", "json"])
    out, err = capsys.readouterr()
    try:
        n = load_placement(path.read_bytes()).n
    except ParseError as exc:
        assert (code, out, err) == (2, "", f"error: {exc}\n")
    else:
        assert code == 0 and json.loads(out)["n"] == n and err == ""


def test_count_collinear_file_names_the_first_triple(tmp_path, capsys):
    # (5, 17) lies on the line y = 4x - 3 through (1, 1) and (3, 9)
    pts = [(i, i * i) for i in range(10)] + [(5, 17)]
    path = _write(tmp_path, "collinear.txt", dumps_placement(Placement(tuple(pts))))
    assert main(["count", path]) == 2
    assert capsys.readouterr().err == f"error: {find_violation(pts)}\n"


def test_count_missing_file_exits_2(tmp_path, capsys):
    assert main(["count", str(tmp_path / "absent.txt")]) == 2
    capsys.readouterr()


def test_count_engine_mismatch_exits_1(tmp_path, capsys, monkeypatch):
    # the naive replay finds one pentagon too many: every request that runs
    # it fails with one line naming both engines' counts
    count5_naive = cli.count5_naive

    def one_too_many(placement):
        counts = count5_naive(placement)
        return dataclasses.replace(counts, pentagon=counts.pentagon + 1)

    monkeypatch.setattr(cli, "count5_naive", one_too_many)
    paths = {n: _write(tmp_path, f"p{n}.txt", dumps_placement(parabola(n)))
             for n in (4, 5, 7, 11, 12)}
    for n, engine, code in [(7, "naive", 1), (4, "auto", 1), (5, "auto", 1),
                            (11, "auto", 1), (12, "auto", 0), (7, "regions", 0)]:
        assert main(["count", paths[n], "--engine", engine]) == code, (n, engine)
        out, err = capsys.readouterr()
        if code == 0:
            assert f"pentagon={comb(n, 5)}" in out and err == ""
            continue
        lines = err.splitlines()
        assert out == "" and len(lines) == 1
        assert lines[0].startswith("inconsistency: engine mismatch: naive ")
        assert f"pentagon={comb(n, 5) + 1}" in lines[0]
        assert f"vs regions (TypeCounts4(quad={comb(n, 4)}, tridot=0), " in lines[0]


def test_corrupt_rank_table_exits_1(parabola7_file, capsys, monkeypatch):
    rank_tables = _kernels.rank_tables

    def corrupt(coords):
        ranks, left = rank_tables(coords)
        left[3, 5] += 1
        return ranks, left

    monkeypatch.setattr(_kernels, "rank_tables", corrupt)
    assert main(["count", parabola7_file, "--engine", "regions"]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("inconsistency: ") and "lost a point" in err


@pytest.mark.parametrize("command", ["count", "verify", "bound"])
def test_corrupt_sum_exits_1_naming_the_equation(parabola7_file, command, capsys, monkeypatch):
    aggregate_regions = cli.aggregate_regions

    def corrupt(placement):
        agg = aggregate_regions(placement)
        return dataclasses.replace(agg, sum_gamma_sq=agg.sum_gamma_sq + 1)

    monkeypatch.setattr(cli, "aggregate_regions", corrupt)
    assert main([command, parabola7_file]) == 1
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("inconsistency: ")
    assert re.findall(r"\bE\d+[ab]?\b", lines[0]) == ["E13"]


TIMINGS = ["parse", "aggregate", "derive"]


@pytest.mark.parametrize(
    "n, argv, keys",
    [
        (7, ["count", "--engine", "naive"], TIMINGS + ["naive"]),
        (7, ["count", "--engine", "regions"], TIMINGS),
        (7, ["count", "--engine", "auto"], TIMINGS + ["naive"]),
        (12, ["count", "--engine", "auto"], TIMINGS),
        # the naive engines count zero subsets below their subset size
        (3, ["count", "--engine", "naive"], TIMINGS + ["naive"]),
        (4, ["count", "--engine", "naive"], TIMINGS + ["naive"]),
        (3, ["count", "--engine", "auto"], TIMINGS + ["naive"]),
        (4, ["count", "--engine", "auto"], TIMINGS + ["naive"]),
        (7, ["verify"], TIMINGS + ["verify"]),
        (7, ["bound"], TIMINGS + ["bound"]),
    ],
    ids=["naive", "regions", "auto7", "auto12", "naive3", "naive4", "auto3", "auto4",
         "verify", "bound"],
)
def test_timings_keys(tmp_path, n, argv, keys, capsys):
    path = _write(tmp_path, "p.txt", dumps_placement(parabola(n)))
    assert main([argv[0], path, *argv[1:], "--format", "json"]) == 0
    timings = json.loads(capsys.readouterr().out)["timings"]
    assert list(timings) == keys
    assert all(isinstance(t, float) and t >= 0 for t in timings.values())
    assert main([argv[0], path, *argv[1:]]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert re.findall(r"(\w+)=\d+\.\d{4}s", line) == keys


# The cli globals that benchmark/tracer.py wraps by name to time each layer
# of a request; a request that stops calling one through cli leaves that
# per-layer metric at zero without any failure.
TRACED_CLI_NAMES = (
    "load_placement", "aggregate_regions", "count4_from_regions", "count5_from_regions",
    "count4_naive", "count5_naive", "verify_identities", "stats", "bound_report",
)


def test_requests_call_every_traced_cli_name(parabola7_file, capsys, monkeypatch):
    calls = dict.fromkeys(TRACED_CLI_NAMES, 0)

    def counter(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in TRACED_CLI_NAMES:
        monkeypatch.setattr(cli, name, counter(name, getattr(cli, name)))
    for request in (["count", "--engine", "naive"], ["verify"], ["bound"]):
        assert main([request[0], parabola7_file, *request[1:]]) == 0
    capsys.readouterr()
    assert [name for name, count in calls.items() if count == 0] == []


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
    assert Fraction(br["mean_gamma"]["exact"]) > 0
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


def _header(text: str) -> dict:
    """The "# key: value" comment lines of a placement file, as a dict."""
    return dict(line[2:].split(": ", 1) for line in text.splitlines()
                if line.startswith("# "))


def test_minimize_deterministic(tmp_path, capsys):
    argv = ["minimize", "--n", "6", "--iters", "200", "--restarts", "1",
            "--seed", "5", "--bound", "50"]
    outs = []
    for name in ("m1.txt", "m2.txt"):
        path = str(tmp_path / name)
        assert main(argv + ["-o", path]) == 0
        assert capsys.readouterr().out == ""
        outs.append(Path(path).read_text(encoding="ascii"))
        header = _header(outs[-1])
        assert "best_pentagons" in header
        assert header["consistency"] == "ok"
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


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "random", "--n", "9", "--seed", "2", "--bound", "500"],
    ["minimize", "--n", "8", "--iters", "200", "--restarts", "1", "--seed", "3"],
], ids=["gen", "minimize"])
def test_written_placement_is_one_loadable_file(tmp_path, argv, capsys):
    # stdout and the -o file carry the same bytes, and count reads them
    assert main(argv) == 0
    text = capsys.readouterr().out
    path = tmp_path / "p.txt"
    assert main(argv + ["-o", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text(encoding="ascii") == text
    placement = load_placement(text)
    assert main(["count", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == placement.n
    if argv[0] == "minimize":
        assert report["counts5"]["pentagon"] == _header(text)["best_pentagons"]


def test_text_report_walks_the_json_report(t2_file, capsys):
    # every stats and bound key is one text line of its section, in JSON order
    assert main(["bound", t2_file, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert main(["bound", t2_file]) == 0
    sections = {}
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("  "):
            sections[section].append(line)
        else:
            section = line.split(":", 1)[0]
            sections[section] = []
    for name in ("stats", "bound"):
        assert [line.split(":", 1)[0].strip() for line in sections[name]] == list(report[name])
        for line, value in zip(sections[name], report[name].values()):
            text = value["exact"] if isinstance(value, dict) else str(value)
            assert line.split(": ", 1)[1].startswith(text), line


def _report_outputs(path: str) -> dict:
    """Every request of REPORT_REQUESTS on one placement file in both
    formats, without timing values: a JSON report keeps the list of its
    timings keys, a text report drops its timings line."""
    outputs = {}
    for request in REPORT_REQUESTS:
        for fmt in ("json", "text"):
            buf = io.StringIO()
            with redirect_stdout(buf):
                assert main([request[0], path, *request[1:], "--format", fmt]) == 0
            out = buf.getvalue()
            if fmt == "json":
                report = json.loads(out)
                report["timings"] = list(report["timings"])
                outputs[f"{request[0]} json"] = report
            else:
                outputs[f"{request[0]} text"] = "".join(
                    line for line in out.splitlines(keepends=True)
                    if not line.startswith("timings: ")
                )
    return outputs


@pytest.mark.parametrize("name", sorted(REPORT_PLACEMENTS))
def test_reports_match_fixture(name, tmp_path):
    expected = json.loads(REPORTS_FIXTURE.read_text(encoding="utf-8"))[name]
    path = _write(tmp_path, f"{name}.txt", dumps_placement(REPORT_PLACEMENTS[name]))
    actual = _report_outputs(path)
    assert list(actual) == list(expected)
    for key, want in expected.items():
        if key.endswith(" json"):
            # dumped, so that key order counts as well as values
            assert json.dumps(actual[key], indent=2) == json.dumps(want, indent=2), key
        else:
            assert actual[key] == want, key


def test_readme_lists_every_subcommand():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    listed = {line.split()[1] for line in block.splitlines()
              if line.startswith("convexcount ")}
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert listed == set(sub.choices)


if __name__ == "__main__":
    # Rewrite the report fixture from the code as it stands.
    fixture = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, placement in sorted(REPORT_PLACEMENTS.items()):
            path = _write(Path(tmp), f"{name}.txt", dumps_placement(placement))
            fixture[name] = _report_outputs(path)
    REPORTS_FIXTURE.parent.mkdir(exist_ok=True)
    REPORTS_FIXTURE.write_text(json.dumps(fixture, indent=2) + "\n", encoding="utf-8")
