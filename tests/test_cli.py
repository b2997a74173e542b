"""End-to-end checks of the command line: exit codes, formats, determinism.

Most cases drive ``main(argv)`` in-process and read capsys; a couple run the
real ``python3 -m ringcover`` to pin down the module entry point and process
exit codes.
"""

import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcover import cli, wl
from ringcover.cli import main
from ringcover.graph_core import gen_cycle, gen_erdos_renyi, write_edge_list
from ringcover.perm_group import ring_powers, sigma


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- process-level ---------------------------------------------------------------


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ringcover", "cover", "--n", "5", "--out", "csv"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == ("prefix,unordered_pairs_covered\n"
                           "1,5\n2,10\n3,10\n4,10\n")


def test_process_exit_codes():
    bad_gen = subprocess.run(
        [sys.executable, "-m", "ringcover", "count", "--gen", "nope:3",
         "--kind", "triangle"],
        capture_output=True, text=True,
    )
    assert bad_gen.returncode == 1
    assert "error:" in bad_gen.stderr

    bad_usage = subprocess.run(
        [sys.executable, "-m", "ringcover", "count"],
        capture_output=True, text=True,
    )
    assert bad_usage.returncode == 2  # argparse: --kind is required


def test_version_flag():
    proc = subprocess.run(
        [sys.executable, "-m", "ringcover", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().count(".") == 2


# --- formats ---------------------------------------------------------------------


def test_count_csv_is_frozen(capsys):
    code, out, _ = run_cli(capsys, "count", "--gen", "complete:4",
                           "--kind", "triangle", "--out", "csv")
    assert code == 0
    assert out == "node,count\n0,3\n1,3\n2,3\n3,3\n"


def test_json_payload_shape(capsys):
    code, out, _ = run_cli(capsys, "wl", "--a", "complete:4", "--b", "star:3",
                           "--k", "1")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"tool_version", "command", "seed", "args", "result"}
    assert payload["command"] == "wl"
    assert payload["result"]["distinguished"] is True
    assert payload["args"]["k"] == 1


def test_cover_report_json(capsys):
    code, out, _ = run_cli(capsys, "cover", "--n", "8")
    result = json.loads(out)["result"]
    assert result["all_pairs_covered_after"] == 4
    assert result["first_block_disjoint"] is True
    assert result["unordered_pairs_covered_after"]["4"] == 28


def test_cover_arrangements_listing(capsys):
    code, out, _ = run_cli(capsys, "cover", "--n", "4",
                           "--emit", "arrangements", "--out", "csv")
    lines = out.splitlines()
    assert lines[0] == "arrangement,ring"
    assert lines[1] == "0,1 2 3 4"
    assert len(lines) == 1 + 4  # identity plus three proper powers


def test_coupon_csv_header_and_n2(capsys):
    code, out, _ = run_cli(capsys, "coupon", "--n", "2", "--trials", "50",
                           "--out", "csv")
    lines = out.splitlines()
    assert lines[0] == "n,mode,trials,mean,stddev,closed_form,pg_count,ratio"
    n, mode, trials, mean, stddev, closed, pg, ratio = lines[1].split(",")
    assert (n, mode, trials) == ("2", "undirected", "50")
    assert float(mean) == 1.0 and float(stddev) == 0.0  # one edge, one draw
    assert float(ratio) == 1.0


def test_coupon_range_sweep(capsys):
    code, out, _ = run_cli(capsys, "coupon", "--n", "4:8:2", "--trials", "20",
                           "--out", "csv")
    rows = out.splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["4", "6", "8"]


# --- determinism -----------------------------------------------------------------


def test_byte_identical_given_seed(capsys):
    args = ("estimate", "--gen", "complete:4", "--node", "0", "--r", "200",
            "--seeds", "3", "--seed", "7")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    payload = json.loads(first)
    assert len(payload["result"]["runs"]) == 3
    assert payload["result"]["runs"][0]["seed"] == 7


def test_seed_changes_simulation(capsys):
    base = ("coupon", "--n", "12", "--trials", "40", "--out", "csv")
    _, a, _ = run_cli(capsys, *base, "--seed", "1")
    _, b, _ = run_cli(capsys, *base, "--seed", "2")
    assert a != b


# --- file input ------------------------------------------------------------------


def test_edge_list_round_trip(tmp_path, capsys):
    g = gen_erdos_renyi(12, 0.4, seed=3)
    path = tmp_path / "g.txt"
    write_edge_list(g, path)

    _, from_file, _ = run_cli(capsys, "count", "--in", str(path),
                              "--kind", "triangle", "--out", "csv")
    _, from_gen, _ = run_cli(capsys, "count", "--gen", "er:12:0.4",
                             "--seed", "3", "--kind", "triangle", "--out", "csv")
    assert from_file == from_gen


def test_in_and_gen_together_is_an_error(capsys):
    code, _, err = run_cli(capsys, "count", "--in", "x.txt",
                           "--gen", "complete:4", "--kind", "triangle")
    assert code == 1
    assert "exactly one" in err


def test_missing_file_is_reported(capsys):
    code, _, err = run_cli(capsys, "count", "--in", "/no/such/file.txt",
                           "--kind", "triangle")
    assert code == 1
    assert err.startswith("error:")


# --- verdict plumbing ------------------------------------------------------------


def test_distinguish_auto_witness(capsys):
    code, out, _ = run_cli(capsys, "distinguish", "--a", "rooks",
                           "--b", "shrikhande")
    result = json.loads(out)["result"]
    assert result == {"distinguished": True, "witness": "4clique", "layers": 2}


def test_distinguish_witness_none_stays_blind(capsys):
    code, out, _ = run_cli(capsys, "distinguish", "--a", "rooks",
                           "--b", "shrikhande", "--witness", "none")
    result = json.loads(out)["result"]
    assert result["distinguished"] is False
    assert result["witness"] is None


def test_distinguish_degree_witness(capsys):
    code, out, _ = run_cli(capsys, "distinguish", "--a", "star:3",
                           "--b", "complete:4")
    result = json.loads(out)["result"]
    assert result["distinguished"] is True
    assert result["witness"] == "degree"


def test_distinguish_size_witness(capsys):
    # different node counts are told apart before any degree feature is built
    code, out, _ = run_cli(capsys, "distinguish", "--a", "complete:4",
                           "--b", "complete:5")
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {"distinguished": True, "witness": "size", "layers": 2}


def test_wl_file_inputs(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    write_edge_list(gen_erdos_renyi(9, 0.35, seed=1), a)
    write_edge_list(gen_erdos_renyi(9, 0.35, seed=2), b)
    code, out, _ = run_cli(capsys, "wl", "--a", str(a), "--b", str(b), "--k", "2")
    assert code == 0
    json.loads(out)  # shape is already pinned elsewhere; this must parse


# --- malformed input ends in one error line --------------------------------------


def test_node_outside_the_graph_is_reported(capsys):
    code, out, err = run_cli(capsys, "estimate", "--gen", "star:3", "--node", "9",
                             "--r", "100")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "out of range" in err


def test_zero_seeds_is_reported(capsys):
    code, out, err = run_cli(capsys, "estimate", "--gen", "complete:4", "--node", "0",
                             "--r", "100", "--seeds", "0")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--seeds" in err


@pytest.mark.parametrize("spec", ["5:3", "4:8:-1", "4:8:0", "3:x", "1:2:3:4"])
def test_bad_coupon_range_is_reported(capsys, spec):
    code, out, err = run_cli(capsys, "coupon", "--n", spec, "--trials", "3")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and repr(spec) in err


def test_impossible_graph_size_is_reported(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("1000000000 0 u\n")  # 10¹⁸ bytes dense: refused at once
    code, out, err = run_cli(capsys, "count", "--in", str(path), "--kind", "triangle")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_pair_inputs_read_any_file_name(tmp_path, capsys):
    path = tmp_path / "g.edges"
    write_edge_list(gen_cycle(6), path)
    for command in ("wl", "distinguish"):
        code, out, _ = run_cli(capsys, command, "--a", str(path), "--b", "cycle:6")
        assert code == 0
        assert json.loads(out)["result"]["distinguished"] is False
        code, _, err = run_cli(capsys, command, "--a", str(tmp_path / "missing.edges"),
                               "--b", "cycle:6")
        assert code == 1 and err.startswith("error:")


def test_wl_size_mismatch_names_both_node_counts(capsys):
    code, out, err = run_cli(capsys, "wl", "--a", "rooks", "--b", "cycle:6")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "16" in err and "6 nodes" in err


def test_wl_refines_once(monkeypatch, capsys):
    calls = []
    joint = wl._joint_histograms

    def spy(graphs, k, budget):
        calls.append(len(graphs))
        return joint(graphs, k, budget)

    monkeypatch.setattr(wl, "_joint_histograms", spy)
    code, out, _ = run_cli(capsys, "wl", "--a", "rooks", "--b", "shrikhande", "--k", "2")
    assert code == 0
    assert calls == [2]
    result = json.loads(out)["result"]
    assert result["distinguished"] is False
    assert result["class_counts_a"] == result["class_counts_b"]


def test_wl_class_counts_follow_their_graph(capsys):
    _, out, _ = run_cli(capsys, "wl", "--a", "star:5", "--b", "cycle:6")
    result = json.loads(out)["result"]
    assert result["class_counts_a"] == [1, 2, 2]
    assert result["class_counts_b"] == [1, 1]


# --- fuzz: any argv ends in output or in one error line --------------------------

# about half of each draw is well formed, so the commands also run to the end
_NUMBERS = st.sampled_from(["3", "4", "6"]) | st.sampled_from(["-2", "0", "1", "2", "2.5",
                                                              "x", ""])
_PROBS = st.sampled_from(["0", "0.3", "1", "1.5", "-0.2", "nan", "inf", "x"])
_GENERATORS = st.one_of(
    st.sampled_from(["complete:4", "cycle:4", "cycle:6", "star:3", "star:5", "er:6:0.5",
                     "regular:6:2", "regular:6:3", "rooks", "shrikhande"]),
    st.builds("complete:{}".format, _NUMBERS),
    st.builds("star:{}".format, _NUMBERS),
    st.builds("cycle:{}".format, _NUMBERS),
    st.builds("er:{}:{}".format, _NUMBERS, _PROBS),
    st.builds("regular:{}:{}".format, _NUMBERS, _NUMBERS),
    st.sampled_from(["rooks", "shrikhande", "rooks:1", "complete", "er:4",
                     "complete:2:3", "nope:3", "", ":"]),
)
_FILES = {
    "undirected.txt": "7 8 u\n0 1\n1 2\n2 0\n2 3\n3 4\n4 5\n5 6\n6 3\n",
    "directed.txt": "5 6 d\n0 1\n1 2\n2 0\n2 3\n3 4\n4 2\n",
    "single.txt": "1 0 u\n",
    "empty.txt": "",
    "bad_header.txt": "3 2 x\n0 1\n1 2\n",
    "short.txt": "4 3 u\n0 1\n1 2\n",
    "out_of_range.txt": "3 2 u\n0 1\n1 7\n",
    "self_loop.txt": "3 1 u\n1 1\n",
    "words.txt": "three 1 u\n0 1\n",
    "no_nodes.txt": "0 0 u\n",
    # a dense adjacency of 10¹⁸ bytes: the allocation fails at once, nothing is touched
    "huge.txt": "1000000000 0 u\n",
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for name, text in _FILES.items():
        (d / name).write_text(text)
    (d / "latin1.txt").write_bytes(b"3 1 u\n0 \xff\n")
    (d / "folder").mkdir()
    return d


def _argvs(d):
    # Options that argparse types (--n of cover, --k, --r, ...) get integers:
    # argparse answers a mistyped value with its usage and exit 2, which
    # test_process_exit_codes pins.  Everything the program parses itself
    # (generator specs, --n of coupon, files) is drawn malformed as well.
    files = st.sampled_from(sorted(_FILES) + ["latin1.txt", "folder", "missing.txt"]
                            ).map(lambda name: str(d / name))
    graph = _GENERATORS | files
    ints = st.integers(-2, 9).map(str)
    seed = st.just([]) | st.builds(lambda s: ["--seed", s], st.sampled_from(["-1", "0", "3"]))
    out = st.sampled_from([[], ["--out", "csv"], ["--out", "json"]])
    source = st.one_of(
        st.builds(lambda g: ["--gen", g], _GENERATORS),
        st.builds(lambda g: ["--gen", g], _GENERATORS),
        st.builds(lambda f: ["--in", f], files),
        st.builds(lambda g, f: ["--gen", g, "--in", f], _GENERATORS, files),
        st.just([]),
    )

    def cmd(name, *parts):
        return st.tuples(*parts).map(lambda ps: [name] + [a for p in ps for a in p])

    def opt(flag, values):
        return values.map(lambda v: [flag, v])

    def maybe(flag, values):
        return st.just([]) | opt(flag, values)

    kinds = st.sampled_from(["triangle", "4clique", "wedge", "clustering",
                             "directed-triangle"])
    sized = st.builds("{}:{}".format, st.sampled_from(["complete", "cycle", "star"]),
                      st.integers(3, 6).map(str))
    return st.one_of(
        cmd("count", source, opt("--kind", kinds), seed, out),
        cmd("cover", opt("--n", ints),
            maybe("--emit", st.sampled_from(["report", "arrangements"])), out),
        cmd("cover", opt("--n", st.integers(1, 12).map(str)),
            st.just(["--emit", "arrangements"]), out),
        cmd("wl", opt("--a", graph), opt("--b", graph), maybe("--k", st.integers(-1, 4).map(str)),
            seed, out),
        cmd("estimate", source, opt("--node", st.integers(0, 3).map(str) | ints),
            opt("--r", st.integers(3, 60).map(str) | st.integers(-1, 2).map(str)),
            maybe("--seeds", st.integers(-1, 3).map(str)),
            maybe("--augment", st.sampled_from(["auto", "on", "off"])),
            maybe("--start", st.sampled_from(["uniform", "degree_proportional"])), seed, out),
        cmd("coupon",
            opt("--n", st.sampled_from(["-3", "0", "1", "2", "5", "3:6", "6:3", "5:3", "2:8:3",
                                        "2:8:0", "4:8:0", "2:8:-1", "4:8:-1", "1:2:3:4", "x",
                                        ""])),
            maybe("--trials", st.integers(-1, 5).map(str)),
            st.sampled_from([[], ["--directed"]]), seed, out),
        cmd("distinguish", opt("--a", graph), opt("--b", graph),
            maybe("--layers", st.integers(-1, 3).map(str)),
            maybe("--witness", st.sampled_from(["auto", "none"])), seed, out),
        # well-formed pairs, often of different node counts
        cmd("distinguish", opt("--a", sized), opt("--b", sized), seed, out),
    )


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_exits_cleanly(fuzz_dir, data):
    argv = data.draw(_argvs(fuzz_dir))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert out and not err
        if argv[0] == "coupon":  # a sweep that succeeds has at least one row
            assert len(out.splitlines()) > 1 if "csv" in argv else json.loads(out)["result"]["rows"]
        if "csv" not in argv:
            result = json.loads(out)["result"]
            if argv[0] == "cover" and "arrangements" in argv:
                assert result["rings"] == ring_powers(sigma(result["n"])).tolist()
            if argv[0] == "distinguish":
                g1, g2 = cli._load_pair(cli._build_parser().parse_args(argv))
                sizes_differ = g1.node_count != g2.node_count
                assert (result["witness"] == "size") == sizes_differ, (argv, result)
    else:
        assert code == 1, argv
        assert out == "" and err.startswith("error:") and err.count("\n") == 1, (argv, err)
