"""End-to-end checks of the command line: exit codes, formats, determinism.

Most cases drive ``main(argv)`` in-process and read capsys; a couple run the
real ``python3 -m ringcover`` to pin down the module entry point and process
exit codes.
"""

import json
import subprocess
import sys

import pytest

from ringcover.cli import main
from ringcover.graph_core import gen_cycle, gen_erdos_renyi, write_edge_list


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
