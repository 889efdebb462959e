"""End-to-end command line checks, run through subprocess for honest exit codes.

Every expected stdout line is frozen byte-for-byte: the tool promises stable
output for identical input, and these tests are that promise.
"""

import ast
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from alphacrit import cli, prooflab
from alphacrit.graphs import complete_graph, cycle_graph, to_graph6
from alphacrit.subdivisions import Tok4Certificate

CLI = [sys.executable, "-m", "alphacrit.cli"]
DATA = Path(cli.__file__).parent / "data"


def run_cli(*args, stdin=""):
    return subprocess.run(
        CLI + list(args), input=stdin, capture_output=True, text=True, timeout=300,
    )


def test_analyze_all_frozen(tmp_path):
    f = tmp_path / "c5.g6"
    f.write_text("Dhc\n")
    r = run_cli("analyze", "--file", str(f))
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout == (
        '{"graph6": "Dhc", "n": 5, "m": 5, "alpha": 2, "alpha_critical": true,'
        ' "critical_edge_count": 5, "tok4": null, "rho_tilde_times_2": 4,'
        ' "cover": {"vertices": [], "edges": [], "odd_cycles": [[0, 1, 2, 3, 4]],'
        ' "cost_times_2": 4}}\n'
    )


def test_analyze_single_flag_frozen(tmp_path):
    f = tmp_path / "k4.g6"
    f.write_text("C~\n")
    r = run_cli("analyze", "--tok4", "--file", str(f))
    assert r.returncode == 0
    assert r.stdout == (
        '{"graph6": "C~", "n": 4, "m": 6, "tok4": {"branch": [0, 1, 2, 3],'
        ' "paths": {"ab": [0, 1], "ac": [0, 2], "ad": [0, 3], "bc": [1, 2],'
        ' "bd": [1, 3], "cd": [2, 3]}}}\n'
    )


def test_analyze_reads_stdin():
    r = run_cli("analyze", "--alpha", stdin="Dhc\n")
    assert r.returncode == 0
    assert r.stdout == '{"graph6": "Dhc", "n": 5, "m": 5, "alpha": 2}\n'


def test_analyze_oversize_graph_skips_cover():
    r = run_cli("analyze", "--cover", stdin="IsP@PGXD_\n")  # Petersen, n=10
    assert r.returncode == 0
    rec = json.loads(r.stdout)
    assert rec["rho_tilde_times_2"] is None and rec["cover"] is None
    assert rec["skipped"] == {"cover": "cover DP capped at n=9, got 10"}


def test_analyze_bad_line_keeps_streaming(tmp_path):
    f = tmp_path / "mixed.g6"
    f.write_text("Dhc\nnot-a-graph\nC~\n")
    r = run_cli("analyze", "--alpha", "--file", str(f))
    assert r.returncode == 2
    lines = r.stdout.splitlines()
    assert len(lines) == 2  # the graphs around the bad line still analyzed
    assert json.loads(lines[0])["graph6"] == "Dhc"
    assert json.loads(lines[1])["graph6"] == "C~"
    assert r.stderr == "line 2: byte 45 at offset 3 outside printable graph6 range 63..126\n"


BAD_BYTE = "line 2: byte 255 at offset 0 outside printable graph6 range 63..126"


def run_cli_bytes(*args, stdin=b""):
    return subprocess.run(CLI + list(args), input=stdin, capture_output=True, timeout=300)


def test_invalid_byte_in_file_is_a_parse_error(tmp_path):
    # \xff is neither UTF-8 nor a graph6 byte
    f = tmp_path / "bad.g6"
    f.write_bytes(b"Dhc\n\xff\nC~\n")
    r = run_cli_bytes("analyze", "--alpha", "--file", str(f))
    assert r.returncode == 2
    assert [json.loads(line)["graph6"] for line in r.stdout.splitlines()] == ["Dhc", "C~"]
    assert r.stderr.decode() == BAD_BYTE + "\n"
    for cmd in (["verify", "theorem1"], ["witness"]):
        r = run_cli_bytes(*cmd, "--file", str(f))
        assert r.returncode == 2 and r.stdout == b""
        assert r.stderr.decode() == f"{f}, {BAD_BYTE}\n"


def test_invalid_byte_on_stdin_is_a_parse_error():
    r = run_cli_bytes("analyze", "--alpha", stdin=b"Dhc\n\xff\nC~\n")
    assert r.returncode == 2
    assert [json.loads(line)["graph6"] for line in r.stdout.splitlines()] == ["Dhc", "C~"]
    assert r.stderr.decode() == BAD_BYTE + "\n"


def test_analyze_missing_file():
    r = run_cli("analyze", "--file", "/nonexistent/x.g6")
    assert r.returncode == 2
    assert "cannot read" in r.stderr


def test_verify_lemma_summary_frozen():
    r = run_cli("verify", "lemma1", "--enumerate", "5")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert len(lines) == 32  # 31 graph reports plus the summary
    assert json.loads(lines[0]) == {
        "claim": "lemma1", "graph6": "@", "verdict": "inapplicable",
        "witness": {"reason": "fewer than 4 vertices"},
    }
    assert lines[-1] == (
        '{"summary": {"claims": ["lemma1"], "graphs": 31, "pass": 3,'
        ' "fail": 0, "inapplicable": 28}}'
    )


def test_verify_failure_exits_one(tmp_path):
    # two copies of the cube are two survivors, which the uniqueness claim rejects
    f = tmp_path / "cubes.g6"
    f.write_text("Gr`HOk\nGr`HOk\n")
    r = run_cli("verify", "cube", "--file", str(f))
    assert r.returncode == 1
    lines = r.stdout.splitlines()
    rec = json.loads(lines[0])
    assert rec["verdict"] == "fail"
    assert rec["witness"]["survivors"] == ["Gr`HOk", "Gr`HOk"]
    assert json.loads(lines[-1])["summary"]["fail"] == 1


def test_verify_deleted_vertex_claims_above_16_vertices(tmp_path):
    # C17 - u has a perfect matching of 8 critical edges, so claim2 finds max
    # degree 1 and the two constructions of that matching agree at every u
    code = "PhCGGC@?G?_@?@??_?G?@_?C"
    f = tmp_path / "c17.g6"
    f.write_text(code + "\n")
    r = run_cli("verify", "claim2", "--file", str(f))
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout == "".join(
        f'{{"claim": "claim2", "graph6": "{code}", "verdict": "inapplicable",'
        f' "witness": {{"vertex": {u}, "max_degree": 1}}}}\n' for u in range(17)
    ) + '{"summary": {"claims": ["claim2"], "graphs": 1, "pass": 0, "fail": 0, "inapplicable": 17}}\n'
    r = run_cli("verify", "eq1_consistency", "--file", str(f))
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout == "".join(
        f'{{"claim": "eq1_consistency", "graph6": "{code}", "verdict": "pass",'
        f' "witness": {{"vertex": {u}, "edge_count": 8}}}}\n' for u in range(17)
    ) + '{"summary": {"claims": ["eq1_consistency"], "graphs": 1, "pass": 17, "fail": 0, "inapplicable": 0}}\n'
    r = run_cli("verify", "claim3", "--file", str(f))
    assert r.returncode == 0
    assert json.loads(r.stdout.splitlines()[-1])["summary"]["pass"] == 17


def test_verify_deleted_vertex_claims_on_c31(tmp_path):
    f = tmp_path / "c31.g6"
    f.write_text(to_graph6(cycle_graph(31)) + "\n")
    for claim, verdict in (("claim2", "inapplicable"), ("eq1_consistency", "pass")):
        r = run_cli("verify", claim, "--file", str(f))
        assert r.returncode == 0 and r.stderr == ""
        recs = [json.loads(line) for line in r.stdout.splitlines()]
        assert [rec["verdict"] for rec in recs[:-1]] == [verdict] * 31
        assert recs[-1]["summary"][verdict] == 31


def test_verify_unknown_claim_is_usage_error():
    for bad in ("bogus", "case1"):
        r = run_cli("verify", bad, "--enumerate", "4")
        assert r.returncode == 64
        assert f"unknown claim id '{bad}'" in r.stderr


def test_verify_requires_exactly_one_source(tmp_path):
    f = tmp_path / "c5.g6"
    f.write_text("Dhc\n")
    r = run_cli("verify", "theorem1", "--enumerate", "4", "--file", str(f))
    assert r.returncode == 64
    r = run_cli("verify", "theorem1")
    assert r.returncode == 64


def test_witness_frozen(tmp_path):
    r = run_cli("witness", "--enumerate", "5")
    assert r.returncode == 0
    assert r.stdout == '{"found": false, "graph6": null, "triangle": null, "bound": 5}\n'

    f = tmp_path / "wit.g6"
    f.write_text("FJa^O\n")
    r = run_cli("witness", "--file", str(f))
    assert r.returncode == 0
    assert r.stdout == '{"found": true, "graph6": "FJa^O", "triangle": [0, 4, 5], "bound": 7}\n'


def test_enumerate_frozen():
    r = run_cli("enumerate", "4")
    assert r.returncode == 0
    assert r.stdout == "CF\nCL\nCN\nC]\nC^\nC~\n"
    r = run_cli("enumerate", "1")
    assert r.stdout == "@\n"
    r = run_cli("enumerate", "5", "--alpha-critical")
    assert r.stdout == "DLo\nD~{\n"


def test_enumerate_out_of_range():
    r = run_cli("enumerate", "9")
    assert r.returncode == 64
    assert "must be in 1..8" in r.stderr


def test_import_and_enumerate_do_not_load_numpy():
    code = (
        "import sys, alphacrit; from alphacrit.cli import main; "
        "main(['enumerate', '5']); print('numpy' in sys.modules)"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout.splitlines()[-1] == "False"


def test_package_exports_every_imported_name():
    # __all__ lists exactly the names the package's __init__ imports
    import alphacrit

    tree = ast.parse(Path(alphacrit.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(alphacrit.__all__) == len(set(alphacrit.__all__))
    assert set(alphacrit.__all__) == imported


def test_no_command_is_usage_error():
    r = run_cli()
    assert r.returncode == 64
    assert "usage:" in r.stderr


def test_repeated_runs_are_byte_identical():
    first = run_cli("verify", "theorem1", "claim3", "--enumerate", "5")
    second = run_cli("verify", "theorem1", "claim3", "--enumerate", "5")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_verify_cube_without_q3_is_inapplicable(tmp_path):
    # a corpus with no survivor lacks Q3, so it cannot be every graph up to its
    # largest order; that is a precondition miss, not a failed claim
    f = tmp_path / "k8_p9.g6"
    f.write_text("G~~~~{\nHhCGGC@\n")
    r = run_cli("verify", "cube", "--file", str(f))
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout == (
        '{"claim": "cube", "graph6": "", "verdict": "inapplicable", "witness": {"reason":'
        ' "corpus lacks Q3, so it is not every connected graph up to n=9"}}\n'
        '{"summary": {"claims": ["cube"], "graphs": 2, "pass": 0, "fail": 0, "inapplicable": 1}}\n'
    )


def test_verify_every_claim_above_every_cap(tmp_path):
    # C17 is larger than the 16-vertex cap of all_max_stable_sets's 2^n scan;
    # every claim runs on it in full, and none may end in a traceback
    f = tmp_path / "c17.g6"
    f.write_text("PhCGGC@?G?_@?@??_?G?@_?C\n")
    r = run_cli("verify", "--file", str(f))
    assert r.returncode == 0 and r.stderr == ""
    summary = json.loads(r.stdout.splitlines()[-1])["summary"]
    assert (summary["pass"], summary["inapplicable"], summary["fail"]) == (36, 20, 0)


def test_analyze_all_at_the_vertex_cap(tmp_path):
    f = tmp_path / "big.g6"
    f.write_text("".join(to_graph6(g) + "\n" for g in (cycle_graph(31), cycle_graph(32), complete_graph(32))))
    r = run_cli("analyze", "--all", "--file", str(f))
    assert r.returncode == 0 and r.stderr == ""
    recs = [json.loads(line) for line in r.stdout.splitlines()]
    assert [(rec["n"], rec["alpha_critical"], rec["critical_edge_count"]) for rec in recs] == [
        (31, True, 31), (32, False, 0), (32, True, 496)]
    assert all(rec["skipped"] == {"cover": f"cover DP capped at n=9, got {rec['n']}"} for rec in recs)


def test_verify_null_graph_is_inapplicable(tmp_path):
    # K0 is not a connected alpha-critical graph with a vertex, so no claim
    # about such graphs may fail on it
    f = tmp_path / "k0.g6"
    f.write_text("?\n")
    r = run_cli("verify", "--file", str(f))
    assert r.returncode == 0 and r.stderr == ""
    recs = [json.loads(line) for line in r.stdout.splitlines()]
    assert all(rec["witness"] == {"reason": "no vertices"} for rec in recs[:6])
    summary = recs[-1]["summary"]
    assert (summary["pass"], summary["fail"], summary["inapplicable"]) == (1, 0, 7)


def test_verify_enumerate_7_stdout_frozen(capsys):
    # digest of the whole sweep's output: any change in a verdict, a witness
    # or the report order shows here
    rc = cli.main(["verify", "--enumerate", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "057d45890fafddbe72bceeb092faf997818c7a20a5e68e092d35def647d56a42"
    )


def test_verify_critical_corpus_stdout_frozen(capsys):
    # every claim on the packaged alpha-critical classes: claim2 and
    # eq1_consistency do real work on each of them
    path = Path(cli.__file__).parent / "data" / "alpha_critical_upto9.g6"
    rc = cli.main(["verify", "--file", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "63c6216aad65e1073eee860644e9edd1917a490bff3fc277d3405750a0ba012c"
    )


@pytest.mark.parametrize("argv, digest", [
    (["witness", "--enumerate", "7"], "8db8c3f9e68153c977a32e5bb83222c7ed818ed0c4ce5339a259120d1e0fd288"),
    (["analyze", "--file", str(DATA / "alpha_critical_upto9.g6")],
     "bc456c37b07117320635c2233836f3e43ca166e9ac3947fd15f9b0e59177a51e"),
    (["enumerate", "8", "--alpha-critical"], "e7aa2d2322013f3cf4c766e6f700bb6ae8e1fded88dfeead37d4d8d0e721430a"),
], ids=["witness-7", "analyze-critical", "enumerate-8-critical"])
def test_cli_stdout_frozen(argv, digest, capsys):
    # the witness search to n=7, the full analysis at the cover DP's n=9 cap
    # and the critical classes on 8 vertices, each hashed whole
    rc = cli.main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv", [["verify", "theorem1", "--enumerate", "4"], ["witness", "--enumerate", "7"]], ids=["verify", "witness"],
)
def test_unverifiable_certificate_is_an_internal_error(monkeypatch, capsys, argv):
    # a TOK4 whose paths do not join its branch vertices: the re-verification
    # behind a claim check or the witness search raises CertificateError, which
    # is a bug in the toolkit, not a failed claim, so it must not end in a
    # traceback, in exit 1 or in a witness
    bad = Tok4Certificate((0, 1, 2, 3), ((0, 1),) * 6)
    monkeypatch.setattr(prooflab, "find_tok4", lambda g: bad)
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 70
    assert err.count("\n") == 1 and err.startswith("alphacrit: internal error: ")
    assert "Traceback" not in err
