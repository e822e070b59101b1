import io
import json
import os
import subprocess
import sys
import time

import pytest

import graceful
from graceful import cli
from graceful.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_an(capsys):
    code, payload = run(capsys, "an", "4")
    assert code == 0
    assert payload == {"schema": 1, "n": 4, "a": 5, "witness": [1, 2, 4, 5]}


def test_an_beyond_sequence_limit_is_undecided(capsys):
    assert_undecided(capsys, "an", "21")


def test_an_zero_is_input_error(capsys):
    assert main(["an", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_chig_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("A_\n"))
    code, payload = run(capsys, "chig", "-")
    assert code == 0 and payload["value"] == 2


def test_chig_beyond_sequence_limit(capsys, tmp_path):
    from graceful import star_graph, write_edge_list
    p = tmp_path / "star20.txt"
    p.write_text(write_edge_list(star_graph(20)))
    code, payload = run(capsys, "chig", str(p))
    assert code == 0 and payload["value"] == 21


def test_decide(capsys, tmp_path):
    p = tmp_path / "k3.txt"
    p.write_text("3 3\n0 1\n1 2\n0 2\n")
    code, payload = run(capsys, "decide", "--k", "4", str(p))
    assert code == 0 and payload["answer"] == "yes"
    code, payload = run(capsys, "decide", "--k", "3", str(p))
    assert code == 0 and payload["answer"] == "no"


def test_verify(capsys, tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("3 2\n0 1\n1 2\n")
    c = tmp_path / "c.json"
    c.write_text("[1, 2, 4]")
    code, payload = run(capsys, "verify", "--coloring", str(c), str(g))
    assert code == 0 and payload["answer"] == "valid"
    c.write_text("[1, 2, 3]")
    code, payload = run(capsys, "verify", "--coloring", str(c), str(g))
    assert payload["answer"] == "invalid"
    assert payload["violation"]["kind"] == "label"


def test_verify_rejects_boolean_colors(capsys, tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("3 2\n0 1\n1 2\n")
    c = tmp_path / "c.json"
    c.write_text("[true, 2, 3]")
    assert main(["verify", "--coloring", str(c), str(g)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_verify_empty_graph(capsys, tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("0 0\n")
    c = tmp_path / "c.json"
    c.write_text("[]")
    code, payload = run(capsys, "verify", "--coloring", str(c), str(g))
    assert code == 0 and payload["answer"] == "valid"


def test_bounds(capsys, tmp_path):
    p = tmp_path / "c5.g6"
    p.write_text("Dhc\n")
    code, payload = run(capsys, "bounds", str(p))
    assert code == 0 and (payload["lower"], payload["upper"]) == (5, 9)


def assert_undecided(capsys, *argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("undecided: ")


def test_bounds_budget_exhausted_exit_code(capsys, tmp_path):
    p = tmp_path / "c5.g6"
    p.write_text("Dhc\n")
    assert_undecided(capsys, "bounds", "--budget", "1", str(p))


def test_gadget_budget_exhausted_exit_code(capsys):
    assert_undecided(capsys, "gadget", "verify", "variable", "--budget", "5")


def test_bounds_beyond_sequence_limit_exit_code(capsys, tmp_path):
    from graceful import star_graph, write_edge_list
    p = tmp_path / "star20.txt"
    p.write_text(write_edge_list(star_graph(20)))  # chi(G^2) = 21
    assert_undecided(capsys, "bounds", str(p))


def test_gen_deterministic(capsys):
    code, a = run(capsys, "gen", "cubic", "8", "3")
    _, b = run(capsys, "gen", "cubic", "8", "3")
    assert code == 0 and a == b


def test_encode_and_solve(capsys, tmp_path):
    g = tmp_path / "k4.txt"
    g.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, payload = run(capsys, "solve", "--k", "5", str(g))
    assert code == 0 and payload["answer"] == "yes"
    code, out = run(capsys, "encode", "--k", "5", str(g))
    assert code == 0 and out.startswith("p cnf 20 ")


def test_reduce_and_check_nae(capsys, tmp_path):
    phi = tmp_path / "phi.nae"
    phi.write_text("p nae 3 4\n1 2 3\n1 2 3\n1 2 3\n1 2 3\n")
    sidecar = tmp_path / "prov.json"
    code, payload = run(capsys, "reduce", "nae", "--sidecar", str(sidecar), str(phi))
    assert code == 0 and payload["n"] == 126
    assert json.loads(sidecar.read_text())["port_edges"]
    code, payload = run(capsys, "check", "nae", str(phi))
    assert code == 0 and payload["answer"] == "consistent"
    # the assignment read off the coloring NAE-satisfies {x1, x2, x3}
    assert len(payload["assignment"]) == 3 and len(set(payload["assignment"])) == 2


def test_gadget_verify(capsys):
    code, payload = run(capsys, "gadget", "verify", "clause")
    assert code == 0 and payload["certified"] is True
    code, payload = run(capsys, "gadget", "verify", "variable")
    assert code == 0 and payload["certified"] is True
    assert payload["colorings_enumerated"] == 16


def test_input_error_exit_code(capsys, tmp_path):
    p = tmp_path / "bad.g6"
    p.write_text("~~~~\n")
    code = main(["chig", str(p)])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["decide", "--k", "five", "g.g6"], ["gen", "wheel", "5"], ["an"],
])
def test_usage_error_exit_code(capsys, argv):
    # argparse's own exit code 2 would read as undecided
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert f"graceful {argv[0]}: error: " in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--help"])
    assert exc.value.code == 0


def test_unknown_exit_code(capsys, tmp_path):
    p = tmp_path / "k6.txt"
    from graceful import complete_graph, write_edge_list
    p.write_text(write_edge_list(complete_graph(6)))
    code, payload = run(capsys, "decide", "--k", "10", "--budget", "3", str(p))
    assert code == 2 and payload["answer"] == "unknown"


def test_solve_unknown_reports_budget(capsys, tmp_path):
    from graceful import complete_graph, write_edge_list
    p = tmp_path / "k6.txt"
    p.write_text(write_edge_list(complete_graph(6)))
    code, payload = run(capsys, "solve", "--k", "10", "--budget", "3", str(p))
    assert code == 2 and payload["answer"] == "unknown"
    assert payload["nodes_searched"] == 3 and payload["witness"] is None


def test_decide_deep_path(capsys, tmp_path):
    from graceful import path_graph, write_edge_list
    p = tmp_path / "p1200.txt"
    p.write_text(write_edge_list(path_graph(1200)))
    code, payload = run(capsys, "decide", "--k", "5", str(p))
    assert code == 0 and payload["answer"] == "yes"
    assert payload["nodes_searched"] == 1200


def test_byte_identical_output(capsys, tmp_path):
    p = tmp_path / "g.g6"
    p.write_text("Dhc\n")
    main(["chig", str(p)])
    first = capsys.readouterr().out
    main(["chig", str(p)])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("params, names", [
    (["gnp", "5"], "n p seed"), (["star"], "n"),
    (["cubic", "8"], "n seed"), (["cubic", "8", "1", "2"], "n seed"),
])
def test_gen_wrong_parameter_count(params, names):
    src = os.path.dirname(os.path.dirname(graceful.__file__))
    proc = subprocess.run([sys.executable, "-m", "graceful.cli", "gen", *params],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert f"({names})" in proc.stderr


def test_graph6_header_alone_on_stdin_is_input_error():
    src = os.path.dirname(os.path.dirname(graceful.__file__))
    proc = subprocess.run([sys.executable, "-m", "graceful.cli", "chig", "-"],
                          input=">>graph6<<\n", capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: empty graph6 string\n"


def test_gen_long_form_graph6(capsys):
    code, payload = run(capsys, "gen", "cubic", "64", "1")
    assert code == 0 and payload["n"] == 64 and payload["graph6"][0] == "~"


def test_reduce_nae_graph6_feeds_decide(capsys, tmp_path):
    phi = tmp_path / "phi.nae"
    phi.write_text("p nae 3 4\n1 2 3\n1 2 3\n1 2 3\n1 2 3\n")
    code, payload = run(capsys, "reduce", "nae", str(phi))
    assert code == 0
    g = tmp_path / "reduced.g6"
    g.write_text(payload["graph6"] + "\n")
    code, payload = run(capsys, "decide", "--k", "4", "--budget", "3000", str(g))
    assert code == 0 and payload["answer"] == "yes"
    assert payload["nodes_searched"] == 130


def test_check_nae_nine_variables_is_undecided(capsys, tmp_path):
    phi = tmp_path / "phi9.nae"
    clauses = [f"{a} {a + 1} {a + 2}\n" for a in (1, 4, 7) for _ in range(4)]
    phi.write_text("p nae 9 12\n" + "".join(clauses))
    code, payload = run(capsys, "check", "nae", "--budget", "200", str(phi))
    assert code == 2 and payload["answer"] == "unknown"


def test_check_nae_beyond_brute_force_limit_is_undecided(capsys, tmp_path):
    # nine disjoint copies of the 3-variable instance: valid, and too many
    # variables for the brute-force side of the check
    phi = tmp_path / "phi27.nae"
    clauses = [f"{a} {a + 1} {a + 2}\n" for a in range(1, 28, 3) for _ in range(4)]
    phi.write_text("p nae 27 36\n" + "".join(clauses))
    assert_undecided(capsys, "check", "nae", str(phi))


def test_solve_external_unknown_verdict(capsys, tmp_path):
    g = tmp_path / "k3.txt"
    g.write_text("3 3\n0 1\n1 2\n0 2\n")
    solver = f"{sys.executable} -c \"print('s UNKNOWN')\""
    code, payload = run(capsys, "solve", "--k", "5", "--external", solver, str(g))
    assert code == 2 and payload["answer"] == "unknown"


@pytest.mark.parametrize("solver, code", [
    ("exit 3", 3),
    ("graceful-no-such-solver", 127),
    ("echo 's UNSATISFIABLE'; exit 1", 1),
    ("echo 's SATISFIABLE'; exit 20", 20),
    ("true", 0),
    ("echo 's SATISFIABLE'; exit 10", 10),
])
def test_solve_external_failed_solver_is_undecided(capsys, tmp_path, solver, code):
    # only exit 0, 10 with SATISFIABLE or 20 with UNSATISFIABLE is trusted,
    # and only with a verdict and, for SATISFIABLE, a model that is a coloring
    g = tmp_path / "k3.txt"
    g.write_text("3 3\n0 1\n1 2\n0 2\n")
    assert main(["solve", "--k", "5", "--external", solver, str(g)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"code {code}" in captured.err
    assert captured.err.startswith("undecided: external solver")


def test_solve_external_timeout_is_undecided(capsys, tmp_path, monkeypatch):
    # sleep, a child of the shell, holds stdout open until the whole process
    # group is killed
    monkeypatch.setattr(cli, "EXTERNAL_TIMEOUT_S", 0.5)
    g = tmp_path / "k3.txt"
    g.write_text("3 3\n0 1\n1 2\n0 2\n")
    start = time.monotonic()
    assert main(["solve", "--k", "5", "--external", "sleep 30; echo", str(g)]) == 2
    assert time.monotonic() - start < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("undecided: external solver timed out")


def test_solve_external_exit_code_verdicts(capsys, tmp_path):
    g = tmp_path / "k3.txt"
    g.write_text("3 3\n0 1\n1 2\n0 2\n")
    code, payload = run(capsys, "solve", "--k", "5", "--external",
                        "echo 's UNSATISFIABLE'; exit 20", str(g))
    assert code == 0 and payload["answer"] == "no"


def write_graphs(tmp_path):
    from graceful import cubic_graph, hypercube_graph, write_graph6
    c12, q3 = tmp_path / "c12.g6", tmp_path / "q3.g6"
    c12.write_text(write_graph6(cubic_graph(12, seed=3)) + "\n")
    q3.write_text(write_graph6(hypercube_graph(3)) + "\n")
    return str(c12), str(q3)


def test_distance_two_commands(capsys, tmp_path):
    c12, q3 = write_graphs(tmp_path)
    code, payload = run(capsys, "chi2", c12)
    assert code == 0 and payload["value"] == 6
    code, payload = run(capsys, "decide", "--distance-two", "--k", "4", c12)
    assert code == 0 and payload["answer"] == "no"
    c = tmp_path / "c.json"
    c.write_text("[1, 2, 3, 4, 4, 3, 2, 1]")
    code, payload = run(capsys, "verify", "--check", "distance2", "--coloring", str(c), q3)
    assert code == 0 and payload["answer"] == "valid"


def test_construction1_commands(capsys, tmp_path):
    c12, q3 = write_graphs(tmp_path)
    code, payload = run(capsys, "reduce", "construction1", "--k", "7", c12)
    assert code == 0 and (payload["n"], payload["m"]) == (36, 42)
    code, payload = run(capsys, "check", "construction1", "--k", "6", c12)
    assert code == 0 and payload["answer"] == "consistent"
    assert (payload["distance_two_4"], payload["graceful_k"]) == ("no", "no")
    code, payload = run(capsys, "check", "construction1", "--k", "6", q3)
    assert code == 0 and payload["answer"] == "consistent"
    assert (payload["distance_two_4"], payload["graceful_k"]) == ("yes", "yes")
    assert payload["extension_palette"] == 6


def test_encode_to_file(capsys, tmp_path):
    _, q3 = write_graphs(tmp_path)
    out = tmp_path / "q3.cnf"
    code, payload = run(capsys, "encode", "--k", "5", "-o", str(out), q3)
    assert code == 0 and (payload["vars"], payload["clauses"]) == (40, 410)
    assert out.read_text().startswith("p cnf 40 410")
