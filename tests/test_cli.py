"""CLI subcommands: round trips, exit codes, reproducibility, benchmarks."""
import csv
import json
import os

import pytest

from expandec.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_roundtrip(tmp_path, capsys):
    path = tmp_path / "g.txt"
    code, _, _ = run_cli(["gen", "--family", "barbell:4:1", "--out", str(path)], capsys)
    assert code == 0
    text = path.read_text()
    assert text.splitlines()[0] == "p 8 13"


def test_decompose_and_verify_pass(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    run_cli(["gen", "--family", "cliques_chain:3:8:1", "--out", str(gpath)], capsys)
    dpath = tmp_path / "dec.json"
    code, _, _ = run_cli(["decompose", "--graph", str(gpath), "--epsilon", "0.5",
                          "--k", "2", "--seed", "7", "--out", str(dpath)], capsys)
    assert code == 0
    payload = json.loads(dpath.read_text())
    assert sorted(len(c) for c in payload["components"]) == [8, 8, 8]
    code, out, err = run_cli(["verify", "--graph", str(gpath), "--run", str(dpath)], capsys)
    assert code == 0
    assert "PASS" in err
    verdicts = [(c["kind"], c["ok"]) for c in json.loads(out)["components"]]
    assert verdicts == [("oracle", True)] * 3


def test_verify_fails_on_tampered_output(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    run_cli(["gen", "--family", "cliques_chain:3:8:1", "--out", str(gpath)], capsys)
    dpath = tmp_path / "dec.json"
    run_cli(["decompose", "--graph", str(gpath), "--epsilon", "0.5", "--seed", "7",
             "--out", str(dpath)], capsys)
    payload = json.loads(dpath.read_text())
    comps = [sorted(c) for c in payload["components"]]
    moved = comps[0].pop(1)
    comps[1].append(moved)
    payload["components"] = comps
    dpath.write_text(json.dumps(payload))
    code, _, err = run_cli(["verify", "--graph", str(gpath), "--run", str(dpath)], capsys)
    assert code == 1
    assert "FAIL" in err


def test_verify_fails_on_an_empty_component(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    run_cli(["gen", "--family", "cliques_chain:3:8:1", "--out", str(gpath)], capsys)
    dpath = tmp_path / "dec.json"
    run_cli(["decompose", "--graph", str(gpath), "--epsilon", "0.5", "--seed", "7",
             "--out", str(dpath)], capsys)
    payload = json.loads(dpath.read_text())
    payload["components"].append([])
    dpath.write_text(json.dumps(payload))
    code, out, err = run_cli(["verify", "--graph", str(gpath), "--run", str(dpath)], capsys)
    assert code == 1
    assert "FAIL" in err
    assert json.loads(out)["components"][-1] == {"members": [], "kind": "connectivity",
                                                 "ok": False}


def test_triangles_verify_exit_code(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    run_cli(["gen", "--family", "erdos_renyi:30:0.3", "--seed", "4", "--out", str(gpath)], capsys)
    code, out, _ = run_cli(["triangles", "--graph", str(gpath), "--verify",
                            "--seed", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["count"] > 0


def test_sparse_cut_json(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    run_cli(["gen", "--family", "barbell:10:1", "--out", str(gpath)], capsys)
    code, out, _ = run_cli(["sparse-cut", "--graph", str(gpath), "--phi", "0.02",
                            "--seed", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["cut"] is not None
    assert payload["cut"]["bal"] > 0.4


def test_env_seed_override(tmp_path, capsys, monkeypatch):
    gpath = tmp_path / "g.txt"
    run_cli(["gen", "--family", "cliques_chain:3:6:1", "--out", str(gpath)], capsys)
    monkeypatch.setenv("EXPANDER_SEED", "99")
    code, out, _ = run_cli(["decompose", "--graph", str(gpath), "--epsilon", "0.5",
                            "--seed", "5"], capsys)
    assert json.loads(out)["seed"] == 99


def test_bench_deterministic_rows(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    run_cli(["gen", "--family", "cliques_chain:3:6:1", "--out", str(gpath)], capsys)
    bpath = tmp_path / "bench.csv"
    code, _, _ = run_cli(["bench", "--graph", str(gpath), "--epsilon", "0.5",
                          "--trials", "3", "--seed", "2", "--out", str(bpath)], capsys)
    assert code == 0
    rows = list(csv.DictReader(bpath.read_text().splitlines()))
    assert len(rows) == 3
    stable = [{k: v for k, v in r.items() if k not in ("trial", "wall_seconds")} for r in rows]
    assert stable[0] == stable[1] == stable[2]
    assert int(rows[0]["rounds"]) == sum(
        p["rounds"] for p in json.loads(rows[0]["phases"])
    )


def test_lowdiam_json(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    run_cli(["gen", "--family", "cycle:32", "--out", str(gpath)], capsys)
    code, out, _ = run_cli(["lowdiam", "--graph", str(gpath), "--beta", "0.2",
                            "--trials", "2", "--seed", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["runs"]) == 2
    for run in payload["runs"]:
        assert run["max_diameter"] <= run["diameter_bound"]


def test_decompose_stops_at_the_broken_level_budget(capsys):
    """A doomed run is an error (2) at the ejection that breaks Phase-2 level
    1's budget, not a report of the full run's removals."""
    code, out, err = run_cli(["decompose", "--spec", "cliques_chain:27:12:1", "--seed", "0",
                              "--epsilon", "0.5"], capsys)
    assert code == 2
    assert "removed" not in out + err
    assert "error: phase-2 level 1 ejected volume" in err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--epsilon", "0.5"])  # no graph source
    assert exc.value.code == 2



VERIFY = ["verify", "--graph", "{graph}", "--run", "{run}"]


def _drop(*keys):
    """Rewrite of a run JSON text without the given (dotted) keys."""
    def rewrite(text):
        payload = json.loads(text)
        for key in keys:
            *owner, name = key.split(".")
            del (payload[owner[0]] if owner else payload)[name]
        return json.dumps(payload)
    return rewrite


INPUT_ERRORS = {  # argv, rewrite of the decompose run JSON text (None: no run file), EXPANDER_SEED
    "verify_run_without_phi_k": (VERIFY, _drop("phi_k"), None),
    "verify_run_without_epsilon": (VERIFY, _drop("epsilon", "config.epsilon"), None),
    "verify_run_not_an_object": (VERIFY, lambda text: "[1, 2]", None),
    "verify_run_truncated": (VERIFY, lambda text: text[: len(text) // 2], None),
    "verify_run_missing": (VERIFY, None, None),
    "graph_file_missing": (["decompose", "--graph", "{graph}.missing", "--epsilon", "0.5"],
                           None, None),
    "bench_zero_trials": (["bench", "--graph", "{graph}", "--trials", "0"], None, None),
    "non_integer_env_seed": (["decompose", "--graph", "{graph}", "--epsilon", "0.5"], None, "abc"),
    "spec_with_wrong_arity": (["decompose", "--spec", "grid:3", "--epsilon", "0.5"], None, None),
}


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_input_errors_exit_2(case, tmp_path, capsys, monkeypatch):
    """A bad input is a usage error (2) reported on stderr, not a FAIL (1)
    or an uncaught exception."""
    argv, rewrite, env_seed = INPUT_ERRORS[case]
    gpath, dpath = tmp_path / "g.txt", tmp_path / "dec.json"
    run_cli(["gen", "--family", "cliques_chain:3:6:1", "--out", str(gpath)], capsys)
    if rewrite is not None:
        run_cli(["decompose", "--graph", str(gpath), "--epsilon", "0.5", "--out", str(dpath)],
                capsys)
        dpath.write_text(rewrite(dpath.read_text()))
    if env_seed is not None:
        monkeypatch.setenv("EXPANDER_SEED", env_seed)
    try:
        code = main([a.format(graph=gpath, run=dpath) for a in argv])
    except SystemExit as exc:  # argparse rejects the arguments themselves
        code = exc.code
    assert code == 2
    assert "error:" in capsys.readouterr().err
