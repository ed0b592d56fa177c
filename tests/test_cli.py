import io
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

import hitmix
import hitmix.cli
import hitmix.mixture
import hitmix.moments
import hitmix.sbm
from hitmix.cli import _TSV_ROWS, _atomic_write, _tsv, run
from hitmix.graph import EdgeListParseError, load_edge_list
from hitmix.mixture import EmCollapseError, HitmixConfig
from hitmix.sbm import SWEEPS, McSummary, SimulationSpec
from hitmix.solver import CgStats, NonSpdError
from oracles import traced_peak

PATH3 = "0 1\n1 2\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "g.txt").write_text(PATH3)
    (tmp_path / "s.txt").write_text("2\n")
    return tmp_path


def test_moments_path3(workdir, capsys):
    out = workdir / "m.tsv"
    rc = run(["moments", "--graph", str(workdir / "g.txt"),
              "--seeds", str(workdir / "s.txt"), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "vertex_id\tmean\tvariance\treachable"
    rows = [l.split("\t") for l in lines[1:]]
    assert [r[0] for r in rows] == ["0", "1"]
    assert abs(float(rows[0][1]) - 4.0) <= 1e-6
    assert abs(float(rows[0][2]) - 8.0) <= 1e-6
    assert abs(float(rows[1][1]) - 3.0) <= 1e-6


def test_expand_deterministic(workdir):
    args = ["expand", "--graph", str(workdir / "g.txt"),
            "--seeds", str(workdir / "s.txt"), "--tau", "0.5",
            "--clusters", "2", "--seed", "7"]
    out1, out2 = workdir / "a.tsv", workdir / "b.tsv"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    sidecar = json.loads((workdir / "a.tsv.json").read_text())
    assert sidecar["selected_g"] == 2
    assert "bic_by_g" in sidecar and "components" in sidecar


def test_expand_output_mode_follows_the_umask(workdir):
    # Like a file that open() creates: 0666 less the umask, not mkstemp's 0600.
    old = os.umask(0o022)
    try:
        assert run(["expand", "--graph", str(workdir / "g.txt"), "--seeds", str(workdir / "s.txt"),
                    "--clusters", "2", "--seed", "7", "--out", str(workdir / "a.tsv")]) == 0
    finally:
        os.umask(old)
    for name in ("a.tsv", "a.tsv.json"):
        assert (workdir / name).stat().st_mode & 0o777 == 0o644


def test_eval_identical_labels(tmp_path, capsys):
    labels = "0\t1\n1\t1\n2\t0\n3\t0\n"
    (tmp_path / "p.tsv").write_text(labels)
    (tmp_path / "t.tsv").write_text(labels)
    rc = run(["eval", "--predicted", str(tmp_path / "p.tsv"),
              "--truth", str(tmp_path / "t.tsv")])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    assert result["ari"] == 1.0 and result["f1"] == 1.0


def test_eval_partial_overlap(tmp_path, capsys):
    (tmp_path / "p.tsv").write_text("0\t1\n1\t1\n2\t0\n3\t0\n")
    (tmp_path / "t.tsv").write_text("0\t1\n1\t0\n2\t1\n3\t0\n")
    run(["eval", "--predicted", str(tmp_path / "p.tsv"),
         "--truth", str(tmp_path / "t.tsv")])
    result = json.loads(capsys.readouterr().out)
    assert result["ari"] == pytest.approx(-0.5)
    assert result["precision"] == 0.5


def test_relabel(tmp_path):
    (tmp_path / "named.txt").write_text("alice bob\nbob carol\n")
    out = tmp_path / "dense.txt"
    assert run(["relabel", "--graph", str(tmp_path / "named.txt"),
                "--out", str(out)]) == 0
    assert out.read_text() == "0 1\n1 2\n"
    mapping = dict(l.split("\t") for l in
                   (tmp_path / "dense.txt.map.tsv").read_text().strip().split("\n"))
    assert mapping == {"alice": "0", "bob": "1", "carol": "2"}


def test_relabel_and_load_share_the_token_message(tmp_path, caplog):
    (tmp_path / "bad.txt").write_text("# names\nalice bob\nalice bob carol\n")
    with pytest.raises(EdgeListParseError) as loaded:
        load_edge_list(io.StringIO("# ids\n0 1\n0 1 2\n"))
    assert run(["relabel", "--graph", str(tmp_path / "bad.txt"),
                "--out", str(tmp_path / "dense.txt")]) == 2
    assert str(loaded.value) == "line 3: expected 2 tokens, got 3"
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR] \
        == [f"{tmp_path / 'bad.txt'}: {loaded.value}"]
    assert not (tmp_path / "dense.txt").exists()
    # The same error after 20,000 good lines, once output has been written: a
    # pre-existing --out keeps its bytes, and no temporary or map file is left.
    lines = "".join(f"v{i} v{i + 1}\n" for i in range(20_000))
    (tmp_path / "late.txt").write_text(lines + "alice bob carol\n")
    (tmp_path / "dense.txt").write_text("old\n")
    caplog.clear()
    assert run(["relabel", "--graph", str(tmp_path / "late.txt"),
                "--out", str(tmp_path / "dense.txt")]) == 2
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR] \
        == [f"{tmp_path / 'late.txt'}: line 20001: expected 2 tokens, got 3"]
    assert (tmp_path / "dense.txt").read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt", "dense.txt", "late.txt"]


@pytest.mark.parametrize("text", ["", "# names only\n\n"], ids=["empty", "comments"])
def test_relabel_without_edges_fails_like_load(tmp_path, caplog, text):
    (tmp_path / "named.txt").write_text(text)
    with pytest.raises(EdgeListParseError) as loaded:
        load_edge_list(io.StringIO(text))
    assert run(["relabel", "--graph", str(tmp_path / "named.txt"),
                "--out", str(tmp_path / "dense.txt")]) == 2
    assert str(loaded.value) == "line 0: no edges in input"
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR] \
        == [f"{tmp_path / 'named.txt'}: {loaded.value}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["named.txt"]


@pytest.mark.parametrize("bad, text, message", [
    ("g.txt", "0 1\n1 2\n2 x\n", "line 3: non-integer vertex id in ['2', 'x']"),
    ("s.txt", "2\nzz\n", "line 2: non-integer seed id 'zz'"),
    ("s.txt", "2\n9\n", "seed id 9 out of range for 3 vertices"),
], ids=["graph", "seeds", "seed-range"])
def test_parse_error_names_its_file(workdir, caplog, bad, text, message):
    (workdir / bad).write_text(text)
    assert run(["moments", "--graph", str(workdir / "g.txt"), "--seeds",
                str(workdir / "s.txt"), "--out", str(workdir / "m.tsv")]) == 2
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR] \
        == [f"{workdir / bad}: {message}"]


def test_tsv_rows_match_per_value_formatting():
    ids = np.array([3, 7, 12])
    x = np.array([np.nan, -0.0, 1234567.891234567891])
    y = np.array([np.inf, 1e-300, 2.0 / 3.0])
    flags = np.array([True, False, True])
    expected = ["vertex_id\tx\ty\tflag"] + [
        f"{i}\t{a:.12g}\t{b:.12g}\t{int(f)}" for i, a, b, f in zip(ids, x, y, flags)]
    assert "".join(_tsv("vertex_id\tx\ty\tflag", ids, x, y, flags)) == "\n".join(expected) + "\n"


@pytest.mark.parametrize("n_rows", [0, 1, _TSV_ROWS, _TSV_ROWS + 1])
def test_tsv_blocks_of_rows(n_rows):
    # Unreachable vertices have NaN moments; every third row here is one.
    ids = np.arange(n_rows) * 7
    x = np.where(ids % 3 == 0, np.nan, ids / 3.0)
    flags = ids % 3 != 0
    chunks = list(_tsv("vertex_id\tx\tflag", ids, x, flags))
    expected = [f"{i}\t{a:.12g}\t{int(f)}\n" for i, a, f in zip(ids, x, flags)]
    assert chunks[0] == "vertex_id\tx\tflag\n"
    assert [c.count("\n") for c in chunks[1:]] == [
        min(_TSV_ROWS, n_rows - at) for at in range(0, n_rows, _TSV_ROWS)]
    assert "".join(chunks[1:]) == "".join(expected)


def test_tsv_scratch_does_not_grow_with_the_rows():
    # _tsv formats a block of rows at a time: 8 times the rows may not need
    # twice the memory. A whole-file string needs it 8 times over.
    rng = np.random.default_rng(3)

    def peak(n_rows):
        columns = (np.arange(n_rows), rng.random(n_rows), rng.random(n_rows) < 0.5)
        return traced_peak(lambda: sum(map(len, _tsv("vertex_id\tx\tflag", *columns))))[1]

    assert peak(32 * _TSV_ROWS) < 2 * peak(4 * _TSV_ROWS)


def test_atomic_write_leaves_nothing_when_chunks_raise(tmp_path):
    def chunks():
        yield "vertex_id\tmean\n"
        raise ValueError("row 2")
    with pytest.raises(ValueError, match="row 2"):
        _atomic_write(str(tmp_path / "m.tsv"), chunks())
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "m.tsv").write_text("old\n")
    with pytest.raises(ValueError, match="row 2"):
        _atomic_write(str(tmp_path / "m.tsv"), chunks())
    assert [p.name for p in tmp_path.iterdir()] == ["m.tsv"]
    assert (tmp_path / "m.tsv").read_text() == "old\n"


@pytest.mark.parametrize("command, flag", [("moments", ["--seed", "1"]),
                                           ("expand", ["--samples", "5"])])
def test_flag_abbreviation_is_a_usage_error(workdir, monkeypatch, capsys, command, flag):
    # argparse would read --seed as --seeds, so the seeds would come from a
    # file named 1, and --samples as --samples-per-vertex.
    monkeypatch.chdir(workdir)
    (workdir / "1").write_text("0\n")
    assert run([command, "--graph", "g.txt", "--seeds", "s.txt", "--out", "m.tsv", *flag]) == 1
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (workdir / "m.tsv").exists()


def test_sbm_sim_smoke(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "# tiny sweep\n"
        "sweep = p_in\n"
        "values = 0.3, 0.1\n"
        "block_size = 30\n"
        "hitting_set_size = 6\n"
        "mc_samples = 2\n"
        "seed = 5\n")
    out = tmp_path / "results"
    assert run(["sbm-sim", "--config", str(cfg), "--out", str(out)]) == 0
    runs = (out / "runs.csv").read_text().strip().split("\n")
    assert runs[0] == "condition,run,ari,f1"
    assert len(runs) == 5
    summary = (out / "summary.csv").read_text().strip().split("\n")
    assert len(summary) == 3

    # same seed reruns byte-identically
    out2 = tmp_path / "results2"
    assert run(["sbm-sim", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()


@pytest.mark.parametrize("text, message", [
    ("sweep = p_in\nvalues = 0.3\nblock_sise = 30\n", "line 3: unknown key 'block_sise'"),
    ("sweep = p_in\nvalues = 0.3\nfoo\n", "line 3: expected 'key = value'"),
    ("values = 0.3\n", "missing key 'sweep'"),
    ("sweep = p_in\nvalues = 0.3\nmc_samples = x\n",
     "mc_samples: invalid literal for int() with base 10: 'x'"),
    ("sweep = p_in\nvalues = 0.3\nclusters = 2,x\n",
     "clusters: invalid literal for int() with base 10: 'x'"),
], ids=["unknown", "no_equals", "missing", "mc_samples", "clusters"])
def test_sbm_sim_config_keys_checked(tmp_path, caplog, text, message):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(text)
    rc = run(["sbm-sim", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert rc == 2
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR] \
        == [f"{cfg}: {message}"]
    assert not (tmp_path / "r").exists()


@pytest.fixture
def captured_spec(monkeypatch):
    """The SimulationSpec that sbm-sim hands to run_simulation (no runs made)."""
    specs = []

    def fake_run_simulation(spec):
        specs.append(spec)
        return McSummary(spec, [], [])
    monkeypatch.setattr(hitmix.cli, "run_simulation", fake_run_simulation)
    return specs


def test_sbm_sim_absent_keys_keep_dataclass_defaults(tmp_path, captured_spec):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("sweep = p_in\nvalues = 0.3, 0.1\nseed = 5\n")
    assert run(["sbm-sim", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    assert captured_spec == [SimulationSpec(sweep="p_in", values=[0.3, 0.1], seed=5)]


def test_sbm_sim_every_key_and_flag_priority(tmp_path, captured_spec):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "sweep = n_blocks\nvalues = 2 3\nseed = 11\nsamples_per_vertex = 20\n"
        "clusters = 2,3\ntau = 0.4\nmc_samples = 3\nn_blocks = 4\nblock_size = 40\n"
        "p_in = 0.3\np_out = 0.1\nscale_p_out = yes\nhitting_set_size = 6\nworkers = 3\n")
    assert run(["sbm-sim", "--config", str(cfg), "--out", str(tmp_path / "r"),
                "--seed", "9", "--workers", "1"]) == 0
    [spec] = captured_spec
    expected = SimulationSpec(
        sweep="n_blocks", values=[2, 3], mc_samples=3, n_blocks=4, block_size=40,
        p_in=0.3, p_out=0.1, scale_p_out=True, hitting_set_size=6, seed=9, workers=1,
        hitmix_cfg=HitmixConfig(m=20, g_candidates=(2, 3), tau=0.4))
    assert vars(spec) == vars(expected)


def test_sbm_sim_without_seed_logs_the_one_it_picks(tmp_path, caplog, captured_spec):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("sweep = p_in\nvalues = 0.3\n")
    with caplog.at_level(logging.INFO, logger="hitmix"):
        assert run(["sbm-sim", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    seed = captured_spec[0].seed
    assert f"using seed {seed} (pass --seed {seed} to replay)" in caplog.text


EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "examples")


@pytest.mark.parametrize("name, expected", [
    ("paper_sim1.conf", SimulationSpec(
        sweep="n_blocks", values=[2, 3, 4, 5, 6, 7, 8, 9, 10], mc_samples=500,
        block_size=200, p_in=0.15, p_out=0.05, scale_p_out=True, hitting_set_size=20,
        seed=7)),
    ("paper_sim2.conf", SimulationSpec(
        sweep="p_in", values=[0.20, 0.12, 0.08, 0.06], mc_samples=500, n_blocks=2,
        block_size=100, p_out=0.05, hitting_set_size=10, seed=7)),
])
def test_paper_simulation_configs(tmp_path, captured_spec, name, expected):
    assert run(["sbm-sim", "--config", os.path.join(EXAMPLES, name),
                "--out", str(tmp_path / "r")]) == 0
    [spec] = captured_spec
    assert vars(spec) == vars(expected)


def test_parser_keeps_no_value_between_runs(workdir, caplog):
    # The parser is built once per process; a flag given to one run must not
    # become the next run's default.
    args = ["moments", "--graph", str(workdir / "g.txt"), "--seeds",
            str(workdir / "s.txt"), "--out", str(workdir / "m.tsv")]
    with caplog.at_level(logging.INFO, logger="hitmix"):
        assert run(args + ["--cg-tol", "1e-6"]) == 0
        assert run(args) == 0
    logged = [m for m in caplog.messages if m.startswith("moments:")]
    assert "CG tol 1e-06," in logged[0] and "CG tol 1e-10," in logged[1]
    assert hitmix.cli._parser() is hitmix.cli._parser()


@pytest.mark.parametrize("text, message", [
    ("sweep = n_blocks\nvalues = 1, 2\nscale_p_out = true\n",
     "scale_p_out needs n_blocks >= 2"),
    ("sweep = p_in\nvalues = 0.3\np_out = 1.5\n", "edge probabilities must lie in [0, 1]"),
    ("sweep = p_in\nvalues = 0.3\nworkers = -4\n", "workers must be >= 1"),
    ("sweep = p_in\nvalues = 0.3, x\n", "values: could not convert string to float: 'x'"),
    ("sweep = nope\nvalues = 0.3\n", f"sweep must be one of {SWEEPS}"),
    ("sweep = p_in\nvalues = 0.3\ntau = 2\n", "tau must lie in [0, 1]"),
], ids=["scale_p_out_one_block", "p_out", "workers", "values", "sweep", "tau"])
def test_sbm_sim_invalid_setting_fails_before_any_run(tmp_path, caplog, text, message):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(text + "seed = 1\n")
    rc = run(["sbm-sim", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert rc == 2
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR] \
        == [f"{cfg}: {message}"]
    assert not (tmp_path / "r").exists()


def test_sbm_sim_hitting_set_larger_than_block_fails_before_any_run(tmp_path, caplog,
                                                                   monkeypatch):
    sampled = []
    monkeypatch.setattr(hitmix.sbm, "sample_sbm", lambda *args: sampled.append(args))
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("sweep = hitting_set_size\nvalues = 10, 150\nmc_samples = 3\nseed = 1\n")
    assert run(["sbm-sim", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR] \
        == [f"{cfg}: hitting set size must lie in [1, 100]"]
    assert sampled == []
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command, bad, message", [
    ("expand", ["--clusters", "2,2"],
     "--clusters: g candidates must be one or more distinct integers >= 2"),
    ("sbm-sim", "clusters = 2,2", "CFG: g candidates must be one or more distinct integers >= 2"),
    ("expand", ["--seed", "-1"], "--seed: rng_seed must be >= 0"),
    ("sbm-sim", "seed = -1", "CFG: seed must be >= 0"),
    ("sbm-sim", ["--seed", "-2"], "--seed: seed must be >= 0"),
    ("sbm-sim", ["--workers", "0"], "--workers: workers must be >= 1"),
    ("moments", ["--cg-tol", "2"], "--cg-tol: rel_tol must lie in (0, 1)"),
    ("expand", ["--cg-tol", "0"], "--cg-tol: rel_tol must lie in (0, 1)"),
    ("expand", ["--tau", "2"], "--tau: tau must lie in [0, 1]"),
    ("expand", ["--samples-per-vertex", "0"], "--samples-per-vertex: m must be >= 1"),
    ("expand", ["--em-max-iters", "0"], "--em-max-iters: em_max_iters must be >= 1"),
], ids=["expand", "sbm-sim", "expand-seed", "sbm-sim-seed", "sbm-sim-seed-flag",
        "sbm-sim-workers-flag", "moments-cg-tol", "expand-cg-tol", "expand-tau",
        "expand-samples-per-vertex", "expand-em-max-iters"])
def test_repeated_clusters_fail_before_any_solve(workdir, caplog, monkeypatch, command, bad,
                                                 message):
    # A bad setting, a config line or flags (the last of a repeated flag wins),
    # stops the command before it reads the graph, solves moments or samples an SBM.
    calls = []
    monkeypatch.setattr(hitmix.cli, "load_edge_list", lambda *a: calls.append(a))
    monkeypatch.setattr(hitmix.mixture, "compute_moments", lambda *a: calls.append(a))
    monkeypatch.setattr(hitmix.sbm, "sample_sbm", lambda *a: calls.append(a))
    cfg = workdir / "sim.cfg"
    cfg.write_text("sweep = p_in\nvalues = 0.3\nseed = 1\n"
                   + (bad + "\n" if isinstance(bad, str) else ""))
    graph_and_seeds = ["--graph", str(workdir / "g.txt"), "--seeds", str(workdir / "s.txt")]
    args = {"expand": [*graph_and_seeds, "--clusters", "2", "--seed", "1"],
            "moments": graph_and_seeds, "sbm-sim": ["--config", str(cfg)]}[command]
    out = workdir / "r"
    assert run([command, *args, *([] if isinstance(bad, str) else bad), "--out", str(out)]) == 2
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR] \
        == [message.replace("CFG", str(cfg))]
    assert calls == []
    assert not out.exists()


def test_expand_unparsable_clusters_named_before_any_solve(workdir, caplog, monkeypatch):
    calls = []
    monkeypatch.setattr(hitmix.mixture, "compute_moments", lambda *a: calls.append(a))
    out = workdir / "o.tsv"
    assert run(["expand", "--graph", str(workdir / "g.txt"), "--seeds", str(workdir / "s.txt"),
                "--clusters", "2,x", "--seed", "1", "--out", str(out)]) == 2
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR] \
        == ["--clusters: invalid literal for int() with base 10: 'x'"]
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("em_tol", ["-1", "nan"])
def test_bad_em_tol_fails_before_any_solve(workdir, caplog, monkeypatch, em_tol):
    calls = []
    monkeypatch.setattr(hitmix.mixture, "compute_moments", lambda *a: calls.append(a))
    out = workdir / "o.tsv"
    assert run(["expand", "--graph", str(workdir / "g.txt"), "--seeds", str(workdir / "s.txt"),
                "--clusters", "2", "--seed", "1", "--em-tol", em_tol, "--out", str(out)]) == 2
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR] \
        == ["--em-tol: em_rel_tol must lie in [0, 1)"]
    assert calls == []
    assert not out.exists()


def test_key_error_is_a_bug_not_an_input_error(workdir, monkeypatch):
    monkeypatch.setattr(hitmix.cli, "compute_moments", _raise(KeyError("bug")))
    with pytest.raises(KeyError):
        run(["moments", "--graph", str(workdir / "g.txt"), "--seeds",
             str(workdir / "s.txt"), "--out", str(workdir / "o.tsv")])


def test_expand_zero_em_iterations_is_input_error(workdir):
    rc = run(["expand", "--graph", str(workdir / "g.txt"), "--seeds",
              str(workdir / "s.txt"), "--out", str(workdir / "o.tsv"),
              "--em-max-iters", "0"])
    assert rc == 2
    assert not (workdir / "o.tsv").exists()


def test_public_names_resolve():
    missing = [name for name in hitmix.__all__ if not hasattr(hitmix, name)]
    assert missing == []


def test_missing_file_is_runtime_error(tmp_path):
    rc = run(["moments", "--graph", str(tmp_path / "nope.txt"),
              "--seeds", str(tmp_path / "nope2.txt"),
              "--out", str(tmp_path / "o.tsv")])
    assert rc == 2


def test_unknown_flag_is_usage_error(workdir, capsys):
    rc = run(["moments", "--graph", str(workdir / "g.txt"), "--bogus"])
    assert rc == 1


def test_inputs_not_mutated(workdir):
    before = (workdir / "g.txt").read_bytes()
    run(["moments", "--graph", str(workdir / "g.txt"),
         "--seeds", str(workdir / "s.txt"), "--out", str(workdir / "m.tsv")])
    assert (workdir / "g.txt").read_bytes() == before


def test_eval_one_column_is_input_error(tmp_path, caplog):
    (tmp_path / "p.tsv").write_text("vertex_id\n0\n1\n")
    (tmp_path / "t.tsv").write_text("0\t1\n1\t0\n")
    rc = run(["eval", "--predicted", str(tmp_path / "p.tsv"),
              "--truth", str(tmp_path / "t.tsv")])
    assert rc == 2
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR] \
        == [f"{tmp_path / 'p.tsv'}: line 2: expected 2 columns"]


def test_eval_scores_expand_output(tmp_path, capsys):
    # expand's TSV has mean, variance and posterior between the id and the label.
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    edges += [(i + 6, j + 6) for i, j in edges] + [(5, 6)]
    (tmp_path / "g.txt").write_text("".join(f"{a} {b}\n" for a, b in edges))
    (tmp_path / "s.txt").write_text("0\n1\n")
    assert run(["expand", "--graph", str(tmp_path / "g.txt"), "--seeds",
                str(tmp_path / "s.txt"), "--clusters", "2", "--seed", "3",
                "--out", str(tmp_path / "e.tsv")]) == 0
    (tmp_path / "t.tsv").write_text("".join(f"{v}\t{int(v) < 6:d}\n" for v in range(2, 12)))
    capsys.readouterr()
    assert run(["eval", "--predicted", str(tmp_path / "e.tsv"),
                "--truth", str(tmp_path / "t.tsv")]) == 0
    # the two cliques separate exactly: vertices 2-5 are labelled goal
    assert json.loads(capsys.readouterr().out) == {"ari": 1.0, "precision": 1.0,
                                                  "recall": 1.0, "f1": 1.0}


@pytest.mark.parametrize("row, bad", [("x\t1", "'x'"), ("2\t0.5", "'0.5'")],
                         ids=["id", "label"])
def test_eval_non_integer_is_input_error(tmp_path, caplog, row, bad):
    (tmp_path / "p.tsv").write_text(f"0\t1\n{row}\n")
    (tmp_path / "t.tsv").write_text("0\t1\n1\t0\n")
    rc = run(["eval", "--predicted", str(tmp_path / "p.tsv"),
              "--truth", str(tmp_path / "t.tsv")])
    assert rc == 2
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR] \
        == [f"{tmp_path / 'p.tsv'}: line 2: invalid literal for int() with base 10: {bad}"]


def test_module_entry_point_runs_commands(tmp_path):
    # python -m hitmix.cli must run the command, not import the module and exit
    # 0. Each input error is exit code 2 and one ERROR line that names its source.
    (tmp_path / "g.txt").write_text(PATH3)
    (tmp_path / "s.txt").write_text("2\n")
    (tmp_path / "t.tsv").write_text("0\t1\n1\t0\n")
    sim, tsv = tmp_path / "sim.cfg", tmp_path / "p.tsv"
    expand = ["expand", "--graph", str(tmp_path / "g.txt"), "--seeds", str(tmp_path / "s.txt"),
              "--out", str(tmp_path / "o.tsv")]
    sbm_sim = ["sbm-sim", "--config", str(sim), "--out", str(tmp_path / "r")]
    evaluate = ["eval", "--predicted", str(tsv), "--truth", str(tmp_path / "t.tsv")]
    head = "sweep = p_in\nvalues = 0.3\n"
    cases = [   # (argv, the file it reads and its text, or None, the error message)
        (sbm_sim, (sim, "sweep = p_in\nvalues = 0.3, x\nseed = 1\n"),
         f"{sim}: values: could not convert string to float: 'x'"),
        (sbm_sim, (sim, "sweep = nope\nvalues = 0.3\nseed = 1\n"),
         f"{sim}: sweep must be one of {SWEEPS}"),
        (sbm_sim, (sim, head + "tau = 2\nseed = 1\n"), f"{sim}: tau must lie in [0, 1]"),
        (sbm_sim, (sim, head + "seed = -1\n"), f"{sim}: seed must be >= 0"),
        (sbm_sim + ["--seed", "-2"], (sim, head), "--seed: seed must be >= 0"),
        (expand + ["--seed", "-1"], None, "--seed: rng_seed must be >= 0"),
        (sbm_sim, (sim, head + "foo\n"), f"{sim}: line 3: expected 'key = value'"),
        (sbm_sim, (sim, head + "block_sise = 30\n"), f"{sim}: line 3: unknown key 'block_sise'"),
        (evaluate, (tsv, "0\t1\n1\n"), f"{tsv}: line 2: expected 2 columns"),
        (evaluate, (tsv, "0\t1\nx\t1\n"),
         f"{tsv}: line 2: invalid literal for int() with base 10: 'x'"),
    ]
    src = os.path.dirname(os.path.dirname(hitmix.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv, file, message in cases:
        if file is not None:
            file[0].write_text(file[1])
        proc = subprocess.run([sys.executable, "-m", "hitmix.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, message
        assert [line for line in proc.stderr.splitlines() if line.startswith("ERROR")] \
            == [f"ERROR hitmix: {message}"]
        assert "Traceback" not in proc.stderr


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def _unconverged_cg(indptr, indices, data, b, x, cfg, galerkin=None):
    return CgStats(7, 0.5, False)


def _non_spd_cg(indptr, indices, data, b, x, cfg, galerkin=None):
    raise NonSpdError("operator is not SPD")


def _collapsed_fits(samples, g, cfg, work):
    return [EmCollapseError(f"EM component collapsed (g={g}, iter=1)")] * len(samples)


@pytest.mark.parametrize("command, target, replacement, message", [
    ("moments", (hitmix.moments, "_cg"), _non_spd_cg, "NonSpdError: operator is not SPD"),
    ("moments", (hitmix.moments, "_cg"), _unconverged_cg,
     "MomentConvergenceError: CG failed to converge for moment 1: "
     "rel residual 5.000e-01 after 7 iters"),
    ("expand", (hitmix.mixture, "_em_fit_batch"), _collapsed_fits,
     "EmCollapseError: EM component collapsed (g=2, iter=1)"),
], ids=["NonSpdError", "MomentConvergenceError", "EmCollapseError"])
def test_numerical_failure_exit_code(workdir, caplog, capsys, command, target,
                                     replacement, message, monkeypatch):
    monkeypatch.setattr(*target, replacement)
    rc = run([command, "--graph", str(workdir / "g.txt"), "--seeds",
              str(workdir / "s.txt"), "--out", str(workdir / "o.tsv")])
    assert rc == 3
    errors = [r for r in caplog.records if r.levelno == logging.ERROR]
    assert [r.getMessage() for r in errors] == [message]
    assert errors[0].exc_info is None
    assert "Traceback" not in capsys.readouterr().err
    assert not (workdir / "o.tsv").exists()
