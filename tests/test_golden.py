"""Byte-identity of CLI outputs: small seeded runs against pinned sha256 digests.

Each case writes its inputs with NumPy alone, runs one CLI command in-process
and compares the sha256 of every output file with the digest pinned below. A
change that must leave outputs unchanged (a refactor, a speed-up) keeps this
test passing as it is. A change that alters an output on purpose updates the
digests here and records the new values, and why they moved, in CHANGES.md.

The digests were recorded with NumPy 2.4 and SciPy 1.17 on OpenBLAS; another
BLAS may round the EM products differently.
"""

import hashlib

import numpy as np
import pytest

from hitmix.cli import run


def _write_edges(path, u, v):
    path.write_text("".join(f"{a} {b}\n" for a, b in zip(u.tolist(), v.tolist())))


def _path_200(d):
    n = 200
    _write_edges(d / "g.txt", np.arange(n - 1), np.arange(1, n))
    (d / "s.txt").write_text("0\n")


def _barbell(d):
    # two K_20 joined through a 10-vertex path, seeded at one clique vertex
    k, p = 20, 10
    iu, ju = np.triu_indices(k, 1)
    chain = np.arange(k - 1, 2 * k + p - 1)
    u = np.concatenate([iu, iu + k + p, chain[:-1]])
    v = np.concatenate([ju, ju + k + p, chain[1:]])
    _write_edges(d / "g.txt", u, v)
    (d / "s.txt").write_text("0\n")


def _sbm_2x100(d):
    rng = np.random.default_rng(20)
    n, block = 200, np.repeat([0, 1], 100)
    iu, ju = np.triu_indices(n, 1)
    p = np.where(block[iu] == block[ju], 0.15, 0.03)
    keep = rng.random(iu.size) < p
    _write_edges(d / "g.txt", iu[keep], ju[keep])
    (d / "s.txt").write_text("".join(f"{s}\n" for s in rng.choice(100, 8, replace=False)))


def _sbm_sim_config(d):
    (d / "sim.cfg").write_text("sweep = p_in\nvalues = 0.3, 0.2\nmc_samples = 3\n"
                               "block_size = 30\nhitting_set_size = 5\nseed = 3\n")


def _sbm_sim_auto_config(d):
    # The small config of sbm_sim with g = 2..5: every run fits all four g,
    # and BIC picks one of them.
    _sbm_sim_config(d)
    with open(d / "sim.cfg", "a") as f:
        f.write("clusters = auto\n")


GRAPH_ARGS = ["--graph", "g.txt", "--seeds", "s.txt", "--out", "out.tsv"]

CASES = {
    "moments_path200": (_path_200, ["moments", *GRAPH_ARGS], {
        "out.tsv": "df67ceae64613e2d9bcf77cb07575cdf5571bfb8e88659bac59f79a352e8f4c8",
    }),
    "moments_barbell": (_barbell, ["moments", *GRAPH_ARGS], {
        "out.tsv": "9ef4c431733b5b7a2ec015b058d0d53fb4f633f08ae453afdcfcae2440519210",
    }),
    "expand_sbm": (_sbm_2x100, ["expand", *GRAPH_ARGS, "--clusters", "auto", "--seed", "5"], {
        "out.tsv": "f95c6d26e63af1c54707e1eec3e7ce85215dc40ade01a364f5d0880db9d55228",
        "out.tsv.json": "871ab2818fe5f025a7bbae3acd171faee1ae175efa6308602b456b810f8cd796",
    }),
    "sbm_sim": (_sbm_sim_config, ["sbm-sim", "--config", "sim.cfg", "--out", "sim"], {
        "sim/runs.csv": "5e3fa7299cd8b18c719d969fa67eebc696396d38520fa322decc026f0f91b075",
        "sim/summary.csv": "132b41c7a839eca9354e65da4f821da594fd94011bea04b3dead5284cf112000",
    }),
    "sbm_sim_auto": (_sbm_sim_auto_config, ["sbm-sim", "--config", "sim.cfg", "--out", "sim"], {
        "sim/runs.csv": "5e3fa7299cd8b18c719d969fa67eebc696396d38520fa322decc026f0f91b075",
        "sim/summary.csv": "132b41c7a839eca9354e65da4f821da594fd94011bea04b3dead5284cf112000",
    }),
}


@pytest.mark.parametrize("case", CASES)
def test_output_digests(case, tmp_path, monkeypatch):
    write_inputs, argv, digests = CASES[case]
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in digests}
    assert got == digests
