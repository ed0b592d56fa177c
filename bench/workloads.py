"""Seeded inputs, one round of tasks and the output checks of each workload.

expand-large     one `hitmix expand --clusters auto` call on a 2-block SBM
                 with 100k vertices, average degree 20 and 50 seeds from
                 block 0. A round is one call.
sbm-sweep        one `run_simulation` call on the criterion-3 p_in sweep: 4
                 conditions x 50 runs of a 2 x 100 SBM, 10 seeds, m = 25,
                 g = (2,). A round is one call; each of its 200 runs is a task.
illcond-moments  one `hitmix moments` call per graph of a fixed family of
                 badly conditioned graphs (grids, path, cycle, barbell). A
                 round is one pass over the family.

The graphs of expand-large and illcond-moments are generated here with NumPy
alone, so a change to hitmix cannot change the inputs it is measured on. The
same --seed gives the same bytes. Set-up runs this file as a script in a fresh
interpreter (`python3 bench/workloads.py <workload> <seed> <dir>`), so set-up
time covers importing hitmix as well as generating the inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla

WORKLOADS = ("expand-large", "sbm-sweep", "illcond-moments")

EXPAND_BLOCK = 50_000          # 2 blocks -> 100k vertices
EXPAND_DEG_IN = 15.0           # expected within-block degree
EXPAND_DEG_OUT = 5.0           # expected between-block degree
EXPAND_SEEDS = 50
TAU = 0.5

# The criterion-3 sweep of tests/test_acceptance.py, with the seed taken from
# the benchmark's --seed.
SWEEP = {"sweep": "p_in", "values": [0.20, 0.12, 0.08, 0.06], "mc_samples": 50,
         "block_size": 100, "hitting_set_size": 10, "p_out": 0.05,
         "m": 25, "g_candidates": [2], "tau": TAU}

# An answer is wrong when its relative error (inf-norm over the vertices)
# against the reference exceeds this. CG stops at a relative residual of
# 1e-10 and the TSV keeps 12 significant digits.
MOMENT_TOL = 1e-8
# ... or when its relative first-step residual (D^1/2-weighted 2-norm, the
# norm CG stops on) exceeds this. Rounding E T ~ 2e3 to 12 digits alone leaves
# about 3e-9 on expand-large.
RESIDUAL_TOL = 1e-7
# Criterion 6 of tests/test_acceptance.py.
EM_LL_DECREASE_TOL = 1e-10
EM_ROW_ERROR_TOL = 1e-12


@dataclass
class Task:
    seconds: float
    ok: bool               # finished and passed its output checks
    wrong: bool = False    # finished, but an output check failed
    note: str = ""         # error or failed check, empty when ok


@dataclass
class Round:
    tasks: list[Task]
    digest: str                                 # sha256 of the output bytes
    quality: dict = field(default_factory=dict)  # ari_mean, f1_mean

    @property
    def seconds(self) -> float:
        return sum(t.seconds for t in self.tasks)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed])


def _write_edges(path: str, edges: np.ndarray) -> None:
    with open(path, "w") as f:
        f.write("\n".join(f"{u} {v}" for u, v in edges.tolist()) + "\n")


def _shuffled(edges: np.ndarray, perm: np.ndarray, rng) -> np.ndarray:
    """Relabel by perm, shuffle the line order and flip each edge at random."""
    out = perm[edges][rng.permutation(len(edges))]
    flip = rng.random(len(out)) < 0.5
    out[flip] = out[flip][:, ::-1]
    return out


def _hitting_moments(n: int, edges: np.ndarray, seed: int):
    """Mean and variance of the hitting time of {seed} by a sparse LU solve
    of the first-step systems (I - P) E T = 1, (I - P) E T^2 = 2 E T - 1."""
    a = sp.coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                      shape=(n, n))
    a = (a + a.T).tocsr()
    deg = np.asarray(a.sum(axis=1)).ravel()
    keep = np.flatnonzero(np.arange(n) != seed)
    system = sp.identity(keep.size) - sp.diags(1.0 / deg[keep]) @ a[keep][:, keep]
    lu = sla.splu(system.tocsc())
    m1 = lu.solve(np.ones(keep.size))
    m2 = lu.solve(2.0 * m1 - 1.0)
    mean = np.full(n, np.nan)
    var = np.full(n, np.nan)
    mean[keep] = m1
    var[keep] = m2 - m1 ** 2
    return mean, var


def rel_err(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


def _illcond_family():
    """(name, n, edges, seed vertex, closed-form mean or None) per graph."""
    def grid(r, c):
        idx = np.arange(r * c).reshape(r, c)
        edges = np.concatenate([
            np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1),
            np.stack([idx[:-1].ravel(), idx[1:].ravel()], axis=1)])
        return f"grid{r}x{c}", r * c, edges, 0, None

    def path(n):
        edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
        k = np.arange(n)
        return f"path{n}", n, edges, 0, k * (2 * (n - 1) - k)

    def cycle(n):
        edges = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
        k = np.arange(n)
        return f"cycle{n}", n, edges, 0, k * (n - k)

    def barbell(k, length):
        clique = np.stack(np.triu_indices(k, 1), axis=1)
        bridge = np.arange(k - 1, k + length + 1)
        edges = np.concatenate([clique, np.stack([bridge[:-1], bridge[1:]], axis=1),
                                clique + k + length])
        return f"barbell{k}-{length}", 2 * k + length, edges, 0, None

    return [grid(70, 70), grid(100, 100), path(2000), cycle(1000), barbell(50, 20)]


def make_inputs(workload: str, seed: int, out: str) -> None:
    """Write the workload's inputs (and references for its checks) into out."""
    os.makedirs(out, exist_ok=True)
    rng = _rng(workload, seed)
    if workload == "expand-large":
        s = EXPAND_BLOCK
        n = 2 * s
        parts = []
        for a, b in [(0, 0), (1, 1), (0, 1)]:
            pairs, p = ((s * (s - 1) // 2, EXPAND_DEG_IN / s) if a == b
                        else (s * s, EXPAND_DEG_OUT / s))
            m = rng.binomial(pairs, p)
            parts.append(np.stack([rng.integers(0, s, m) + a * s,
                                   rng.integers(0, s, m) + b * s], axis=1))
        e = np.concatenate(parts)
        e = e[e[:, 0] != e[:, 1]]
        key = np.unique(e.min(axis=1) * n + e.max(axis=1))  # drop repeated pairs
        e = np.stack([key // n, key % n], axis=1)
        perm = rng.permutation(n)
        edges = _shuffled(e, perm, rng)
        block = np.empty(n, dtype=np.int8)
        block[perm] = np.arange(n) // s
        seeds = np.sort(perm[rng.choice(s, EXPAND_SEEDS, replace=False)])
        _write_edges(os.path.join(out, "graph.txt"), edges)
        with open(os.path.join(out, "seeds.txt"), "w") as f:
            f.write("\n".join(map(str, seeds.tolist())) + "\n")
        np.savez(os.path.join(out, "ref.npz"), edges=edges, block=block, seeds=seeds)
    elif workload == "sbm-sweep":
        with open(os.path.join(out, "spec.json"), "w") as f:
            json.dump(dict(SWEEP, seed=seed), f)
    elif workload == "illcond-moments":
        # The family is fixed: the seed only shuffles the edge lines and flips
        # edges, so every seed gives CG the same matrices and iteration counts.
        names = []
        for name, n, e, s, closed in _illcond_family():
            edges = _shuffled(e, np.arange(n), rng)
            mean, var = _hitting_moments(n, edges, s)
            ref = {"mean": mean, "var": var}
            if closed is not None:
                ref["closed"] = np.where(np.arange(n) == s, np.nan, closed)
                keep = ~np.isnan(mean)
                if rel_err(mean[keep], ref["closed"][keep]) > MOMENT_TOL:
                    raise RuntimeError(f"{name}: direct solve disagrees with closed form")
            _write_edges(os.path.join(out, f"{name}.txt"), edges)
            with open(os.path.join(out, f"{name}.seeds"), "w") as f:
                f.write(f"{s}\n")
            np.savez(os.path.join(out, f"{name}.npz"), **ref)
            names.append(name)
        with open(os.path.join(out, "family.json"), "w") as f:
            json.dump(names, f)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def dir_digest(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


# ---------------------------------------------------------------- rounds

def _binary_ari(a: np.ndarray, b: np.ndarray) -> float:
    """Adjusted Rand index of two 0/1 labelings."""
    table = np.zeros((2, 2))
    np.add.at(table, (a.astype(int), b.astype(int)), 1)
    pairs = lambda x: x * (x - 1) / 2.0  # noqa: E731
    sum_ij = pairs(table).sum()
    sum_a, sum_b = pairs(table.sum(axis=1)).sum(), pairs(table.sum(axis=0)).sum()
    expected = sum_a * sum_b / pairs(a.size)
    denom = 0.5 * (sum_a + sum_b) - expected
    return float((sum_ij - expected) / denom) if denom else 0.0


def _f1(pred: np.ndarray, truth: np.ndarray) -> float:
    tp = float(np.sum(pred & truth))
    denom = float(pred.sum() + truth.sum())
    return 2.0 * tp / denom if denom else 0.0


def _check_expand(ref, n_vertices: int, tsv: str, sidecar: str):
    """Failed checks (list of strings) and (ari, f1) of one expand output."""
    edges, seeds = ref["edges"], ref["seeds"]
    data = np.loadtxt(tsv, skiprows=1, ndmin=2)
    vid = data[:, 0].astype(np.int64)
    mean, var, post, label = data[:, 1], data[:, 2], data[:, 3], data[:, 4]
    with open(sidecar) as f:
        side = json.load(f)
    errors = []
    if not np.array_equal(vid, np.setdiff1d(np.arange(n_vertices), seeds)):
        return ["rows are not the non-seed vertices in ascending order"], (0.0, 0.0)
    if not (np.all(post >= 0.0) and np.all(post <= 1.0)):
        errors.append("posterior outside [0, 1]")
    if not np.array_equal(label == 1, post > TAU):
        errors.append("label != (posterior > tau)")
    if int(label.sum()) != side["goal_set_size"]:
        errors.append("goal_set_size disagrees with the labels")
    reach = np.isfinite(mean)
    if np.any(post[~reach] != 0.0):
        errors.append("unreachable vertex with non-zero posterior")

    a = sp.coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                      shape=(n_vertices, n_vertices))
    a = (a + a.T).tocsr()
    deg = np.asarray(a.sum(axis=1)).ravel()
    rows = vid[reach]
    x1 = np.zeros(n_vertices)
    x2 = np.zeros(n_vertices)
    x1[rows] = mean[reach]
    x2[rows] = var[reach] + mean[reach] ** 2
    w = np.sqrt(deg[rows])
    for name, x, b in [("E T", x1, np.ones(rows.size)), ("E T^2", x2, 2.0 * x1[rows] - 1.0)]:
        r = x[rows] - (a @ x)[rows] / deg[rows] - b
        rel = np.linalg.norm(w * r) / np.linalg.norm(w * b)
        if not rel <= RESIDUAL_TOL:
            errors.append(f"first-step residual of {name} is {rel:.2e}")
    truth = ref["block"][vid] == 0
    pred = label == 1
    return errors, (_binary_ari(pred, truth), _f1(pred, truth))


def load_state(workload: str, in_dir: str) -> dict:
    """What the rounds need: input paths, references and, for sbm-sweep, the spec."""
    if workload == "expand-large":
        ref = dict(np.load(os.path.join(in_dir, "ref.npz")))
        return {"ref": ref, "n": int(ref["edges"].max()) + 1}
    if workload == "sbm-sweep":
        from hitmix.mixture import HitmixConfig
        from hitmix.sbm import SimulationSpec
        with open(os.path.join(in_dir, "spec.json")) as f:
            s = json.load(f)
        cfg = HitmixConfig(m=s["m"], g_candidates=tuple(s["g_candidates"]), tau=s["tau"])
        return {"spec": SimulationSpec(
            sweep=s["sweep"], values=s["values"], mc_samples=s["mc_samples"],
            block_size=s["block_size"], hitting_set_size=s["hitting_set_size"],
            p_out=s["p_out"], seed=s["seed"], workers=1, hitmix_cfg=cfg)}
    with open(os.path.join(in_dir, "family.json")) as f:
        names = json.load(f)
    return {"family": [(name, dict(np.load(os.path.join(in_dir, f"{name}.npz"))))
                       for name in names]}


def run_round(workload: str, state: dict, in_dir: str, out_dir: str, measure, seed: int) -> Round:
    """Run one round. measure(fn, *args) -> (seconds, result, exception) times
    one call into hitmix; everything else here is outside the timed phase."""
    from hitmix import cli
    h = hashlib.sha256()
    if workload == "expand-large":
        out = os.path.join(out_dir, "expanded.tsv")
        argv = ["expand", "--graph", os.path.join(in_dir, "graph.txt"),
                "--seeds", os.path.join(in_dir, "seeds.txt"), "--out", out,
                "--clusters", "auto", "--tau", str(TAU), "--seed", str(seed)]
        seconds, code, exc = measure(cli.run, argv)
        if exc is not None or code != 0:
            return Round([Task(seconds, False, note=repr(exc) if exc else f"exit {code}")], "")
        for path in (out, out + ".json"):
            with open(path, "rb") as f:
                h.update(f.read())
        errors, (ari, f1) = _check_expand(state["ref"], state["n"], out, out + ".json")
        task = Task(seconds, not errors, bool(errors), "; ".join(errors))
        return Round([task], h.hexdigest(), {"ari_mean": ari, "f1_mean": f1})

    if workload == "sbm-sweep":
        from hitmix.sbm import run_simulation, runs_csv_lines, summary_csv_lines
        spec = state["spec"]
        seconds, summary, exc = measure(run_simulation, spec)
        n_runs = len(spec.values) * spec.mc_samples
        if exc is not None:
            return Round([Task(seconds / n_runs, False, note=repr(exc))] * n_runs, "")
        h.update("\n".join(runs_csv_lines(summary) + summary_csv_lines(summary)).encode())
        tasks = []
        for r in summary.runs:
            if r.failed:
                tasks.append(Task(seconds / n_runs, False, note="RunRecord.failed"))
                continue
            bad = [name for name, fine in [
                ("ari", math.isfinite(r.ari)), ("f1", math.isfinite(r.f1)),
                ("ll decrease", r.max_ll_decrease <= EM_LL_DECREASE_TOL),
                ("resp row error", r.max_resp_row_error <= EM_ROW_ERROR_TOL)] if not fine]
            tasks.append(Task(seconds / n_runs, not bad, bool(bad), ", ".join(bad)))
        ok = [r for r, t in zip(summary.runs, tasks) if t.ok]
        quality = ({"ari_mean": float(np.mean([r.ari for r in ok])),
                    "f1_mean": float(np.mean([r.f1 for r in ok]))} if ok else {})
        return Round(tasks, h.hexdigest(), quality)

    tasks = []
    for name, ref in state["family"]:
        out = os.path.join(out_dir, f"{name}.tsv")
        argv = ["moments", "--graph", os.path.join(in_dir, f"{name}.txt"),
                "--seeds", os.path.join(in_dir, f"{name}.seeds"), "--out", out]
        seconds, code, exc = measure(cli.run, argv)
        if exc is not None or code != 0:
            note = f"{name}: {type(exc).__name__ if exc else f'exit {code}'}"
            h.update(note.encode())
            tasks.append(Task(seconds, False, note=note))
            continue
        with open(out, "rb") as f:
            h.update(f.read())
        data = np.loadtxt(out, skiprows=1, ndmin=2)
        vid = data[:, 0].astype(np.int64)
        expect = np.flatnonzero(~np.isnan(ref["mean"]))
        errors = []
        if not np.array_equal(vid, expect) or not np.all(data[:, 3] == 1):
            errors.append("rows are not the reachable non-seed vertices in order")
        else:
            checks = [("mean", data[:, 1], ref["mean"][vid]),
                      ("variance", data[:, 2], ref["var"][vid])]
            if "closed" in ref:
                checks.append(("closed-form mean", data[:, 1], ref["closed"][vid]))
            errors += [f"{what} rel err {err:.2e}" for what, x, r in checks
                       if not (err := rel_err(x, r)) <= MOMENT_TOL]
        tasks.append(Task(seconds, not errors, bool(errors),
                          f"{name}: {'; '.join(errors)}" if errors else ""))
    return Round(tasks, h.hexdigest())


if __name__ == "__main__":
    # Set-up child: import hitmix from the checkout, then generate the inputs.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import hitmix  # noqa: F401  (its import is part of set-up)
    make_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
