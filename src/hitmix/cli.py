"""Command-line interface: moments, expand, sbm-sim, eval, relabel."""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import secrets
import sys
import tempfile
import time
from dataclasses import replace

from .graph import data_lines, edge_tokens, load_edge_list, load_seed_file
from .metrics import adjusted_rand_index, precision_recall_f1
from .mixture import HitmixConfig, hitmix
from .moments import compute_moments
from .sbm import SimulationSpec, run_simulation, runs_csv_lines, summary_csv_lines
from .solver import CgConfig, CgStats, HitmixError

log = logging.getLogger("hitmix")


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".hitmix-tmp-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        seed = secrets.randbelow(2 ** 31)
        log.info("no --seed given; using seed %d (pass --seed %d to replay)",
                 seed, seed)
    return seed


def _cg_summary(cfg: CgConfig, stats: list[CgStats]) -> str:
    """CG tolerance, then iterations and attained relative residual per moment."""
    return (f"CG tol {cfg.rel_tol:g}, iters {[s.iterations for s in stats]}, residual ["
            + ", ".join(f"{s.final_rel_residual:.1e}" for s in stats) + "]")


def _tsv(header: str, *columns) -> str:
    """header, then one row per vertex: floats to 12 significant digits,
    ids and flags as integers."""
    row = "\t".join("%.12g" if c.dtype.kind == "f" else "%d" for c in columns)
    return "\n".join([header, *(row % r for r in zip(*(c.tolist() for c in columns)))]) + "\n"


def _load(path: str, load, *args):
    """load(f, *args) on the file at path; a ValueError it raises names the path."""
    with open(path) as f:
        try:
            return load(f, *args)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _load_graph_and_seeds(args):
    graph = _load(args.graph, load_edge_list)
    return graph, _load(args.seeds, load_seed_file, graph.n_vertices)


def _cmd_moments(args) -> int:
    graph, seeds = _load_graph_and_seeds(args)
    cfg = CgConfig(rel_tol=args.cg_tol)
    t0 = time.perf_counter()
    table = compute_moments(graph, seeds, cfg)
    log.info("moments: %d vertices, %s, %.3fs", table.vertices.size,
             _cg_summary(cfg, table.cg_stats), time.perf_counter() - t0)
    _atomic_write(args.out, _tsv("vertex_id\tmean\tvariance\treachable", table.vertices,
                                 table.mean, table.variance, table.reachable))
    return 0


def _parse_clusters(text: str) -> tuple[int, ...]:
    if text == "auto":
        return HitmixConfig.g_candidates
    return tuple(int(t) for t in text.split(","))


def _cmd_expand(args) -> int:
    graph, seeds = _load_graph_and_seeds(args)
    seed = _resolve_seed(args.seed)
    cfg = HitmixConfig(m=args.samples_per_vertex,
                       g_candidates=_parse_clusters(args.clusters),
                       tau=args.tau,
                       em_max_iters=args.em_max_iters,
                       em_rel_tol=args.em_tol,
                       rng_seed=seed,
                       cg=CgConfig(rel_tol=args.cg_tol))
    t0 = time.perf_counter()
    result = hitmix(graph, seeds, cfg)
    log.info("expand: %s, selected g=%d, BIC %s, EM iters %s, %.3fs",
             _cg_summary(cfg.cg, result.moments.cg_stats), result.selected_g,
             {g: round(b, 3) for g, b in result.bic_by_g.items()},
             {g: f.iterations for g, f in result.fits.items()},
             time.perf_counter() - t0)

    table = result.moments
    _atomic_write(args.out, _tsv("vertex_id\tmean\tvariance\tposterior_goal\tlabel",
                                 table.vertices, table.mean, table.variance,
                                 result.posterior, result.labels))

    sidecar = {
        "selected_g": result.selected_g,
        "goal_component": result.goal_component,
        "tau": cfg.tau,
        "rng_seed": cfg.rng_seed,
        "bic_by_g": {str(g): b for g, b in result.bic_by_g.items()},
        "components": {str(g): [{"mu": c.mu, "sigma2": c.sigma2}
                                for c in f.components]
                       for g, f in result.fits.items()},
        "weights": {str(g): f.weights.tolist() for g, f in result.fits.items()},
        "em_iterations": {str(g): f.iterations for g, f in result.fits.items()},
        "goal_set_size": int(result.labels.sum()),
        "unreachable": int((~table.reachable).sum()),
    }
    _atomic_write(args.out + ".json", json.dumps(sidecar, indent=2) + "\n")
    return 0


# sbm-sim config keys and their parsers: SimulationSpec fields, then
# (HitmixConfig field, parser). An absent key keeps the dataclass default.
_SPEC_KEYS = {
    "sweep": str, "values": lambda t: t.replace(",", " ").split(),
    "mc_samples": int, "n_blocks": int, "block_size": int, "p_in": float, "p_out": float,
    "scale_p_out": lambda t: t.lower() in ("1", "true", "yes"),
    "hitting_set_size": int, "seed": int, "workers": int,
}
_HITMIX_KEYS = {"samples_per_vertex": ("m", int), "tau": ("tau", float),
                "clusters": ("g_candidates", _parse_clusters)}


def _parse_kv_config(path: str, required: tuple[str, ...],
                     known: set[str]) -> dict[str, str]:
    """'key = value' lines; unknown or missing keys are errors."""
    out = {}
    with open(path) as f:
        for line_no, line in data_lines(f):
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in known:
                raise ValueError(f"{path}: unknown key {key!r}")
            out[key] = value.strip()
    for key in required:
        if key not in out:
            raise ValueError(f"{path}: missing key {key!r}")
    return out


def _cmd_sbm_sim(args) -> int:
    kv = _parse_kv_config(args.config, ("sweep", "values"),
                          _SPEC_KEYS.keys() | _HITMIX_KEYS.keys())
    fields = {k: parse(kv[k]) for k, parse in _SPEC_KEYS.items() if k in kv}
    for flag in ("seed", "workers"):        # the flags take priority over the file
        if getattr(args, flag) is not None:
            fields[flag] = getattr(args, flag)
    fields["seed"] = _resolve_seed(fields.get("seed"))
    spec = SimulationSpec(**fields)
    hm_fields = {f: parse(kv[k]) for k, (f, parse) in _HITMIX_KEYS.items() if k in kv}
    spec = replace(spec, hitmix_cfg=replace(spec.hitmix_cfg, **hm_fields))
    t0 = time.perf_counter()
    summary = run_simulation(spec)
    log.info("sbm-sim: %d conditions x %d runs in %.1fs",
             len(spec.values), spec.mc_samples, time.perf_counter() - t0)
    os.makedirs(args.out, exist_ok=True)
    _atomic_write(os.path.join(args.out, "runs.csv"),
                  "\n".join(runs_csv_lines(summary)) + "\n")
    _atomic_write(os.path.join(args.out, "summary.csv"),
                  "\n".join(summary_csv_lines(summary)) + "\n")
    return 0


def _read_label_tsv(path: str) -> dict[int, int]:
    labels = {}
    with open(path) as f:
        for line_no, line in data_lines(f):
            if line.startswith("vertex_id"):
                continue
            tokens = line.split("\t")
            if len(tokens) < 2:
                raise ValueError(f"{path}:{line_no}: expected 2 columns")
            try:        # the label is the last column, as in expand's output
                labels[int(tokens[0])] = int(tokens[-1])
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
    return labels


def _cmd_eval(args) -> int:
    pred = _read_label_tsv(args.predicted)
    truth = _read_label_tsv(args.truth)
    common = sorted(set(pred) & set(truth))
    if len(common) < 2:
        raise ValueError("need at least 2 vertices common to both label files")
    a = [pred[v] for v in common]
    b = [truth[v] for v in common]
    ari = adjusted_rand_index(a, b)
    pred_set = {v for v in common if pred[v] == 1}
    truth_set = {v for v in common if truth[v] == 1}
    precision, recall, f1 = precision_recall_f1(pred_set, truth_set)
    print(json.dumps({"ari": ari, "precision": precision,
                      "recall": recall, "f1": f1}))
    return 0


def _cmd_relabel(args) -> int:
    mapping: dict[str, int] = {}

    def dense_lines(f) -> list[str]:
        return ["%d %d" % tuple(mapping.setdefault(t, len(mapping))
                                for t in edge_tokens(line_no, line))
                for line_no, line in data_lines(f)]

    _atomic_write(args.out, "\n".join(_load(args.graph, dense_lines)) + "\n")
    map_lines = [f"{name}\t{vid}" for name, vid in mapping.items()]
    _atomic_write(args.out + ".map.tsv", "\n".join(map_lines) + "\n")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hitmix",
        description="Seed-set expansion via hitting-time moments and a "
                    "lognormal mixture model")
    sub = parser.add_subparsers(dest="command", required=True)

    common_gs = argparse.ArgumentParser(add_help=False)
    common_gs.add_argument("--graph", required=True, help="edge-list file")
    common_gs.add_argument("--seeds", required=True, help="seed-id file")
    common_gs.add_argument("--out", required=True, help="output path")
    common_gs.add_argument("--cg-tol", type=float, default=CgConfig.rel_tol)

    p = sub.add_parser("moments", parents=[common_gs],
                       help="hitting-time means/variances as TSV")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("expand", parents=[common_gs],
                       help="full membership pipeline, TSV + JSON sidecar")
    p.add_argument("--tau", type=float, default=HitmixConfig.tau)
    p.add_argument("--samples-per-vertex", type=int, default=HitmixConfig.m)
    p.add_argument("--clusters", default="auto",
                   help="comma list of component counts, or 'auto' (BIC over "
                        f"{min(HitmixConfig.g_candidates)}-{max(HitmixConfig.g_candidates)})")
    p.add_argument("--em-tol", type=float, default=HitmixConfig.em_rel_tol)
    p.add_argument("--em-max-iters", type=int, default=HitmixConfig.em_max_iters)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("sbm-sim", help="Monte Carlo SBM benchmark sweep")
    p.add_argument("--config", required=True, help="key = value settings file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=_cmd_sbm_sim)

    p = sub.add_parser("eval", help="score predicted vs truth label TSVs")
    p.add_argument("--predicted", required=True)
    p.add_argument("--truth", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("relabel", help="map string vertex names to dense ids")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_relabel)
    return parser


def run(argv=None) -> int:
    """Exit code 0 ok, 1 usage error, 2 input error, 3 solver or EM failure."""
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        log.error("%s", exc)
        return 2
    except HitmixError as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
