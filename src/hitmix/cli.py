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
from typing import Iterable, Iterator

from .graph import EdgeListParseError, data_lines, edge_tokens, load_edge_list, load_seed_file
from .metrics import adjusted_rand_index, precision_recall_f1
from .mixture import HitmixConfig, hitmix
from .moments import compute_moments
from .sbm import SimulationSpec, run_simulation, runs_csv_lines, summary_csv_lines
from .solver import CgConfig, CgStats, HitmixError

log = logging.getLogger("hitmix")
_TSV_ROWS = 8192    # rows per string that _tsv yields


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".hitmix-tmp-")
    umask = os.umask(0)
    os.umask(umask)
    try:
        os.fchmod(fd, 0o666 & ~umask)   # mkstemp's 0600 would outlive os.replace
        with os.fdopen(fd, "w") as f:
            f.writelines(chunks)
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


def _tsv(header: str, *columns) -> Iterator[str]:
    """header, then one row per vertex, a block of rows at a time: floats to
    12 significant digits, ids and flags as integers."""
    row = "\t".join("%.12g" if c.dtype.kind == "f" else "%d" for c in columns) + "\n"
    yield header + "\n"
    for at in range(0, len(columns[0]), _TSV_ROWS):
        yield "".join([row % r for r in zip(*(c[at:at + _TSV_ROWS].tolist() for c in columns))])


def _named(source: str, parse, *args, **kwargs):
    """parse(*args, **kwargs); a ValueError it raises names its source."""
    try:
        return parse(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def _with_flags(cfg, flags: dict):
    """cfg with flags {flag: (field, value)} applied, None values skipped; errors name the flag."""
    for flag, (field, value) in flags.items():
        if value is not None:
            cfg = _named(flag, replace, cfg, **{field: value})
    return cfg


def _load(path: str, load, *args):
    """load(f, *args) on the file at path; a ValueError it raises names the path."""
    with open(path) as f:
        return _named(path, load, f, *args)


def _load_graph_and_seeds(args):
    graph = _load(args.graph, load_edge_list)
    return graph, _load(args.seeds, load_seed_file, graph.n_vertices)


def _cmd_moments(args) -> int:
    cfg = _named("--cg-tol", CgConfig, args.cg_tol)
    graph, seeds = _load_graph_and_seeds(args)
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
    cfg = _with_flags(HitmixConfig(), {
        "--samples-per-vertex": ("m", args.samples_per_vertex),
        "--clusters": ("g_candidates", _named("--clusters", _parse_clusters, args.clusters)),
        "--tau": ("tau", args.tau), "--em-max-iters": ("em_max_iters", args.em_max_iters),
        "--em-tol": ("em_rel_tol", args.em_tol), "--seed": ("rng_seed", _resolve_seed(args.seed)),
        "--cg-tol": ("cg", _named("--cg-tol", CgConfig, args.cg_tol))})
    graph, seeds = _load_graph_and_seeds(args)
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
    _atomic_write(args.out + ".json", [json.dumps(sidecar, indent=2) + "\n"])
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


def _parse_kv_config(f, required: tuple[str, ...], parsers: dict) -> dict:
    """'key = value' lines, values read by parsers[key]; unknown or missing keys are errors."""
    out = {}
    for line_no, line in data_lines(f):
        if "=" not in line:
            raise ValueError(f"line {line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in parsers:
            raise ValueError(f"line {line_no}: unknown key {key!r}")
        out[key] = _named(key, parsers[key], value.strip())
    for key in required:
        if key not in out:
            raise ValueError(f"missing key {key!r}")
    return out


def _simulation_spec(kv: dict) -> SimulationSpec:
    """The SimulationSpec, and its HitmixConfig, of an sbm-sim config's keys."""
    spec = SimulationSpec(**{k: v for k, v in kv.items() if k in _SPEC_KEYS})
    hm_fields = {_HITMIX_KEYS[k][0]: v for k, v in kv.items() if k in _HITMIX_KEYS}
    return replace(spec, hitmix_cfg=replace(spec.hitmix_cfg, **hm_fields))


def _cmd_sbm_sim(args) -> int:
    kv = _load(args.config, _parse_kv_config, ("sweep", "values"),
               {**_SPEC_KEYS, **{k: p for k, (_, p) in _HITMIX_KEYS.items()}})
    spec = _named(args.config, _simulation_spec, kv)
    # The flags take priority over the file; their errors name the flag.
    spec = _with_flags(spec, {
        "--seed": ("seed", args.seed if "seed" in kv else _resolve_seed(args.seed)),
        "--workers": ("workers", args.workers)})
    t0 = time.perf_counter()
    summary = run_simulation(spec)
    log.info("sbm-sim: %d conditions x %d runs in %.1fs",
             len(spec.values), spec.mc_samples, time.perf_counter() - t0)
    os.makedirs(args.out, exist_ok=True)
    _atomic_write(os.path.join(args.out, "runs.csv"),
                  (line + "\n" for line in runs_csv_lines(summary)))
    _atomic_write(os.path.join(args.out, "summary.csv"),
                  (line + "\n" for line in summary_csv_lines(summary)))
    return 0


def _read_label_tsv(f) -> dict[int, int]:
    labels = {}
    for line_no, line in data_lines(f):
        if line.startswith("vertex_id"):
            continue
        tokens = line.split("\t")
        if len(tokens) < 2:
            raise ValueError(f"line {line_no}: expected 2 columns")
        try:        # the label is the last column, as in expand's output
            labels[int(tokens[0])] = int(tokens[-1])
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
    return labels


def _cmd_eval(args) -> int:
    pred = _load(args.predicted, _read_label_tsv)
    truth = _load(args.truth, _read_label_tsv)
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

    def dense_lines(f) -> Iterator[str]:
        for line_no, line in data_lines(f):
            yield "%d %d\n" % tuple(mapping.setdefault(t, len(mapping))
                                    for t in edge_tokens(line_no, line))
        if not mapping:
            raise EdgeListParseError(0, "no edges in input")

    _load(args.graph, lambda f: _atomic_write(args.out, dense_lines(f)))
    _atomic_write(args.out + ".map.tsv", (f"{name}\t{vid}\n" for name, vid in mapping.items()))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hitmix", allow_abbrev=False,
        description="Seed-set expansion via hitting-time moments and a "
                    "lognormal mixture model")
    sub = parser.add_subparsers(dest="command", required=True)

    common_gs = argparse.ArgumentParser(add_help=False)
    common_gs.add_argument("--graph", required=True, help="edge-list file")
    common_gs.add_argument("--seeds", required=True, help="seed-id file")
    common_gs.add_argument("--out", required=True, help="output path")
    common_gs.add_argument("--cg-tol", type=float, default=CgConfig.rel_tol)

    p = sub.add_parser("moments", allow_abbrev=False, parents=[common_gs],
                       help="hitting-time means/variances as TSV")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("expand", allow_abbrev=False, parents=[common_gs],
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

    p = sub.add_parser("sbm-sim", allow_abbrev=False, help="Monte Carlo SBM benchmark sweep")
    p.add_argument("--config", required=True, help="key = value settings file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=_cmd_sbm_sim)

    p = sub.add_parser("eval", allow_abbrev=False, help="score predicted vs truth label TSVs")
    p.add_argument("--predicted", required=True)
    p.add_argument("--truth", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("relabel", allow_abbrev=False, help="map string vertex names to dense ids")
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
