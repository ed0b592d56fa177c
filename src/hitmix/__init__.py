"""Seed-set expansion via deterministic hitting-time moments and a lognormal
mixture model, with an SBM Monte Carlo benchmark harness."""

from .graph import (EdgeListParseError, Graph, SeedSet, load_edge_list,
                    load_seed_file, reachable_from)
from .metrics import adjusted_rand_index, precision_recall_f1
from .mixture import (EmCollapseError, HitmixConfig, LognormalParams,
                      MembershipResult, MixtureFit, VertexSamples, bic,
                      draw_pseudo_samples, em_fit, hitmix, lognormal_mom)
from .moments import MomentConvergenceError, MomentTable, compute_moments
from .sbm import (McSummary, SbmConfig, SimulationSpec, run_simulation,
                  sample_hitting_set, sample_sbm)
from .solver import (CgConfig, CgStats, HitmixError, NonSpdError,
                     RestrictedOperator, conjugate_gradient)

__all__ = [
    "EdgeListParseError", "Graph", "SeedSet", "load_edge_list", "load_seed_file",
    "reachable_from",
    "adjusted_rand_index", "precision_recall_f1",
    "EmCollapseError", "HitmixConfig", "LognormalParams", "MembershipResult",
    "MixtureFit", "VertexSamples", "bic", "draw_pseudo_samples", "em_fit", "hitmix",
    "lognormal_mom",
    "MomentConvergenceError", "MomentTable", "compute_moments",
    "McSummary", "SbmConfig", "SimulationSpec", "run_simulation",
    "sample_hitting_set", "sample_sbm",
    "CgConfig", "CgStats", "HitmixError", "NonSpdError", "RestrictedOperator",
    "conjugate_gradient",
]

__version__ = "0.1.0"
