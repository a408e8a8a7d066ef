"""Phase-transition analysis of a controlled loss network on a regular tree.

Multicast calls sit at nodes (at most ``cv`` each) and unicast calls on edges
(at most ``ce`` each), under a joint per-edge budget: node + edge + node
occupancy may not exceed ``cap``. The stationary law is product-form over the
feasible set; on the infinite (q+1)-regular tree, uniqueness of the
corresponding infinite-volume measure is decided by a finite-dimensional
occupancy-ratio recursion.

Submodules: weights (weight vectors and partial sums), rfmap (the ratio
recursion and uniqueness classification), phase1d (closed-form window in the
node rate for the one-dimensional regime), treecalc (finite-tree recursions
and blocking), oracle (exhaustive enumeration ground truth), simulate
(event-driven validation), cli (command line).
"""

__version__ = "0.1.0"

# Each exported name, by the submodule that defines it. A name is imported on
# first access (PEP 562), so a command loads only the modules it uses.
_EXPORTS = {
    "weights": (
        "WeightVector", "geometric_weights", "load_weight_file", "poisson_weights",
    ),
    "rfmap": (
        "ModelParams", "Uniqueness", "UniquenessVerdict", "classify_by_iteration",
        "conjugate_maps", "interaction_map", "random_field_map",
    ),
    "phase1d": (
        "AssumptionViolation", "PhaseParams", "PhaseWindow", "classify_closed_form",
        "condition_a", "condition_a_margin", "fixed_point", "phase_window",
        "poisson_window_statistic", "ratio_map_derivative", "schwarzian",
    ),
    "treecalc": (
        "NormalizedState", "center_occupancy", "multicast_blocking", "rooted_state",
        "unicast_blocking",
    ),
    "oracle": (
        "FiniteTree", "TreeSpec", "TreeTooLargeError", "edge_centered_tree", "exact_blocking",
        "exact_partition", "occupancy_distribution", "rooted_tree", "spherical_tree",
    ),
    "simulate": ("SimConfig", "SimStats", "compare", "compare_runs", "run"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
