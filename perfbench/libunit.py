"""exact-check unit: the criterion-5 cross-check through the library.

Reads a JSON list of cases on stdin (tree family, q, m, caps and rates, as
made by ``workloads.exact_cases``) and prints, per case, both sides of each
comparison -- exact enumeration and finite-tree recursion -- or the number
of comparisons the enumeration guard refused. The benchmark compares them.
"""

import json
import math
import sys

from treeloss import (
    ModelParams,
    TreeTooLargeError,
    center_occupancy,
    edge_centered_tree,
    exact_blocking,
    exact_partition,
    multicast_blocking,
    occupancy_distribution,
    poisson_weights,
    rooted_state,
    rooted_tree,
    spherical_tree,
    unicast_blocking,
)

BUILDERS = {
    "rooted": lambda q, m: rooted_tree(q, m),
    "spherical": lambda q, m: spherical_tree(q, m + 1),
    "edge": lambda q, m: edge_centered_tree(q, m + 1),
}


def run_case(c: dict, trees: dict) -> dict:
    q, m, kind = c["q"], c["m"], c["tree"]
    key = (q, m, kind)
    if key not in trees:
        trees[key] = BUILDERS[kind](q, m)
    t = trees[key]
    p = ModelParams(q=q, cap=c["cap"], cv=c["cv"], ce=c["ce"],
                    node_weights=poisson_weights(c["nu"], c["cv"]),
                    edge_weights=poisson_weights(c["lam"], c["ce"]))
    try:
        if kind == "rooted":
            z = exact_partition(p, t, root=0)
            st = rooted_state(p, m)
            z0 = math.exp(st.log_z0)
            return {"ops": [["partition", list(z), [z0] + [z0 * x for x in st.xi]]]}
        if kind == "spherical":
            law = occupancy_distribution(p, t, 0)
            beta = exact_blocking(p, t, target=0)
            return {"ops": [["occupancy", list(law), list(center_occupancy(p, m + 1))],
                            ["multicast", [beta], [multicast_blocking(p, m + 1)]]]}
        beta = exact_blocking(p, t, target=(0, 1))
        return {"ops": [["unicast", [beta], [unicast_blocking(p, m + 1)]]]}
    except TreeTooLargeError:
        return {"refused": True}


def main():
    cases = json.load(sys.stdin)
    trees: dict = {}
    json.dump([run_case(c, trees) for c in cases], sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
