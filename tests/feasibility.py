"""The model's hard constraints, written out once for the tests: the literal
enumerator in test_oracle.py and the simulator checks in test_simulate.py
both decide feasibility here."""


def is_feasible(p, t, node_occ: dict, edge_occ: dict) -> bool:
    """Whether occupancies ``node_occ`` (node -> count) and ``edge_occ`` (edge
    pair in either order -> count) of tree ``t`` put at most ``p.cv`` calls on
    every node, at most ``p.ce`` on every edge, and node + edge + node at most
    ``p.cap`` on every edge."""
    edge_occ = {tuple(sorted(k)): v for k, v in edge_occ.items()}
    return (
        all(0 <= node_occ[v] <= p.cv for v in t.nodes)
        and all(0 <= edge_occ[e] <= p.ce for e in t.edges)
        and all(node_occ[u] + edge_occ[(u, v)] + node_occ[v] <= p.cap for u, v in t.edges)
    )
