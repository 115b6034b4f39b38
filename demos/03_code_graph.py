"""Attributed code graphs: the representation the GCN consumes.

Each AST becomes a graph whose nodes carry 12 features (kind index,
depth, fan-out, subtree complexity, ...).  An edge is just (src, dst,
kind); its 6 features (kind index, tree distance, direction, strength,
...) are derived from the Parent tree by ``edge_features`` when needed.
Beyond the tree skeleton (Parent/NextSibling) the builder adds
ControlFlow, DataFlow, and Calls edges, so the model sees how values and
control actually move.
"""

from collections import Counter

import numpy as np

from refactorlab.gcn import aggregation_matrix
from refactorlab.graph import EDGE_FEATURE_NAMES, NODE_FEATURE_DIM, build_graph, edge_features
from refactorlab.minipy.parser import parse_source

SOURCE = """\
def tally(n):
    acc = 0
    for i in range(n):
        if i > 2:
            acc = acc + i
    final = acc * 2
    return final

print(tally(7))
"""

tree = parse_source(SOURCE)
graph = build_graph(tree)

# --- what the graph holds -----------------------------------------------

print(f"{len(graph.nodes)} nodes x {NODE_FEATURE_DIM} features, "
      f"{len(graph.edges)} (src, dst, kind) edges")
print("edge kinds:", dict(Counter(e.kind for e in graph.edges)))

flow, row = next((e, r) for e, r in zip(graph.edges, edge_features(graph)) if e.kind == "DataFlow")
print(f"\nderived features of DataFlow {flow.src} -> {flow.dst}:")
print(" ", dict(zip(EDGE_FEATURE_NAMES, [round(v, 3) for v in row])))

fn = next(n for n in graph.nodes if n.kind == "FunctionDef")
print(f"\nFunctionDef #{fn.id} feature vector:")
print(" ", [round(v, 3) for v in fn.features])

# --- the message-passing operator ----------------------------------------

A = aggregation_matrix(graph).toarray()
print(f"\naggregation matrix {A.shape}, self-loops on the diagonal:",
      bool(np.all(np.diag(A) == 1.0)))
row = fn.id
neighbors = [j for j in range(A.shape[1]) if A[row, j] > 0 and j != row]
print(f"FunctionDef #{fn.id} aggregates from nodes {neighbors}")
print("row weights:", [round(float(w), 3) for w in A[row] if w > 0])
