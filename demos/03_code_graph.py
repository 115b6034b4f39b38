"""Attributed code graphs: the representation the GCN consumes.

Each AST becomes a graph held as arrays: a feature matrix ``x`` whose
rows carry each node's 12 features (kind index, depth, fan-out, subtree
complexity, ...), and per edge its ``src``, ``dst`` and ``kind``.  An
edge's 6 features (kind index, tree distance, direction, strength,
...) are derived from the Parent tree by ``edge_features`` when needed.
Beyond the tree skeleton (Parent/NextSibling) the builder adds
ControlFlow, DataFlow, and Calls edges, so the model sees how values and
control actually move.
"""

from collections import Counter

import numpy as np

from refactorlab.gcn import aggregation_matrix
from refactorlab.graph import EDGE_FEATURE_NAMES, EDGE_KINDS, build_graph, edge_features
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

kinds = [EDGE_KINDS[k] for k in graph.kind.tolist()]
print(f"{len(graph.nodes)} nodes x {graph.x.shape[1]} features, "
      f"{len(kinds)} (src, dst, kind) edges")
print("edge kinds:", dict(Counter(kinds)))

flow = kinds.index("DataFlow")
print(f"\nderived features of DataFlow {graph.src[flow]} -> {graph.dst[flow]}:")
print(" ", dict(zip(EDGE_FEATURE_NAMES, [round(v, 3) for v in edge_features(graph)[flow]])))

fn = graph.nodes.index("FunctionDef")
print(f"\nFunctionDef #{fn} feature vector:")
print(" ", [round(v, 3) for v in graph.x[fn].tolist()])

# --- the message-passing operator ----------------------------------------

A = aggregation_matrix(graph).toarray()
print(f"\naggregation matrix {A.shape}, self-loops on the diagonal:",
      bool(np.all(np.diag(A) == 1.0)))
neighbors = [j for j in range(A.shape[1]) if A[fn, j] > 0 and j != fn]
print(f"FunctionDef #{fn} aggregates from nodes {neighbors}")
print("row weights:", [round(float(w), 3) for w in A[fn] if w > 0])
