"""Maintainability metrics: per-function, per-module, and the flat vector.

Cyclomatic complexity is computed two independent ways — decision
counting and a control-flow-graph oracle (E - N + 2) — and they must
agree.  The 35-entry flat feature vector is what the decision-tree
baseline consumes.
"""

from refactorlab.metrics import (
    cyclomatic,
    cyclomatic_cfg_oracle,
    flat_features,
    metrics_report,
)
from refactorlab.minipy.parser import parse_source

SOURCE = """\
import db
import net

def triage(n, m):
    risk = 0
    for i in range(n):
        if i > m:
            risk = risk + 2
        elif i == m:
            risk = risk + 1
        if risk > 9:
            risk = risk - 3
    load = db.fetch(n)
    if load > risk:
        risk = load
    return risk

def relay(x):
    out = net.send(x)
    return out

print(triage(8, 3))
"""

tree = parse_source(SOURCE)

# --- per-function and module report -----------------------------------------

report = metrics_report(tree)
for name, row in report.per_function.items():
    print(f"{name:>8}: {row}")
print(f"{'module':>8}: {report.module}")

# --- two independent complexity computations agree ---------------------------

for fn in tree.functions():
    assert cyclomatic(fn) == cyclomatic_cfg_oracle(fn)
    print(f"CC({fn.name}) = {cyclomatic(fn)}  (decision count == CFG E-N+2)")

# --- the flat vector the tree baseline trains on -----------------------------

flat = flat_features(tree)
named = flat.named()
peek = {k: named[k] for k in ("lines", "nodes", "total_CC", "max_fn_CC", "coupling")}
print("\nflat vector has", len(flat.values), "entries; a few of them:", peek)
