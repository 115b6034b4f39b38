"""Parse a small program, walk its tree, print it, and write its document.

The parser accepts an indentation-based integer language: functions,
``for``/``while``/``if``-``elif``-``else``, assignments, returns, imports,
calls, and comparisons.  Every construct becomes one of ten node kinds
with dense preorder ids, which the rest of the toolkit (metrics, graphs,
models) builds on.
"""

from refactorlab.minipy.astdoc import emit_ast_doc
from refactorlab.minipy.parser import parse_source
from refactorlab.minipy.printer import pretty_print

SOURCE = """\
import math

def clamp(n, m):
    total = 0
    for i in range(n):
        if i > m:
            total = total + m
        else:
            total = total + i
    span = total * 2
    return span

print(clamp(6, 3))
"""

# --- parse ------------------------------------------------------------------

tree = parse_source(SOURCE)
print(f"parsed {len(tree.nodes)} nodes; root is {tree.root.kind}")
for node in tree.nodes:
    pad = "  " * (0 if tree.parent[node.id] is None else 1)
    label = node.name or ""
    print(f"  #{node.id:<3} {node.kind:<12} {label:<8} lines {node.span[0]}-{node.span[1]}")

# --- pretty-print is a fixed point ------------------------------------------

printed = pretty_print(tree)
assert printed == pretty_print(parse_source(printed))
print("\npretty_print(parse(x)) reproduces the normalized source:", printed == SOURCE)

# --- output document (what `parse --format json` writes) ---------------------

doc = emit_ast_doc(tree)
print("document root keys:", sorted(doc))
fn = doc["children"][1]
print(f"second statement: {fn['kind']} {fn['name']} lines {fn['span']}, "
      f"{len(fn['children'])} children")
