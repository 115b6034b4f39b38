"""Extract-method: split a function and prove behavior is preserved.

``extract_split`` cuts a function body at the statement whose node id it
is given, one of ``split_points(tree)``: the head keeps the k statements
before it and returns a call to a new ``<name>_tail`` function holding
the rest.  Variables the tail reads are threaded through as parameters.  A
tree-walking interpreter acts as the oracle: original and split programs
must produce identical results and call traces on random inputs.
"""

from refactorlab.metrics import cyclomatic
from refactorlab.minipy.interp import behavior_fingerprint
from refactorlab.minipy.parser import parse_source
from refactorlab.minipy.printer import pretty_print
from refactorlab.minipy.split import extract_split, live_variables, split_points
from refactorlab.rng import Rng

SOURCE = """\
def tally(n, base):
    acc = base
    for i in range(n):
        if i > 2:
            acc = acc + i
        else:
            if acc > 10:
                acc = acc - 1
    scaled = acc * 2
    extra = scaled + n
    return extra

print(tally(6, 1))
"""

tree = parse_source(SOURCE)
fn = tree.functions()[0]

# --- where to cut, and what must flow across the cut ----------------------

k = 2  # head keeps the accumulator init and the loop
node_id = fn.children[k].id
assert node_id in split_points(tree)
print(f"splitting {fn.name!r} at node {node_id}, after statement {k}; "
      f"live variables into the tail: {live_variables(fn, k)}\n")

after = extract_split(tree, node_id)
print(pretty_print(after))

# --- complexity falls, behavior does not -----------------------------------

pre = max(cyclomatic(f) for f in tree.functions())
post = max(cyclomatic(f) for f in after.functions())
print(f"max per-function complexity: {pre} -> {post}")

rng = Rng(7)
trials = 500
for _ in range(trials):
    args = [rng.randint(0, 9), rng.randint(0, 9)]
    assert behavior_fingerprint(tree, fn.name, args) == \
        behavior_fingerprint(after, fn.name, args)
print(f"{trials} random input bindings: identical results and traces")
