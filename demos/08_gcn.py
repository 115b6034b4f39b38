"""The graph network: training, gradient checking, and split suggestion.

A four-layer sum-aggregation GCN with two heads — a graph-level
refactor probability and per-node split scores.  Everything is plain
numpy with handwritten backprop, so the demo validates the gradients
against central finite differences before training.
"""

from refactorlab.corpus import synth_corpus
from refactorlab.gcn import (
    GcnConfig,
    TrainConfig,
    forward,
    gcn_from_doc,
    gcn_to_doc,
    gradient_check,
    init_model,
    suggest_split,
    train,
)
from refactorlab.graph import build_graph
from refactorlab.minipy.parser import parse_source
from refactorlab.minipy.split import split_points

SOURCE = """\
def fold(n):
    acc = 0
    for i in range(n):
        if i > 1:
            acc = acc + i
        if acc > 9:
            acc = acc - 2
    rest = acc * 3
    return rest

print(fold(5))
"""

tree = parse_source(SOURCE)
graph = build_graph(tree)

# --- gradients agree with finite differences --------------------------------

probe = init_model(seed=0, config=GcnConfig(layers=4, units=8, dropout=0.0))
err = gradient_check(probe, graph, label=1, split_label=len(graph) - 3)
print(f"max relative gradient error vs central differences: {err:.2e}")

# --- a short training run -----------------------------------------------------

ds = synth_corpus(300, seed=21)
model = init_model(seed=21, config=GcnConfig(layers=4, units=32, dropout=0.1))
model, history = train(model, ds, TrainConfig(epochs=12, seed=21))
first, last = history.epochs[0], history.epochs[-1]
print(f"epoch  1: loss {first['train_loss']:.3f}, val acc {first['val_acc']:.2f}")
print(f"epoch {len(history.epochs)}: loss {last['train_loss']:.3f}, "
      f"val acc {last['val_acc']:.2f}")

# --- both heads on an unseen program ------------------------------------------

out = forward(model, graph)
sug = suggest_split(model, graph, split_points(tree))
print(f"refactor probability {out.graph_prob:.2f}; "
      f"suggested split at node #{sug.node_id} (score {sug.score:.2f}, "
      f"eligible={sug.eligible})")

# --- checkpoints carry config, standardization, and weights --------------------

clone = gcn_from_doc(gcn_to_doc(model))
print("checkpoint round trip preserves the forward pass:",
      forward(clone, graph).graph_prob == out.graph_prob)
