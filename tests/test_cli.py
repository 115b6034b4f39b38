"""Command-line interface: exit codes, formats, and pipeline composition."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from refactorlab.dtree import dtree_from_doc
from refactorlab.gcn import gcn_from_doc
from refactorlab.graph import build_graph
from refactorlab.minipy.parser import parse_source
from refactorlab.minipy.printer import pretty_print
from refactorlab.minipy.split import extract_split
from refactorlab.viz import function_render_metrics, to_html

from conftest import PLAIN_SRC, SPLITTABLE_SRC, run_cli

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def plain_file(tmp_path):
    path = tmp_path / "plain.mpy"
    path.write_text(PLAIN_SRC)
    return str(path)


@pytest.fixture()
def splittable_file(tmp_path):
    path = tmp_path / "tally.mpy"
    path.write_text(SPLITTABLE_SRC)
    return str(path)


# --- per-file analysis commands ---------------------------------------------------


def test_parse_text_is_the_pretty_printed_source(plain_file):
    code, out, _ = run_cli(["parse", plain_file])
    assert code == 0
    assert out == pretty_print(parse_source(PLAIN_SRC))


def test_parse_json_envelope(plain_file):
    code, out, _ = run_cli(["parse", plain_file, "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"seed", "path", "ast"}
    assert doc["path"] == plain_file
    assert doc["ast"]["version"] == "1"
    assert doc["ast"]["kind"] == "Module"


def test_metrics_text_lists_functions(plain_file):
    code, out, _ = run_cli(["metrics", plain_file])
    assert code == 0
    assert "double:" in out
    assert "cyclomatic=1" in out


def test_metrics_json_report(splittable_file):
    code, out, _ = run_cli(["metrics", splittable_file, "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"seed", "path", "report"}
    assert "tally" in doc["report"]["per_function"]
    assert doc["report"]["module"]["total_cyclomatic"] >= 4


def test_graph_defaults_to_json(plain_file):
    code, out, _ = run_cli(["graph", plain_file])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"seed", "path", "graph"}
    assert len(doc["graph"]["nodes"]) >= 4
    assert all(len(n["features"]) == 12 for n in doc["graph"]["nodes"])


def test_graph_text_summarizes(plain_file):
    code, out, _ = run_cli(["graph", plain_file, "--format", "text"])
    assert code == 0
    assert "nodes:" in out and "edges:" in out and "FunctionDef=1" in out


def test_rules_json_verdict(plain_file):
    code, out, _ = run_cli(["rules", plain_file, "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] in (0, 1)
    assert isinstance(doc["findings"], list)


def test_seed_is_echoed(plain_file):
    _, out, _ = run_cli(["graph", plain_file, "--seed", "7"])
    assert json.loads(out)["seed"] == 7


# sha256 of the output bytes, recorded before the edge-weight scan and the
# render-style options were deleted; both deletions had to keep every byte
PINNED_OUTPUTS = {
    "graph": "6b1b3a5140d7e19a25a3d69486d45b5824ea726aa0d75022c14820a59423dabb",
    "viz": "d24bb2d54c8ca5f0a6b92eb08ae5c09eaabad680e12c976c866a941582a20349",
    "viz_split": "0a3065c2668a9393654194caf5a112174507b9b8df068d80ae2c5509bf45ff2f",
    "viz_dot": "c644d9f7cf0e73e85a3c7379ff1e30b80ebd9857e5038909adff83d02ef60538",
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_outputs_match_pinned_hashes(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)  # the graph document echoes the path it was given
    (tmp_path / "tally.mpy").write_text(SPLITTABLE_SRC)
    split_id = parse_source(SPLITTABLE_SRC).functions()[0].children[2].id
    argv = {
        "graph": ["graph", "tally.mpy", "--format", "json"],
        "viz": ["viz", "tally.mpy", "--out", "-"],
        "viz_split": ["viz", "tally.mpy", "--split", str(split_id), "--out", "-"],
        "viz_dot": ["viz", "tally.mpy", "--out", "tally.dot"],
    }[name]
    code, out, err = run_cli(argv)
    assert code == 0, err
    if name == "viz_dot":
        out = (tmp_path / "tally.dot").read_text()
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_OUTPUTS[name]


# sha256 of a small GCN run's outputs: `train --model gnn` with the default
# dropout and several Adam steps, and the `eval --format json` that reads
# its weights.  Recorded before the training step was fused; a leaner step
# has to keep every weight bit.  The BLAS pool is pinned to one thread,
# since the thread count changes how matrix products round.
PINNED_GNN_OUTPUTS = {
    "workspace": "da033a98a660bffb499f0856e3c85e2b0da7ead7aa95f68321684a06017ef98a",
    "report": "9804c0997378a3f1607a4cefd44339fe1983def4df2202434025d3e4214d2b10",
}
ONE_BLAS_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def test_gnn_training_matches_pinned_hashes():
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        **ONE_BLAS_THREAD,
        "PYTHONPATH": src if not path else src + os.pathsep + path,
    }

    def cli(argv, stdin):
        proc = subprocess.run(
            [sys.executable, "-m", "refactorlab.cli", *argv],
            input=stdin, capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    bundle = cli(["synth", "--n", "40", "--seed", "3"], "")
    manifest = cli(["corpus", "build"], bundle)
    train = ["train", "--model", "gnn", "--epochs", "3", "--batch-size", "16", "--seed", "3"]
    outputs = {"workspace": cli(train, manifest)}
    outputs["report"] = cli(["eval", "--format", "json", "--seed", "3"], outputs["workspace"])
    digests = {k: hashlib.sha256(v.encode("utf-8")).hexdigest() for k, v in outputs.items()}
    assert digests == PINNED_GNN_OUTPUTS


def test_out_flag_writes_file(tmp_path, plain_file):
    target = tmp_path / "ast.json"
    code, out, err = run_cli(["parse", plain_file, "--format", "json", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert f"wrote {target}" in err
    json.loads(target.read_text())


# --- exit codes ----------------------------------------------------------------------


def test_exit_usage_on_unknown_subcommand():
    code, _, err = run_cli(["conjure"])
    assert code == 1
    assert "usage error" in err


def test_exit_usage_on_missing_subcommand():
    assert run_cli([])[0] == 1
    assert run_cli(["corpus"])[0] == 1
    assert run_cli(["synth", "--n", "0"])[0] == 1


def test_exit_parse_on_bad_source(tmp_path):
    bad = tmp_path / "bad.mpy"
    bad.write_text("def broken(:\n")
    code, _, err = run_cli(["parse", str(bad)])
    assert code == 2
    assert "parse error" in err


def test_exit_parse_on_deep_nesting(tmp_path):
    deep = tmp_path / "deep.mpy"
    lines = ["def f(x):"] + ["    " * d + "if x > 0:" for d in range(1, 401)]
    deep.write_text("\n".join(lines + ["    " * 401 + "x = 1"]) + "\n")
    code, _, err = run_cli(["parse", str(deep)])
    assert code == 2
    assert "nesting deeper than" in err


def test_long_operator_chain_is_parsed_and_graphed(tmp_path):
    # 3,000 terms of one left-nested chain, far past the recursion limit;
    # the chain reads an assigned name, so graph build walks it for data flow
    source = "def f(a):\n    b = a\n    x = " + " + ".join(["b"] * 3000) + "\n    return x\n"
    path = tmp_path / "chain.mpy"
    path.write_text(source)
    code, out, _ = run_cli(["parse", str(path)])
    assert code == 0
    assert out == source
    code, out, _ = run_cli(["graph", str(path)])
    assert code == 0
    assert any(e["kind"] == "DataFlow" for e in json.loads(out)["graph"]["edges"])


def test_viz_splits_a_function_with_a_long_operator_chain(tmp_path):
    # the split moves the 3,000-term chain into the tail function
    source = "def f(a):\n    b = a\n    x = " + " + ".join(["b"] * 3000) + "\n    return x\n"
    path = tmp_path / "chain.mpy"
    path.write_text(source)
    split_id = parse_source(source).functions()[0].children[1].id
    code, out, err = run_cli(["viz", str(path), "--split", str(split_id), "--out", "-"])
    assert code == 0, err
    assert out.count("<svg") == 2


def test_exit_data_on_missing_file():
    code, _, err = run_cli(["metrics", "/no/such/file.mpy"])
    assert code == 3
    assert "data error" in err


def test_exit_data_on_malformed_stdin_manifest():
    code, _, err = run_cli(["train", "--model", "dtree"], stdin_text="{\"bogus\": 1}")
    assert code == 3
    assert "data error" in err


# --- pipeline ----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> corpus build -> train gnn -> train dtree, all over pipes."""
    code, bundle, err = run_cli(["synth", "--n", "30", "--seed", "11"])
    assert code == 0, err
    code, manifest, err = run_cli(["corpus", "build"], stdin_text=bundle)
    assert code == 0, err
    code, ws_gnn, err = run_cli(
        ["train", "--model", "gnn", "--epochs", "2"], stdin_text=manifest
    )
    assert code == 0, err
    code, ws_full, err = run_cli(["train", "--model", "dtree"], stdin_text=ws_gnn)
    assert code == 0, err
    return bundle, manifest, ws_full


def test_synth_emits_a_bundle(pipeline):
    bundle = json.loads(pipeline[0])
    assert bundle["seed"] == 11
    assert len(bundle["units"]) == 30
    assert bundle["units"][0]["path"] == "synth_00000.mpy"


def test_corpus_build_inherits_bundle_seed(pipeline):
    manifest = json.loads(pipeline[1])
    assert manifest["seed"] == 11
    assert manifest["provenance"]["ingested"] == 30
    assert manifest["split"]["train"]


def test_corpus_build_is_byte_deterministic(pipeline):
    again = run_cli(["corpus", "build"], stdin_text=pipeline[0])
    assert again[0] == 0
    assert again[1] == pipeline[1]


def test_train_produces_a_workspace(pipeline):
    ws = json.loads(pipeline[2])
    assert set(ws) == {"version", "seed", "dataset", "checkpoints"}
    assert set(ws["checkpoints"]) == {"dtree", "gnn"}
    gcn_from_doc(ws["checkpoints"]["gnn"])
    dtree_from_doc(ws["checkpoints"]["dtree"])


def test_eval_reads_a_workspace(pipeline):
    code, out, err = run_cli(["eval", "--format", "csv"], stdin_text=pipeline[2])
    assert code == 0, err
    lines = out.strip().split("\n")
    assert lines[0].startswith("model,accuracy")
    assert len(lines) == 4


def test_eval_json_has_all_models(pipeline):
    code, out, _ = run_cli(["eval", "--format", "json"], stdin_text=pipeline[2])
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc["models"]) == ["dtree", "gnn", "rules"]


def test_eval_trains_missing_models(pipeline):
    # a bare manifest has no checkpoints; eval fills both in with defaults
    code, out, err = run_cli(["eval", "--format", "csv"], stdin_text=pipeline[1])
    assert code == 0, err
    assert "no gnn checkpoint" in err
    assert "no dtree checkpoint" in err
    assert len(out.strip().split("\n")) == 4


def test_eval_pr_points(pipeline):
    code, out, _ = run_cli(["eval", "--pr-points", "gnn"], stdin_text=pipeline[2])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "threshold,precision,recall"
    assert len(lines) >= 2


def test_train_gnn_without_validation_slice(pipeline):
    # one training sample leaves nothing to carve a validation slice from
    manifest = json.loads(pipeline[1])
    n = len(manifest["samples"])
    manifest["split"] = {"train": [0], "test": list(range(1, n))}
    code, _, err = run_cli(
        ["train", "--model", "gnn", "--epochs", "1"], stdin_text=json.dumps(manifest)
    )
    assert code == 0, err
    assert "val_acc n/a" in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--batch-size", "0", "batch_size must be an integer >= 1"),
        ("--batch-size", "-5", "batch_size must be an integer >= 1"),
        ("--lr", "nan", "learning_rate must be a finite number > 0"),
        ("--lr", "inf", "learning_rate must be a finite number > 0"),
    ],
)
def test_train_gnn_rejects_bad_settings(pipeline, flag, value, message):
    # each once crashed (exit 4), trained on no batch, or wrote weights
    # that eval then refused; now the run stops before training
    code, out, err = run_cli(
        ["train", "--model", "gnn", "--epochs", "1", flag, value], stdin_text=pipeline[1]
    )
    assert code == 3, err
    assert out == ""
    assert message in err


def test_train_checkpoint_out(tmp_path, pipeline):
    target = tmp_path / "dtree.json"
    code, _, err = run_cli(
        ["train", "--model", "dtree", "--checkpoint-out", str(target)],
        stdin_text=pipeline[1],
    )
    assert code == 0, err
    dtree_from_doc(json.loads(target.read_text()))


# --- model application -------------------------------------------------------------------


@pytest.fixture(scope="module")
def gnn_checkpoint(pipeline, tmp_path_factory):
    ws = json.loads(pipeline[2])
    path = tmp_path_factory.mktemp("ckpt") / "gnn.json"
    path.write_text(json.dumps(ws["checkpoints"]["gnn"]))
    return str(path)


def test_suggest_json(splittable_file, gnn_checkpoint):
    code, out, err = run_cli(
        ["suggest", splittable_file, "--model", gnn_checkpoint, "--format", "json"]
    )
    assert code == 0, err
    doc = json.loads(out)
    assert 0.0 <= doc["refactor_probability"] <= 1.0
    assert doc["eligible"] is True
    assert isinstance(doc["node_id"], int)


def test_suggest_text_names_the_function(splittable_file, gnn_checkpoint):
    code, out, _ = run_cli(["suggest", splittable_file, "--model", gnn_checkpoint])
    assert code == 0
    assert "tally at statement" in out


def test_viz_html_two_panels(tmp_path, splittable_file):
    tree = parse_source(SPLITTABLE_SRC)
    split_id = tree.functions()[0].body()[2].id
    target = tmp_path / "view.html"
    code, _, err = run_cli(
        ["viz", splittable_file, "--split", str(split_id), "--out", str(target)]
    )
    assert code == 0, err
    page = target.read_text()
    assert page.count("<svg") == 2
    assert "before" in page and "after" in page


def test_viz_dot_single_panel(tmp_path, splittable_file):
    target = tmp_path / "view.dot"
    code, _, err = run_cli(["viz", splittable_file, "--out", str(target)])
    assert code == 0, err
    assert target.read_text().startswith("digraph code {")


def test_viz_rejects_illegal_split(tmp_path, splittable_file):
    code, _, err = run_cli(
        ["viz", splittable_file, "--split", "0", "--out", str(tmp_path / "x.html")]
    )
    assert code == 3
    assert "not a legal split point" in err


DUPLICATE_NAME_SRC = """\
def step(n):
    a = n + 1
    return a

def step(n):
    a = n
    for i in range(n):
        a = a + i
    b = a - 1
    c = b + 2
    return c

print(step(3))
"""


def test_viz_splits_the_later_of_two_same_named_functions(tmp_path):
    path = tmp_path / "duplicate_name.mpy"
    path.write_text(DUPLICATE_NAME_SRC)
    tree = parse_source(DUPLICATE_NAME_SRC)
    split_id = tree.functions()[1].children[3].id
    code, out, err = run_cli(["viz", str(path), "--split", str(split_id), "--out", "-"])
    assert code == 0, err
    assert out.count("<svg") == 2
    assert "<figcaption>before</figcaption>" in out
    assert "<figcaption>after</figcaption>" in out
    # the after panel is the later step split at its fourth statement
    after = extract_split(tree, split_id)
    assert [len(f.children) for f in after.functions()] == [2, 4, 2]
    assert out == to_html(
        build_graph(tree),
        after=build_graph(after),
        before_metrics=function_render_metrics(tree),
        after_metrics=function_render_metrics(after),
    )
