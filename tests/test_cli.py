"""Command-line interface: exit codes, formats, and pipeline composition."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from refactorlab import cli as cli_module
from refactorlab.dtree import dtree_from_doc
from refactorlab.gcn import GcnConfig, gcn_from_doc, gcn_to_doc, init_model
from refactorlab.graph import build_graph
from refactorlab.minipy.parser import parse_source
from refactorlab.minipy.printer import pretty_print
from refactorlab.minipy.split import extract_split
from refactorlab.viz import function_render_metrics, to_html

from conftest import (
    COUPLED_SRC,
    PLAIN_SRC,
    SPLITTABLE_SRC,
    UNSPLITTABLE_SRC,
    grown_source,
    run_cli,
)

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


# sha256 of the output bytes.  The tally.mpy cases were recorded before the
# edge-weight scan and the render-style options were deleted; the relay.mpy
# cases (imports reached from module level, from a function and from a
# nested function, scope depth 2) before depth and scope were recorded once
# per tree and coupling was defined once; grown.mpy (synthetic programs
# joined into 2,038 nodes) before DataFlow and the node features were built
# in one pass each.  Each refactor kept every byte.  The three graph cases
# were re-pinned when graph documents went to version "2": each new output
# is the old one with its all-zero "source_digest" removed and "version"
# set to "2", and nothing else moved.
PINNED_OUTPUTS = {
    "graph": "1b0020fb6862f7ceaf1b832859a6dbd44d26168ce19a87e483e2e39e3ecacdee",
    "viz": "d24bb2d54c8ca5f0a6b92eb08ae5c09eaabad680e12c976c866a941582a20349",
    "viz_split": "0a3065c2668a9393654194caf5a112174507b9b8df068d80ae2c5509bf45ff2f",
    "viz_dot": "c644d9f7cf0e73e85a3c7379ff1e30b80ebd9857e5038909adff83d02ef60538",
    "relay_graph": "ea63b9598de1009f82681a3ff60709bf7b672cfcb2a4d330fa5c2fc507aa39fc",
    "relay_metrics": "94397bd83ed7286a2b960fffabf0ffbd516a358482f50c7f2271c2fb5d8c14ae",
    "relay_rules": "56c36c2f0696c4b1b5a9a4efd21027933ce13803652cb1bfe575cbd27bc4ea80",
    "relay_viz": "8821420d980041adfa87d028ce6aa617ea622ee8c15c390e89b4c2599b8baec2",
    "grown_graph": "93520e668e73ab3ed43e1209b32c313ca0c26dd4063915190440b4dc44bb4031",
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_outputs_match_pinned_hashes(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)  # the graph document echoes the path it was given
    (tmp_path / "tally.mpy").write_text(SPLITTABLE_SRC)
    (tmp_path / "relay.mpy").write_text(COUPLED_SRC)
    if name == "grown_graph":  # 2,038 nodes: every edge kind and feature at scale
        (tmp_path / "grown.mpy").write_text(grown_source(2000))
    split_id = parse_source(SPLITTABLE_SRC).functions()[0].children[2].id
    argv = {
        "graph": ["graph", "tally.mpy", "--format", "json"],
        "viz": ["viz", "tally.mpy", "--out", "-"],
        "viz_split": ["viz", "tally.mpy", "--split", str(split_id), "--out", "-"],
        "viz_dot": ["viz", "tally.mpy", "--out", "tally.dot"],
        "relay_graph": ["graph", "relay.mpy", "--format", "json"],
        "relay_metrics": ["metrics", "relay.mpy", "--format", "json"],
        "relay_rules": ["rules", "relay.mpy", "--format", "json"],
        "relay_viz": ["viz", "relay.mpy", "--out", "-"],
        "grown_graph": ["graph", "grown.mpy", "--format", "json"],
    }[name]
    code, out, err = run_cli(argv)
    assert code == 0, err
    if name == "viz_dot":
        out = (tmp_path / "tally.dot").read_text()
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_OUTPUTS[name]


# sha256 of a small GCN run's outputs: `train --model gnn` with the default
# dropout and several Adam steps, its `--checkpoint-out` file, and the
# `eval --format json` that reads its weights.  All three were recorded
# when the training step moved to float32, which changed the trained
# weights' bits on purpose; a change that means to keep every weight bit
# has to keep these.  The workspace also embeds the manifest; it was
# re-pinned alone when the manifest became source-first (version 5), with
# the checkpoint and report unchanged.  The workspace and checkpoint were
# re-pinned when checkpoints went to version "3", base64 float64 bytes in
# place of decimal text: the new checkpoint decodes to the old one's
# floats bit for bit, and the report kept its hash.  The workspace was
# re-pinned alone again when the manifest went to version "6", which drops
# each sample's flat vector and split node and every copy's recipe (all
# derived again on load); the checkpoint and report kept their hashes.
# The thread count changes how matrix products round, so the CLI pins
# numpy's OpenBLAS to one thread itself; the hashes hold whatever thread
# count the environment asks for.
PINNED_GNN_OUTPUTS = {
    "workspace": "74bd2c7fe58547ca4edfa6500006aeab1db63046b656d1914a145db5c2c9914b",
    "checkpoint": "372b0c68462526bb5885b634c2862ce672013e4f5e68694a148031f5af7da6a9",
    "report": "3a0df33eea3040e354eb44d202ec201a9c4ca56f2b64492a9e4d386f5a626ccf",
}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _gnn_run_digests(tmp_path, blas_threads: str) -> dict[str, str]:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        **{v: blas_threads for v in BLAS_THREAD_VARS},
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
    checkpoint = tmp_path / "gnn.json"
    train = ["train", "--model", "gnn", "--epochs", "3", "--batch-size", "16", "--seed", "3"]
    outputs = {"workspace": cli([*train, "--checkpoint-out", str(checkpoint)], manifest)}
    outputs["checkpoint"] = checkpoint.read_text(encoding="utf-8")
    outputs["report"] = cli(["eval", "--format", "json", "--seed", "3"], outputs["workspace"])
    return {k: hashlib.sha256(v.encode("utf-8")).hexdigest() for k, v in outputs.items()}


def test_gnn_training_matches_pinned_hashes(tmp_path):
    assert _gnn_run_digests(tmp_path, "1") == PINNED_GNN_OUTPUTS


def test_gnn_training_matches_pinned_hashes_under_two_blas_threads(tmp_path):
    assert _gnn_run_digests(tmp_path, "2") == PINNED_GNN_OUTPUTS


def test_a_missing_blas_thread_setter_costs_one_stderr_line(monkeypatch):
    synth = ["synth", "--n", "10", "--seed", "3"]
    want = run_cli(synth)
    monkeypatch.setattr(cli_module, "BLAS_THREAD_SETTER", "no_such_symbol")
    cli_module._blas_thread_setter.cache_clear()
    try:
        first, second = run_cli(synth), run_cli(synth)
    finally:
        cli_module._blas_thread_setter.cache_clear()
    # the command runs as before; the one warning line comes once per process
    assert first[:2] == second[:2] == want[:2]
    warning, rest = first[2].split("\n", 1)
    assert "no_such_symbol" in warning and rest == second[2] == want[2]


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


def test_exit_data_on_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin.mpy"
    path.write_bytes(b"x = \xff\n")
    for argv in (["parse", str(path)], ["eval", "--data", str(path)]):
        code, _, err = run_cli(argv)
        assert code == 3, err
        assert err.startswith(f"refactorlab: data error: cannot read {path}: ")
        assert err.count("\n") == 1


def test_corpus_build_counts_a_file_that_is_not_utf8_as_a_parse_failure(tmp_path):
    for name, src in (("a", SPLITTABLE_SRC), ("b", PLAIN_SRC), ("c", UNSPLITTABLE_SRC)):
        (tmp_path / f"{name}.mpy").write_text(src)
    (tmp_path / "latin.mpy").write_bytes(PLAIN_SRC.encode("utf-8") + b"z = \xff\n")
    code, out, err = run_cli(["corpus", "build", "--in", str(tmp_path)])
    assert code == 0, err
    provenance = json.loads(out)["provenance"]
    assert (provenance["ingested"], provenance["parse_failed"]) == (4, 1)


@pytest.mark.parametrize("command", ["parse", "metrics", "graph", "rules"])
def test_exit_parse_on_a_non_ascii_digit(tmp_path, command):
    # str.isdigit accepts a superscript two, which once reached int() and exited 4
    path = tmp_path / "sup.mpy"
    path.write_text("x = \u00b2\n", encoding="utf-8")
    code, out, err = run_cli([command, str(path)])
    assert (code, out) == (2, "")
    assert err == "refactorlab: parse error: line 1, col 5: illegal character '\u00b2'\n"


def test_corpus_build_counts_a_file_with_a_non_ascii_digit_as_a_parse_failure(tmp_path):
    for name, src in (("a", SPLITTABLE_SRC), ("b", PLAIN_SRC), ("c", UNSPLITTABLE_SRC)):
        (tmp_path / f"{name}.mpy").write_text(src)
    (tmp_path / "sup.mpy").write_text(PLAIN_SRC + "z = \u00b2\n", encoding="utf-8")
    code, out, err = run_cli(["corpus", "build", "--in", str(tmp_path)])
    assert code == 0, err
    provenance = json.loads(out)["provenance"]
    assert (provenance["ingested"], provenance["parse_failed"]) == (4, 1)


def test_python_dash_m_runs_the_cli(plain_file):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    proc = subprocess.run(
        [sys.executable, "-m", "refactorlab", "parse", str(plain_file)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run_cli(["parse", str(plain_file)])[1]


def test_exit_data_on_malformed_stdin_manifest():
    code, _, err = run_cli(["train", "--model", "dtree"], stdin_text="{\"bogus\": 1}")
    assert code == 3
    assert "data error" in err


@pytest.mark.parametrize("argv", [["train", "--model", "dtree"], ["eval"]])
def test_exit_data_on_deeply_nested_json(argv):
    # past the JSON decoder's recursion limit, which once escaped as exit 4
    code, _, err = run_cli(argv, stdin_text="[" * 100_000 + "]" * 100_000)
    assert code == 3
    assert err == "refactorlab: data error: dataset manifest document nests too deeply\n"


@pytest.mark.parametrize("argv", [["train", "--model", "dtree"], ["eval"], ["corpus", "build"]])
def test_exit_data_on_an_integer_too_long_to_read(argv):
    # past Python's limit on integer digits, which escaped as exit 4
    code, _, err = run_cli(argv, stdin_text='{"seed": ' + "9" * 5000 + "}")
    assert code == 3
    assert err.startswith("refactorlab: data error: invalid JSON in") and err.count("\n") == 1


def test_exit_data_on_a_gnn_checkpoint_with_a_huge_layer_count(tmp_path, splittable_file):
    # checked against the weight count before any per-layer work
    doc = gcn_to_doc(init_model(5, GcnConfig(layers=2, units=4)))
    doc["config"]["layers"] = 10**9
    checkpoint = tmp_path / "huge.json"
    checkpoint.write_text(json.dumps(doc))
    code, _, err = run_cli(["suggest", splittable_file, "--model", str(checkpoint)])
    assert code == 3
    assert "weight arrays" in err and err.count("\n") == 1


def test_exit_data_on_a_gnn_checkpoint_with_a_huge_unit_count(tmp_path, splittable_file):
    # W1 would hold input_dim x 10**9 floats: its string's length refuses it
    # before anything of that size is decoded
    doc = gcn_to_doc(init_model(5, GcnConfig(layers=2, units=4)))
    doc["config"]["units"] = 10**9
    checkpoint = tmp_path / "huge.json"
    checkpoint.write_text(json.dumps(doc))
    code, _, err = run_cli(["suggest", splittable_file, "--model", str(checkpoint)])
    assert code == 3
    assert "W1 has wrong shape" in err and err.count("\n") == 1


@pytest.mark.parametrize("standardization", ["kept", "absent"])
def test_exit_data_on_a_gnn_checkpoint_with_a_huge_input_dim(tmp_path, splittable_file, standardization):
    # checked against W1's rows before any array of that size is made
    doc = gcn_to_doc(init_model(5, GcnConfig(layers=2, units=4)))
    doc["config"]["input_dim"] = 10**12
    if standardization == "absent":
        del doc["feature_mu"], doc["feature_sigma"]
    checkpoint = tmp_path / "huge.json"
    checkpoint.write_text(json.dumps(doc))
    code, _, err = run_cli(["suggest", splittable_file, "--model", str(checkpoint)])
    assert code == 3
    assert "wrong shape" in err and err.count("\n") == 1


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


def test_corpus_build_parses_each_unit_once(monkeypatch, pipeline):
    import refactorlab.minipy.parser as parser

    parses = []
    real = parser.parse

    def counting(tokens):
        parses.append(1)
        return real(tokens)

    bundle = json.loads(pipeline[0])
    bundle["units"].append({"path": "zz_broken.mpy", "body": "def broken(:\n"})
    monkeypatch.setattr(parser, "parse", counting)
    code, out, err = run_cli(["corpus", "build"], stdin_text=json.dumps(bundle))
    assert code == 0, err
    provenance = json.loads(out)["provenance"]
    assert (provenance["ingested"], provenance["parse_failed"]) == (31, 1)
    assert len(parses) == 31


@pytest.mark.parametrize("argv", [["train", "--model", "dtree"], ["eval"]])
def test_exit_data_on_a_split_node_that_is_no_legal_split_point(argv):
    code, bundle, err = run_cli(["synth", "--n", "40", "--seed", "3"])
    code, manifest, err = run_cli(["corpus", "build"], stdin_text=bundle)
    assert code == 0, err
    doc = json.loads(manifest)
    i = next(i for i, s in enumerate(doc["samples"]) if s["label"] == 1)
    # version 6 derives each split node from its source; a planted one, even
    # one no tail starts at (a top-level statement), is an unknown field
    doc["samples"][i]["split_node"] = 1
    code, _, err = run_cli(argv, stdin_text=json.dumps(doc))
    assert code == 3
    assert err == f"refactorlab: data error: samples[{i}] has unknown field 'split_node'\n"


@pytest.mark.parametrize(
    "fault", ["label", "version", "oversampled+1", "oversampled-1", "split without copies"]
)
def test_exit_data_on_a_manifest_that_disagrees_with_its_sources(pipeline, fault):
    # a v6 manifest stores what cannot be derived; what it stores beside the
    # sources must agree with what loading derives from them
    doc = json.loads(pipeline[1])
    if fault == "label":
        i = next(i for i, s in enumerate(doc["samples"]) if s["label"] == 1)
        doc["samples"][i]["label"] = 0
        want = f"samples[{i}].label is 0, but its source's is 1"
    elif fault == "version":
        doc["version"] = "5"
        want = "manifest version must be '6'"
    elif fault == "split without copies":
        # the copies take the indices after the samples with source
        n, copies = len(doc["samples"]), doc["provenance"]["oversampled"]
        doc["split"] = {k: [i for i in v if i < n] for k, v in doc["split"].items()}
        want = f"does not cover all samples: {n} samples and {copies} oversampled copies"
    else:
        n = doc["provenance"]["oversampled"]
        doc["provenance"]["oversampled"] = n + int(fault[-2:])
        want = f"provenance.oversampled is {n + int(fault[-2:])}, but its samples make {n} copies"
    code, out, err = run_cli(["train", "--model", "dtree"], stdin_text=json.dumps(doc))
    assert (code, out) == (3, "")
    assert want in err and err.count("\n") == 1


def test_graphs_are_built_only_where_a_stage_reads_them(monkeypatch):
    import refactorlab.corpus as corpus
    from refactorlab.graph import emit_graph_doc
    from refactorlab.minipy.source import source_digest

    built: list[str] = []  # source digests of the trees built
    jittered: list[float] = []  # u of each copy jittered
    parsed: dict[int, tuple] = {}  # id of each tree parsed -> (tree, its source's digest)
    real_build, real_jitter = corpus.build_graph, corpus._jitter_graph
    real_parse = corpus.parse_source

    def recording_parse(source):
        tree = real_parse(source)
        parsed[id(tree)] = (tree, source_digest(source))
        return tree

    def counting_build(tree):
        built.append(parsed[id(tree)][1])
        return real_build(tree)

    def counting_jitter(graph, u):
        jittered.append(u)
        return real_jitter(graph, u)

    monkeypatch.setattr(corpus, "parse_source", recording_parse)
    monkeypatch.setattr(corpus, "build_graph", counting_build)
    monkeypatch.setattr(corpus, "_jitter_graph", counting_jitter)

    def stage(argv, stdin_text):
        built.clear()
        jittered.clear()
        code, out, err = run_cli(argv, stdin_text=stdin_text)
        assert code == 0, err
        return out

    bundle = stage(["synth", "--n", "40", "--seed", "3"], "")
    manifest = stage(["corpus", "build"], bundle)
    assert (built, jittered) == ([], [])
    stage(["train", "--model", "dtree"], manifest)
    assert (built, jittered) == ([], [])

    doc = json.loads(manifest)
    # the manifest stores no copy; the loaded dataset derives them
    samples = corpus.dataset_from_doc(doc).samples
    assert any(s.recipe is not None for s in samples)

    def reads(split):
        """Digests a split may build (its sources and its copies' parents) and its copies' u."""
        rows = [samples[i] for i in doc["split"][split]]
        sources = {s.source for s in rows if s.recipe is None}
        sources |= {samples[s.recipe[0]].source for s in rows if s.recipe is not None}
        u = Counter(s.recipe[2] for s in rows if s.recipe is not None)
        return {source_digest(source) for source in sources}, u

    ws_gnn = stage(["train", "--model", "gnn", "--epochs", "1"], manifest)
    may_build, copies = reads("train")
    assert built and len(built) == len(set(built)) and set(built) <= may_build
    assert jittered and not Counter(jittered) - copies  # each copy jittered once at most
    ws_full = stage(["train", "--model", "dtree"], ws_gnn)
    stage(["eval", "--format", "json"], ws_full)
    may_build, copies = reads("test")
    assert built and len(built) == len(set(built)) and set(built) <= may_build
    assert not Counter(jittered) - copies

    # each graph built on first read is the one built directly
    dataset, unread = corpus.dataset_from_doc(doc), corpus.dataset_from_doc(doc)
    before = repr(dataset.samples)
    for sample, derived in zip(dataset.samples, samples, strict=True):
        if derived.recipe is not None:
            parent = samples[derived.recipe[0]].source
            direct = real_jitter(real_build(parse_source(parent)), derived.recipe[2])
        else:
            direct = real_build(parse_source(derived.source))
        assert emit_graph_doc(sample.graph) == emit_graph_doc(direct)
        assert [[f.hex() for f in row] for row in sample.graph.x.tolist()] == [
            [f.hex() for f in row] for row in direct.x.tolist()
        ]
    # equality and repr leave the graph out, built or not
    assert dataset.samples == unread.samples and repr(dataset.samples) == before


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
    n = len(manifest["samples"]) + manifest["provenance"]["oversampled"]
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


@pytest.mark.parametrize("seed", ["banana", True, None, 12])
def test_exit_data_on_a_workspace_seed_that_is_not_its_manifests(pipeline, seed):
    # the manifest's seed is 11; a workspace must carry the same integer
    ws = json.loads(pipeline[2])
    if seed is None:
        del ws["seed"]
    else:
        ws["seed"] = seed
    for argv in (["train", "--model", "dtree"], ["eval"]):
        code, out, err = run_cli(argv, stdin_text=json.dumps(ws))
        assert (code, out) == (3, "")
        assert err == (
            "refactorlab: data error: workspace seed must be an integer equal to"
            " its manifest's seed\n"
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["corpus", "build", "--target-minority", "0.5"],
        ["corpus", "build", "--cap-percentile", "90"],
        ["train", "--model", "dtree", "--max-depth", "3"],
        ["train", "--model", "dtree", "--min-split", "2"],
    ],
)
def test_exit_usage_on_a_removed_option(pipeline, argv):
    # the class balance, the outlier cap and the tree's limits are fixed
    code, out, err = run_cli(argv, stdin_text=pipeline[1])
    assert (code, out) == (1, "")
    assert err.startswith("refactorlab: usage error: unrecognized arguments")


def test_train_checkpoint_out(tmp_path, pipeline):
    target = tmp_path / "dtree.json"
    code, _, err = run_cli(
        ["train", "--model", "dtree", "--checkpoint-out", str(target)],
        stdin_text=pipeline[1],
    )
    assert code == 0, err
    dtree_from_doc(json.loads(target.read_text()))


@pytest.mark.parametrize("model", ["gnn", "dtree"])
def test_train_passes_the_other_checkpoint_through_byte_for_byte(pipeline, model):
    # retraining either model on the same data gives its bytes again, and
    # the other checkpoint is decoded and encoded back to the same bytes
    code, out, err = run_cli(["train", "--model", model, "--epochs", "2"], stdin_text=pipeline[2])
    assert code == 0, err
    assert out == pipeline[2]


@pytest.mark.parametrize("model", ["gnn", "dtree"])
def test_train_refuses_a_workspace_whose_other_checkpoint_is_corrupt(pipeline, model):
    # the checkpoint that train passes through is checked as eval would check it
    ws = json.loads(pipeline[2])
    if model == "dtree":
        ws["checkpoints"]["gnn"]["weights"]["W1"] = "x"
    else:
        ws["checkpoints"]["dtree"]["n_features"] = "x"
    code, out, err = run_cli(["train", "--model", model, "--epochs", "1"], stdin_text=json.dumps(ws))
    assert (code, out) == (3, "")
    assert err.startswith("refactorlab: data error: ") and err.count("\n") == 1
    assert ("W1" if model == "dtree" else "n_features") in err


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


def test_suggest_runs_one_forward_pass(monkeypatch, splittable_file, gnn_checkpoint):
    import refactorlab.gcn as gcn

    passes = []
    real = gcn._forward_full

    def counting(*args, **kwargs):
        passes.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(gcn, "_forward_full", counting)
    argv = ["suggest", splittable_file, "--model", gnn_checkpoint, "--format", "json"]
    assert run_cli(argv)[0] == 0
    assert len(passes) == 1


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
