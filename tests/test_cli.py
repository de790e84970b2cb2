import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import cdlp
from cdlp.cli import main, read_tensor_file, write_tensor_file
from cdlp.config import canonical_config_text, load_canonical_model
from cdlp.container import HEADER_BYTES
from cdlp.model import LayerWeights, Tensor
from cdlp.planner import parse_manifest, render_manifest
from cdlp.weights import load_weights, serialize_weights

from support import random_tensor, random_weight_store

KEY_HEX = "00112233445566778899aabbccddeeff"
CAP = 7 * 2**20


@pytest.fixture()
def workspace(tmp_path):
    model = load_canonical_model()
    rng = np.random.default_rng(23)
    cfg = tmp_path / "model.cfg"
    cfg.write_text(canonical_config_text())
    weights = tmp_path / "model.weights"
    weights.write_bytes(serialize_weights(random_weight_store(model, rng)))
    tensor = tmp_path / "input.tensor"
    write_tensor_file(tensor, random_tensor(rng, model.input_dims))
    return tmp_path, cfg, weights, tensor


def run_cli(*argv, capsys=None):
    code = main([str(a) for a in argv])
    return code


def plan_and_encrypt(workspace, scheme="layered", cap=CAP):
    tmp, cfg, weights, tensor = workspace
    manifest = tmp / "plan.manifest"
    parts = tmp / "parts"
    assert run_cli("plan", "--cfg", cfg, "--scheme", scheme, "--cap", cap, "--out", manifest) == 0
    assert run_cli(
        "encrypt", "--cfg", cfg, "--weights", weights, "--plan", manifest,
        "--key", KEY_HEX, "--out", parts,
    ) == 0
    return manifest, parts


def test_plan_report_lists_eleven_partitions(workspace, capsys):
    tmp, cfg, _, _ = workspace
    assert run_cli("plan", "--cfg", cfg, "--scheme", "layered", "--cap", CAP, "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scheme"] == "layered"
    assert len(payload["partitions"]) == 11
    assert all(p["footprint_bytes"] <= CAP for p in payload["partitions"])


def test_plan_shows_subset_choice_and_spill(workspace, capsys):
    tmp, cfg, _, _ = workspace
    assert run_cli("plan", "--cfg", cfg, "--scheme", "sublayer", "--cap", 100_000, "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sublayer"]["4"]["subset_count"] == 2
    assert payload["spill_layers"] == []


def test_plan_infeasible_cap_exits_3(workspace, capsys):
    tmp, cfg, _, _ = workspace
    assert run_cli("plan", "--cfg", cfg, "--scheme", "layered", "--cap", 1000) == 3
    err = capsys.readouterr().err
    assert "layer" in err


def test_plan_reports_spill_flags(tmp_path, capsys):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(
        "[net]\nchannels=4\nheight=1\nwidth=1\n"
        "[connected]\noutputs=20000\nactivation=relu\n"
        "[connected]\noutputs=8\nactivation=linear\n"
    )
    assert run_cli("plan", "--cfg", cfg, "--scheme", "sublayer", "--cap", 100_000, "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spill_layers"] == [1]
    assert payload["sublayer"]["0"]["subset_count"] > 1
    assert all(p["footprint_bytes"] <= 100_000 for p in payload["partitions"])


def test_plan_prints_each_spill_flag_once(tmp_path, capsys):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(
        "[net]\nchannels=4\nheight=1\nwidth=1\n"
        "[connected]\noutputs=20000\nactivation=relu\n"
        "[connected]\noutputs=8\nactivation=linear\n"
    )
    assert run_cli("plan", "--cfg", cfg, "--scheme", "sublayer", "--cap", 100_000) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "spill" in line] == ["spill 1"]


def test_plan_reports_the_config_byte_length(workspace, capsys):
    tmp, cfg, _, _ = workspace
    size = len(canonical_config_text().encode())
    assert run_cli("plan", "--cfg", cfg, "--scheme", "layered", "--cap", CAP, "--json") == 0
    assert json.loads(capsys.readouterr().out)["config_bytes"] == size
    assert run_cli("plan", "--cfg", cfg, "--scheme", "layered", "--cap", CAP) == 0
    assert f"config bytes: {size}" in capsys.readouterr().out.splitlines()
    # the bytes on disk, not the text they decode to: a CRLF line end is two bytes
    crlf = tmp / "crlf.cfg"
    crlf.write_bytes(canonical_config_text().replace("\n", "\r\n").encode())
    assert run_cli("plan", "--cfg", crlf, "--scheme", "layered", "--cap", CAP, "--json") == 0
    assert json.loads(capsys.readouterr().out)["config_bytes"] == crlf.stat().st_size > size
    crlf.write_bytes(canonical_config_text().encode() + b"\xff")  # not UTF-8
    assert run_cli("plan", "--cfg", crlf, "--scheme", "layered", "--cap", CAP) == 2


def test_plan_explicit_subset_size(workspace, capsys):
    tmp, cfg, _, _ = workspace
    assert run_cli("plan", "--cfg", cfg, "--scheme", "sublayer", "--cap", CAP,
                   "--s", 5, "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(entry["subset_size"] == 5 for entry in payload["sublayer"].values())
    # s must be valid for every parameterized layer (smallest has 6 units)
    assert run_cli("plan", "--cfg", cfg, "--scheme", "sublayer", "--cap", CAP, "--s", 500) == 3


@pytest.mark.parametrize("scheme", ["layered", "branched"])
def test_subset_size_outside_sublayer_is_a_usage_error(workspace, capsys, scheme):
    tmp, cfg, _, _ = workspace
    out = tmp / "plan.manifest"
    assert run_cli("plan", "--cfg", cfg, "--scheme", scheme, "--cap", CAP,
                   "--s", 3, "--out", out) == 2
    assert "--s applies to the sublayer scheme only" in capsys.readouterr().err
    assert not out.exists()


def test_encrypt_writes_eleven_containers(workspace):
    manifest, parts = plan_and_encrypt(workspace)
    files = sorted(p.name for p in parts.iterdir())
    assert len([f for f in files if f.endswith(".cdlp")]) == 11
    assert "plan.manifest" in files


def test_encrypt_bad_key_length_exits_2_without_files(workspace, tmp_path):
    tmp, cfg, weights, _ = workspace
    manifest = tmp / "plan.manifest"
    run_cli("plan", "--cfg", cfg, "--scheme", "layered", "--cap", CAP, "--out", manifest)
    out = tmp_path / "nothing"
    assert run_cli(
        "encrypt", "--cfg", cfg, "--weights", weights, "--plan", manifest,
        "--key", "abcd", "--out", out,
    ) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "key", ["00112233445566778899aabbccdd  ee", "00112233445566778899aabbccdd\t ee"],
    ids=["two-spaces", "tab"],
)
def test_key_with_whitespace_is_not_valid_hex(workspace, tmp_path, capsys, key):
    tmp, cfg, weights, _ = workspace
    manifest = tmp / "plan.manifest"
    run_cli("plan", "--cfg", cfg, "--scheme", "layered", "--cap", CAP, "--out", manifest)
    out = tmp_path / "nothing"
    assert len(key) == 32
    assert run_cli(
        "encrypt", "--cfg", cfg, "--weights", weights, "--plan", manifest,
        "--key", key, "--out", out,
    ) == 2
    assert "key is not valid hex" in capsys.readouterr().err
    assert not out.exists()


def test_encrypt_missing_weights_exits_2(workspace):
    tmp, cfg, _, _ = workspace
    manifest = tmp / "plan.manifest"
    run_cli("plan", "--cfg", cfg, "--scheme", "layered", "--cap", CAP, "--out", manifest)
    assert run_cli(
        "encrypt", "--cfg", cfg, "--weights", tmp / "missing.weights", "--plan", manifest,
        "--key", KEY_HEX, "--out", tmp / "parts",
    ) == 2


def assert_usage_error(code, capsys):
    """Exit 2 with one ``error:`` line and nothing on stdout; an exception
    that escaped ``main`` would fail the calling test itself."""
    out, err = capsys.readouterr()
    assert code == 2, err
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "Traceback" not in err


PLAN = ["plan", "--scheme", "layered", "--cfg"]


def run_argv(w):
    return ["run", "--cfg", w.cfg, "--parts", w.parts, "--plan", w.manifest, "--key", KEY_HEX,
            "--cap", CAP]


# Each a command whose input cannot be read or written, or describes no valid
# run: a path that is a directory, or lies under a file, an existing file
# where a directory is made, a tensor of the wrong dims, a budget below 1.
INPUT_FAULTS = {
    "plan-cfg-is-a-directory": lambda w: [*PLAN, w.tmp, "--cap", CAP],
    "plan-out-under-a-file": lambda w: [*PLAN, w.cfg, "--cap", CAP, "--out", w.cfg / "x.manifest"],
    "plan-cap-0": lambda w: [*PLAN, w.cfg, "--cap", 0],
    "plan-cap-negative": lambda w: [*PLAN, w.cfg, "--cap", -5],
    "plan-s-0": lambda w: ["plan", "--scheme", "sublayer", "--cfg", w.cfg, "--cap", CAP, "--s", 0],
    "plan-s-negative": lambda w: ["plan", "--scheme", "sublayer", "--cfg", w.cfg, "--cap", CAP,
                                  "--s", -3],
    "encrypt-out-is-a-file": lambda w: ["encrypt", "--cfg", w.cfg, "--weights", w.weights,
                                        "--plan", w.manifest, "--key", KEY_HEX, "--out", w.tensor],
    "run-input-is-a-directory": lambda w: [*run_argv(w), "--input", w.parts],
    "run-trace-under-a-file": lambda w: [*run_argv(w), "--input", w.tensor,
                                         "--trace", w.tensor / "t.jsonl"],
    "run-input-of-wrong-dims": lambda w: [*run_argv(w), "--input", w.wrong_dims],
}


@pytest.mark.parametrize("fault", sorted(INPUT_FAULTS))
def test_bad_input_paths_and_values_exit_2_with_one_error_line(workspace, capsys, fault):
    tmp, cfg, weights, tensor = workspace
    manifest, parts = plan_and_encrypt(workspace)
    wrong_dims = tmp / "wrong.tensor"
    write_tensor_file(wrong_dims, Tensor((1, 4, 4), np.zeros(16)))
    capsys.readouterr()
    paths = SimpleNamespace(tmp=tmp, cfg=cfg, weights=weights, tensor=tensor, manifest=manifest,
                            parts=parts, wrong_dims=wrong_dims)
    assert_usage_error(run_cli(*INPUT_FAULTS[fault](paths)), capsys)


NO_VALID_MODEL = {
    "kernel-larger-than-input": "[convolutional]\nfilters=2\nkernel_size=5\nstride=1\n"
                                "padding=0\nactivation=relu\n",
    "no-filters": "[convolutional]\nfilters=0\nkernel_size=3\nstride=1\n"
                  "padding=0\nactivation=relu\n",
    "unknown-activation": "[connected]\noutputs=4\nactivation=tanh\n",
    "branch-before-a-conv": "[branch]\nbranches=2\n[convolutional]\nfilters=2\n"
                            "kernel_size=3\nstride=1\npadding=0\nactivation=relu\n",
    "conv-after-connected": "[connected]\noutputs=16\nactivation=relu\n[convolutional]\n"
                            "filters=2\nkernel_size=1\nstride=1\npadding=0\nactivation=relu\n",
    "digit-separator": "[connected]\noutputs=8_4\nactivation=relu\n",
}


@pytest.mark.parametrize("command", ["plan", "encrypt", "run"])
@pytest.mark.parametrize("config", sorted(NO_VALID_MODEL))
def test_a_config_that_describes_no_valid_model_exits_2(workspace, capsys, config, command):
    tmp, _, weights, tensor = workspace
    manifest, parts = plan_and_encrypt(workspace)
    cfg = tmp / "bad.cfg"
    cfg.write_text("[net]\nchannels=1\nheight=4\nwidth=4\n" + NO_VALID_MODEL[config])
    capsys.readouterr()
    argv = {
        "plan": ["plan", "--cfg", cfg, "--scheme", "layered", "--cap", CAP],
        "encrypt": ["encrypt", "--cfg", cfg, "--weights", weights, "--plan", manifest,
                    "--key", KEY_HEX, "--out", tmp / "out"],
        "run": ["run", "--cfg", cfg, "--parts", parts, "--plan", manifest, "--key", KEY_HEX,
                "--input", tensor, "--cap", CAP],
    }[command]
    assert_usage_error(run_cli(*argv), capsys)
    assert not (tmp / "out").exists()


def test_encrypt_rejects_a_split_maxpool_layer(workspace):
    tmp, cfg, weights, _ = workspace
    manifest = tmp / "plan.manifest"
    run_cli("plan", "--cfg", cfg, "--scheme", "layered", "--cap", CAP, "--out", manifest)
    plan = parse_manifest(manifest.read_text())
    pool = plan.partitions[1]
    assert pool.layer_index == 1 and load_canonical_model().layers[1].kind == "maxpool"
    half = pool.end // 2
    plan.partitions[1:2] = [replace(pool, end=half), replace(pool, id=100, start=half)]
    manifest.write_text(render_manifest(plan))
    code = run_cli(
        "encrypt", "--cfg", cfg, "--weights", weights, "--plan", manifest,
        "--key", KEY_HEX, "--out", tmp / "parts",
    )
    assert code == 3
    assert not (tmp / "parts").exists()


# Each an edit that leaves a manifest describing no valid plan, with the
# reason encrypt gives: a second scheme line, an added partition that covers
# no rows, an id used twice.
NO_VALID_PLAN = {
    "second-scheme-line": (lambda text: "scheme layered\n" + text, "a second scheme line"),
    "empty-partition": (
        lambda text: text.replace("partition 10 ", "partition 11 layer 9 range 10..10 "
                                  "world secure bytes 1136\npartition 10 "),
        "partition 11 covers no rows",
    ),
    "duplicated-id": (lambda text: text.replace("partition 10 ", "partition 0 "),
                      "duplicate partition ids"),
}


@pytest.mark.parametrize("edit", sorted(NO_VALID_PLAN))
def test_encrypt_rejects_a_manifest_that_describes_no_valid_plan(workspace, capsys, edit):
    tmp, cfg, weights, _ = workspace
    manifest = tmp / "plan.manifest"
    assert run_cli("plan", "--cfg", cfg, "--scheme", "layered", "--cap", CAP, "--out", manifest) == 0
    change, reason = NO_VALID_PLAN[edit]
    manifest.write_text(change(manifest.read_text()))
    capsys.readouterr()
    code = run_cli(
        "encrypt", "--cfg", cfg, "--weights", weights, "--plan", manifest,
        "--key", KEY_HEX, "--out", tmp / "parts",
    )
    out, err = capsys.readouterr()
    assert code == 3, err
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("planning failed: "), err
    assert err.rstrip().endswith(reason), err
    assert not (tmp / "parts").exists()


def test_reencrypting_changes_ciphertext_not_plaintext(workspace):
    tmp, cfg, weights, tensor = workspace
    manifest, parts = plan_and_encrypt(workspace)
    first = (parts / "part_0.cdlp").read_bytes()
    assert run_cli(
        "encrypt", "--cfg", cfg, "--weights", weights, "--plan", manifest,
        "--key", KEY_HEX, "--out", parts,
    ) == 0
    second = (parts / "part_0.cdlp").read_bytes()
    assert first != second  # fresh nonce
    assert run_cli(
        "run", "--cfg", cfg, "--parts", parts, "--plan", manifest, "--key", KEY_HEX,
        "--input", tensor, "--cap", CAP, "--oracle", weights,
    ) == 0


def test_run_with_oracle_reports_equivalence(workspace, capsys):
    tmp, cfg, weights, tensor = workspace
    manifest, parts = plan_and_encrypt(workspace)
    capsys.readouterr()
    assert run_cli(
        "run", "--cfg", cfg, "--parts", parts, "--plan", manifest, "--key", KEY_HEX,
        "--input", tensor, "--cap", CAP, "--oracle", weights, "--json",
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["equivalent"] is True
    assert payload["context_switches"] == 22
    assert payload["partitions"] == 11


def test_oracle_checks_the_run_against_the_weights_file(workspace, capsys):
    tmp, cfg, weights, tensor = workspace
    manifest, parts = plan_and_encrypt(workspace)
    # containers sealed from other weights, under the same plan and key: the
    # last connected layer negated, so the softmax peaks at another class
    model = load_canonical_model()
    store = load_weights(weights.read_bytes(), model)
    last = store.layers[9]
    store.layers[9] = LayerWeights(-last.weights, -last.biases)
    other = tmp / "other.weights"
    other.write_bytes(serialize_weights(store))
    assert run_cli(
        "encrypt", "--cfg", cfg, "--weights", other, "--plan", manifest,
        "--key", KEY_HEX, "--out", parts,
    ) == 0
    capsys.readouterr()
    assert run_cli(
        "run", "--cfg", cfg, "--parts", parts, "--plan", manifest, "--key", KEY_HEX,
        "--input", tensor, "--cap", CAP, "--oracle", weights, "--json",
    ) == 4
    assert json.loads(capsys.readouterr().out)["equivalent"] is False


def test_sublayer_plan_runs_at_its_cap(workspace, capsys):
    tmp, cfg, weights, tensor = workspace
    manifest, parts = plan_and_encrypt(workspace, "sublayer", 24_000)
    capsys.readouterr()
    assert run_cli(
        "run", "--cfg", cfg, "--parts", parts, "--plan", manifest, "--key", KEY_HEX,
        "--input", tensor, "--cap", 24_000, "--oracle", weights, "--json",
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["equivalent"] is True
    assert payload["arena_peak_bytes"] <= 24_000


def test_run_traces_every_partition(workspace, capsys):
    tmp, cfg, _, tensor = workspace
    manifest, parts = plan_and_encrypt(workspace, "sublayer", 24_000)
    args = ["run", "--cfg", cfg, "--parts", parts, "--plan", manifest, "--key", KEY_HEX,
            "--input", tensor, "--cap", 24_000]
    capsys.readouterr()
    assert run_cli(*args, "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    trace = payload["trace"]
    assert len(trace) == payload["partitions"] == 22
    assert [entry["id"] for entry in trace] == list(range(22))
    assert all(entry["arena_peak_bytes"] == entry["footprint_bytes"] for entry in trace)
    assert payload["arena_peak_bytes"] == max(entry["arena_peak_bytes"] for entry in trace) == 23_792
    assert sum(entry["decrypted_bytes"] for entry in trace) == payload["decrypted_bytes"]

    assert run_cli(*args) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("partition ")]
    assert len(lines) == 22
    assert lines[0].startswith(f"partition 0: layer 0 rows [0, {trace[0]['end']}) secure, ")
    assert lines[-1].endswith(f"decrypted {trace[-1]['decrypted_bytes']}")


def test_run_json_traces_switches_and_phase_times(workspace, capsys):
    tmp, cfg, _, tensor = workspace
    manifest, parts = plan_and_encrypt(workspace, "layered", 7 * 2**20)
    capsys.readouterr()
    assert run_cli("run", "--cfg", cfg, "--parts", parts, "--plan", manifest, "--key", KEY_HEX,
                   "--input", tensor, "--cap", 7 * 2**20, "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    trace = payload["trace"]
    assert [entry["switches"] for entry in trace] == [2] * 11
    assert sum(entry["switches"] for entry in trace) == payload["context_switches"]
    for entry in trace:
        assert entry["kernel_seconds"] > 0 and entry["spill_seconds"] == 0
        assert entry["stage_seconds"] > 0 and entry["decrypt_seconds"] > 0


def test_run_trace_file_holds_the_json_trace_as_lines(workspace, capsys):
    tmp, cfg, weights, tensor = workspace
    manifest, parts, trace_file = tmp / "plan.manifest", tmp / "parts", tmp / "run.trace"
    assert run_cli("plan", "--cfg", cfg, "--scheme", "sublayer", "--cap", 24_000,
                   "--out", manifest) == 0
    # layer 4's subsets spill their rows, which every subset of layer 5 streams back
    manifest.write_text(render_manifest(parse_manifest(manifest.read_text()).with_spill(5)))
    assert run_cli("encrypt", "--cfg", cfg, "--weights", weights, "--plan", manifest,
                   "--key", KEY_HEX, "--out", parts) == 0
    capsys.readouterr()
    assert run_cli("run", "--cfg", cfg, "--parts", parts, "--plan", manifest, "--key", KEY_HEX,
                   "--input", tensor, "--cap", 24_000, "--json", "--trace", trace_file) == 0
    payload = json.loads(capsys.readouterr().out)
    lines = trace_file.read_text().splitlines()
    assert [json.loads(line) for line in lines] == payload["trace"]
    assert len(lines) == payload["partitions"]
    entries = payload["trace"]
    assert sum(e["modeled_seconds"] for e in entries) == pytest.approx(
        payload["overhead_seconds"], rel=1e-12
    )
    written = [e["spill_chunks_written"] for e in entries if e["layer"] == 4]
    assert len(written) > 1 and min(written) > 0
    assert all(e["spill_chunks_written"] == 0 for e in entries if e["layer"] != 4)
    assert all(e["spill_chunks_read"] == (sum(written) if e["layer"] == 5 else 0)
               for e in entries)


def test_run_rejects_a_manifest_that_understates_a_footprint(workspace, capsys):
    tmp, cfg, _, tensor = workspace
    manifest, parts = plan_and_encrypt(workspace, "sublayer", 24_000)
    plan = parse_manifest(manifest.read_text())
    *_, runner_up, victim = sorted(plan.partitions, key=lambda p: p.footprint_bytes)
    assert victim.footprint_bytes > runner_up.footprint_bytes
    # every recorded figure now fits a cap the victim's real footprint exceeds
    cap = runner_up.footprint_bytes
    plan.partitions[victim.id] = replace(victim, footprint_bytes=cap)
    manifest.write_text(render_manifest(plan))
    capsys.readouterr()
    assert run_cli(
        "run", "--cfg", cfg, "--parts", parts, "--plan", manifest, "--key", KEY_HEX,
        "--input", tensor, "--cap", cap,
    ) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("planning failed: ")
    assert f"partition {victim.id} records {cap} bytes but needs {victim.footprint_bytes}" in err


def test_run_overhead_ratio_from_supplied_baseline(workspace, capsys):
    tmp, cfg, _, tensor = workspace
    manifest, parts = plan_and_encrypt(workspace)
    capsys.readouterr()
    assert run_cli(
        "run", "--cfg", cfg, "--parts", parts, "--plan", manifest, "--key", KEY_HEX,
        "--input", tensor, "--cap", CAP, "--baseline", "0.00823", "--json",
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = (0.00823 + payload["overhead_seconds"]) / 0.00823
    assert payload["overhead_ratio"] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "flags", [("--baseline", "nan"), ("--baseline", "inf"), ("--baseline", "-0.00823"),
              ("--baseline", "0"), ("--tcs", "nan"), ("--td", "inf")],
)
def test_run_rejects_a_baseline_or_constant_that_is_not_finite_and_positive(
    workspace, capsys, flags
):
    tmp, cfg, _, tensor = workspace
    manifest, parts = plan_and_encrypt(workspace)
    capsys.readouterr()
    assert run_cli(
        "run", "--cfg", cfg, "--parts", parts, "--plan", manifest, "--key", KEY_HEX,
        "--input", tensor, "--cap", CAP, "--json", *flags,
    ) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "must be finite and positive" in err


def test_run_corrupted_partition_exits_4(workspace, capsys):
    tmp, cfg, _, tensor = workspace
    manifest, parts = plan_and_encrypt(workspace)
    victim = parts / "part_3.cdlp"
    data = bytearray(victim.read_bytes())
    data[HEADER_BYTES + 13] ^= 1
    victim.write_bytes(bytes(data))
    assert run_cli(
        "run", "--cfg", cfg, "--parts", parts, "--plan", manifest, "--key", KEY_HEX,
        "--input", tensor, "--cap", CAP,
    ) == 4
    assert "IntegrityError" in capsys.readouterr().err


@pytest.mark.parametrize("version", [1, 2, 3])
def test_run_on_old_container_versions_exits_4_before_decrypting(
    workspace, capsys, monkeypatch, version
):
    """Version 2 held row-major weights, which must not be read as columns;
    version 3 bound only the u16 partition id."""
    tmp, cfg, _, tensor = workspace
    manifest, parts = plan_and_encrypt(workspace)
    for victim in parts.glob("*.cdlp"):
        data = bytearray(victim.read_bytes())
        data[4:6] = version.to_bytes(2, "little")  # the header's version field
        victim.write_bytes(bytes(data))

    def refuse(*args, **kwargs):
        pytest.fail(f"a version {version} container reached decryption")

    monkeypatch.setattr("cdlp.container.decrypt_partition", refuse)
    assert run_cli(
        "run", "--cfg", cfg, "--parts", parts, "--plan", manifest, "--key", KEY_HEX,
        "--input", tensor, "--cap", CAP,
    ) == 4
    assert f"FormatError: unsupported container version {version}" in capsys.readouterr().err


def test_run_branched_model(tmp_path, capsys):
    cfg = tmp_path / "branched.cfg"
    cfg.write_text(
        "[net]\nchannels=1\nheight=4\nwidth=4\n"
        "[connected]\noutputs=8\nactivation=relu\n"
        "[branch]\nbranches=2\n"
        "[connected]\noutputs=6\nactivation=linear\n"
    )
    from cdlp.config import parse_config

    model = parse_config(cfg.read_text())
    rng = np.random.default_rng(3)
    weights = tmp_path / "w.bin"
    weights.write_bytes(serialize_weights(random_weight_store(model, rng)))
    tensor = tmp_path / "x.bin"
    write_tensor_file(tensor, random_tensor(rng, (1, 4, 4)))
    manifest = tmp_path / "plan.manifest"
    parts = tmp_path / "parts"
    assert run_cli("plan", "--cfg", cfg, "--scheme", "branched", "--cap", CAP, "--out", manifest) == 0
    assert run_cli("encrypt", "--cfg", cfg, "--weights", weights, "--plan", manifest,
                   "--key", KEY_HEX, "--out", parts) == 0
    assert (parts / "part_0.blob").exists()  # normal-world prefix stays plaintext
    capsys.readouterr()
    assert run_cli("run", "--cfg", cfg, "--parts", parts, "--plan", manifest, "--key", KEY_HEX,
                   "--input", tensor, "--cap", CAP, "--oracle", weights, "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["equivalent"] is True
    assert payload["context_switches"] == 4  # two branches of one branched layer
    # the normal-world prefix plans and measures 0 arena bytes
    assert all(entry["footprint_bytes"] == entry["arena_peak_bytes"] for entry in payload["trace"])


def test_estimate_canonical_case(capsys):
    assert run_cli("estimate", "--layers", 11, "--bytes", 191790) == 0
    text = capsys.readouterr().out
    seconds = float(text.split()[-1])
    assert seconds == pytest.approx(0.03305, abs=1e-5)


def test_estimate_zero_case(capsys):
    assert run_cli("estimate", "--layers", 0, "--bytes", 0, "--json") == 0
    assert json.loads(capsys.readouterr().out)["overhead_seconds"] == 0.0


def test_estimate_custom_constants_scale_linearly(capsys):
    assert run_cli("estimate", "--layers", 0, "--bytes", 1000, "--json") == 0
    base = json.loads(capsys.readouterr().out)["overhead_seconds"]
    assert run_cli("estimate", "--layers", 0, "--bytes", 1000,
                   "--td", 163.7e-9 / 2, "--json") == 0
    halved = json.loads(capsys.readouterr().out)["overhead_seconds"]
    assert halved == pytest.approx(base / 2, rel=1e-12)


def test_estimate_negative_layers_is_usage_error(capsys):
    assert run_cli("estimate", "--layers", -1, "--bytes", 0) == 2


@pytest.mark.parametrize(
    "flags", [("--tcs", "nan"), ("--tcs", "0"), ("--td", "inf", "--json"), ("--td=-1e-9",)]
)
def test_estimate_constants_must_be_finite_and_positive(capsys, flags):
    assert run_cli("estimate", "--layers", 3, "--bytes", 5, *flags) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "cost constants must be finite and positive" in err


def test_json_and_text_render_the_same_numbers(workspace, capsys):
    tmp, cfg, _, tensor = workspace
    manifest, parts = plan_and_encrypt(workspace)
    args = ["run", "--cfg", cfg, "--parts", parts, "--plan", manifest, "--key", KEY_HEX,
            "--input", tensor, "--cap", CAP, "--baseline", "0.00823"]
    capsys.readouterr()
    assert run_cli(*args, "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert run_cli(*args) == 0
    text = capsys.readouterr().out
    lines = dict(line.split(": ", 1) for line in text.strip().splitlines())
    assert int(lines["context switches"]) == payload["context_switches"]
    assert int(lines["decrypted bytes"]) == payload["decrypted_bytes"]
    assert float(lines["estimated overhead seconds"]) == payload["overhead_seconds"]
    assert float(lines["overhead ratio"]) == payload["overhead_ratio"]

    assert run_cli("estimate", "--layers", 11, "--bytes", 191790, "--json") == 0
    est = json.loads(capsys.readouterr().out)
    assert run_cli("estimate", "--layers", 11, "--bytes", 191790) == 0
    est_text = capsys.readouterr().out
    assert float(est_text.split()[-1]) == est["overhead_seconds"]


def test_tensor_file_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    t = random_tensor(rng, (2, 3, 4))
    path = tmp_path / "t.bin"
    write_tensor_file(path, t)
    back = read_tensor_file(path)
    assert back.dims == (2, 3, 4)
    assert back.data.tobytes() == t.data.tobytes()
    assert path.stat().st_size == 12 + 4 * 24


def test_tensor_file_flat_vector(tmp_path):
    path = tmp_path / "t.bin"
    write_tensor_file(path, Tensor((5,), [1, 2, 3, 4, 5]))
    assert read_tensor_file(path).dims == (5, 1, 1)


def test_a_tensor_file_without_a_dims_header_fails_the_run(tmp_path, workspace, capsys):
    path = tmp_path / "t.bin"
    path.write_bytes(bytes(11))
    manifest, parts = plan_and_encrypt(workspace)
    tmp, cfg, _, _ = workspace
    capsys.readouterr()
    assert run_cli(
        "run", "--cfg", cfg, "--parts", parts, "--plan", manifest, "--key", KEY_HEX,
        "--input", path, "--cap", CAP,
    ) == 4
    assert capsys.readouterr().err.startswith("run failed: FormatError: ")


def test_truncated_tensor_file(tmp_path, workspace):
    path = tmp_path / "t.bin"
    write_tensor_file(path, Tensor((5,), [1, 2, 3, 4, 5]))
    path.write_bytes(path.read_bytes()[:-2])
    manifest, parts = plan_and_encrypt(workspace)
    tmp, cfg, _, _ = workspace
    assert run_cli(
        "run", "--cfg", cfg, "--parts", parts, "--plan", manifest, "--key", KEY_HEX,
        "--input", path, "--cap", CAP,
    ) == 4


def test_the_program_runs_as_a_process(workspace):
    """``python -m cdlp.cli`` through its ``__main__`` guard: the exit codes
    and streams a shell sees."""
    tmp, cfg, weights, tensor = workspace
    env = {**os.environ, "PYTHONPATH": str(Path(cdlp.__file__).resolve().parents[1])}

    def cdlp_process(*argv):
        return subprocess.run([sys.executable, "-m", "cdlp.cli", *map(str, argv)],
                              cwd=tmp, env=env, capture_output=True, text=True)

    manifest, parts = tmp / "plan.manifest", tmp / "parts"
    assert cdlp_process("plan", "--cfg", cfg, "--scheme", "layered", "--cap", CAP,
                        "--out", manifest).returncode == 0
    assert cdlp_process("encrypt", "--cfg", cfg, "--weights", weights, "--plan", manifest,
                        "--key", KEY_HEX, "--out", parts).returncode == 0
    run = cdlp_process("run", "--cfg", cfg, "--parts", parts, "--plan", manifest,
                       "--key", KEY_HEX, "--input", tensor, "--cap", CAP, "--oracle", weights)
    assert run.returncode == 0, run.stderr
    assert "equivalent to reference: true" in run.stdout.splitlines()

    refused = cdlp_process("plan", "--cfg", tmp, "--scheme", "layered", "--cap", CAP)
    assert refused.returncode == 2
    assert refused.stdout == ""
    assert len(refused.stderr.splitlines()) == 1 and refused.stderr.startswith("error: ")
