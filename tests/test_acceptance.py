"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen; without -s pytest shows them for failures.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from cdlp.audit import find_plaintext_leak
from cdlp.config import load_canonical_model
from cdlp.container import HEADER_BYTES, MAC_BYTES, read_header
from cdlp.errors import IntegrityError, LayerTooLargeError
from cdlp.executor import compare_runs, prepare_partition_data, run_partitioned, run_reference
from cdlp.model import LayerSpec, ModelSpec
from cdlp.planner import plan_branched, plan_layered, plan_sublayer
from cdlp.tee import SecureArena, estimate_overhead
from cdlp.weights import split_weights

from support import random_case, random_tensor, random_weight_store, spilled_secrets

KEY = bytes.fromhex("5ec2e75ec2e75ec2e75ec2e75ec2e700")
CAP = 7 * 2**20


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {title}")
        raise
    print(f"PASS criterion {number}: {title}")


def checked_run(model, store, plan, x, cap=CAP):
    """Run a plan and assert the confidentiality taint property (criterion 7
    applies to every run in criteria 3 through 6)."""
    data = prepare_partition_data(store, plan, KEY)
    result = run_partitioned(model, data, plan, x, SecureArena(cap), KEY)
    secrets = [b for b in split_weights(store, plan) if len(b) >= 8]
    secrets += spilled_secrets(model, store, plan, x)
    assert find_plaintext_leak(result.shared, secrets) is None
    return result


def sublayer_thirds(model):
    return {
        i: max(1, model.units(i) // 3)
        for i in range(len(model.layers))
        if model.is_parameterized(i)
    }


def test_criterion_1_cost_model_reproduction():
    with criterion(1, "estimate_overhead(11, 191790) = 33.05 ms within 0.01 ms"):
        seconds = estimate_overhead(11, 191790)
        assert seconds == pytest.approx(0.03305, abs=1e-5)


def test_criterion_2_overhead_ratio_reproduction():
    with criterion(2, "8.23 ms baseline gives ~5.0x total, ~4.0x added overhead"):
        baseline = 0.00823
        overhead = estimate_overhead(11, 191790)
        total_ratio = (baseline + overhead) / baseline
        assert total_ratio == pytest.approx(5.0, abs=0.1)
        assert total_ratio - 1.0 == pytest.approx(4.0, abs=0.1)


def test_criterion_3_oracle_equivalence_100_models():
    with criterion(3, "three schemes bitwise-equal to the reference on 100 models"):
        kinds = set()
        for seed in range(100):
            model, store, x = random_case(3000 + seed)
            kinds.update(layer.kind for layer in model.layers)
            reference = run_reference(model, store, x).output
            plans = (
                plan_layered(model, CAP),
                plan_sublayer(model, CAP, subset_size=sublayer_thirds(model)),
                plan_branched(model, CAP),
            )
            for plan in plans:
                result = checked_run(model, store, plan, x)
                assert compare_runs(result.output, reference).bitwise_equal, (
                    f"seed {3000 + seed}, scheme {plan.scheme}"
                )
        assert {"convolutional", "maxpool", "connected"} <= kinds


def test_criterion_4_switch_accounting():
    with criterion(4, "layered canonical run performs exactly 22 context switches"):
        model = load_canonical_model()
        rng = np.random.default_rng(4)
        store = random_weight_store(model, rng)
        x = random_tensor(rng, model.input_dims)
        result = checked_run(model, store, plan_layered(model, CAP), x)
        assert result.ledger.context_switches == 22


def test_criterion_5_memory_discipline():
    with criterion(5, "7 MiB fits layered; tighter caps need sub-layer splitting"):
        model = load_canonical_model()
        rng = np.random.default_rng(5)
        store = random_weight_store(model, rng)
        x = random_tensor(rng, model.input_dims)
        reference = run_reference(model, store, x).output

        full = checked_run(model, store, plan_layered(model, CAP), x, cap=CAP)
        assert compare_runs(full.output, reference).bitwise_equal
        assert full.arena_peak <= CAP

        largest = max(plan_layered(model, CAP).partitions, key=lambda p: p.footprint_bytes)
        tight_cap = 100_000
        assert tight_cap < largest.footprint_bytes
        with pytest.raises(LayerTooLargeError):
            plan_layered(model, tight_cap)
        sub = plan_sublayer(model, tight_cap)
        result = checked_run(model, store, sub, x, cap=tight_cap)
        assert compare_runs(result.output, reference).bitwise_equal
        assert result.arena_peak <= tight_cap


def test_criterion_6_spill_redecryption_cost():
    with criterion(6, "1000 spilled activations over 4 subsets cost exactly 16000 extra bytes"):
        model = ModelSpec(
            [LayerSpec.connected(1000, "relu"), LayerSpec.connected(200, "linear")],
            (8, 1, 1),
        )
        rng = np.random.default_rng(6)
        store = random_weight_store(model, rng)
        x = random_tensor(rng, (8, 1, 1))
        reference = run_reference(model, store, x).output

        plan = plan_sublayer(model, CAP, subset_size={0: 1000, 1: 50})
        assert plan.sublayer[1].subset_count == 4
        resident = checked_run(model, store, plan, x)
        spilled = checked_run(model, store, plan.with_spill(1), x)
        assert compare_runs(spilled.output, reference).bitwise_equal
        assert compare_runs(resident.output, reference).bitwise_equal
        extra = spilled.ledger.decrypted_bytes - resident.ledger.decrypted_bytes
        assert extra == 4 * 4 * 1000


def test_criterion_7_confidentiality_taint_and_tamper():
    with criterion(7, "no plaintext windows in shared memory; any tampered bit aborts"):
        # taint checks run inline in criteria 3-6 via checked_run; repeat a
        # compact sweep here so this criterion stands alone
        for seed in (70, 71):
            model, store, x = random_case(seed)
            for plan in (
                plan_layered(model, CAP),
                plan_sublayer(model, CAP, subset_size=sublayer_thirds(model)),
                plan_branched(model, CAP),
            ):
                checked_run(model, store, plan, x)
        spill_model = ModelSpec(
            [LayerSpec.connected(1000, "relu"), LayerSpec.connected(200, "linear")],
            (8, 1, 1),
        )
        rng = np.random.default_rng(72)
        spill_store = random_weight_store(spill_model, rng)
        spill_x = random_tensor(rng, (8, 1, 1))
        spill_plan = plan_sublayer(spill_model, CAP, subset_size={0: 1000, 1: 50}).with_spill(1)
        checked_run(spill_model, spill_store, spill_plan, spill_x)

        # tampering any single ciphertext bit of any partition aborts the run
        model = load_canonical_model()
        store = random_weight_store(model, rng)
        x = random_tensor(rng, model.input_dims)
        plan = plan_layered(model, CAP)
        pristine = prepare_partition_data(store, plan, KEY)
        bit_rng = np.random.default_rng(73)
        for p in plan.partitions:
            data = dict(pristine)
            tampered = bytearray(data[p.id])
            _, plaintext_len = read_header(bytes(tampered))
            if plaintext_len:
                index = HEADER_BYTES + int(bit_rng.integers(plaintext_len))
            else:  # weightless layer: container is header+MAC only
                index = len(tampered) - MAC_BYTES + int(bit_rng.integers(MAC_BYTES))
            tampered[index] ^= 1 << int(bit_rng.integers(8))
            data[p.id] = bytes(tampered)
            with pytest.raises(IntegrityError):
                run_partitioned(model, data, plan, x, SecureArena(CAP), KEY)


def test_criterion_8_reduction_property():
    with criterion(8, "sub-layer plans with full-size subsets equal layered plans, 50 models"):
        for seed in range(50):
            model, _, _ = random_case(8000 + seed)
            layered = plan_layered(model, CAP)
            degenerate = plan_sublayer(
                model, CAP,
                subset_size={i: model.units(i) for i in range(len(model.layers))
                             if model.is_parameterized(i)},
            )
            assert degenerate.partitions == layered.partitions, f"seed {8000 + seed}"
