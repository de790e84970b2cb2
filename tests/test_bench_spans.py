"""The traced benchmark run still reaches the library through its spans.

``perfbench/spans.py`` wraps library functions by name; a target that a
refactor renamed or stopped calling silently reads zero there. This test
loads the file as it is and checks that every span still records work.
"""

from pathlib import Path

import numpy as np

from cdlp.executor import prepare_partition_data, run_partitioned
from cdlp.model import LayerSpec, ModelSpec
from cdlp.nn import reference_forward
from cdlp.planner import plan_sublayer
from cdlp.tee import SecureArena

from support import load_module, random_tensor, random_weight_store

KEY = bytes.fromhex("0f0e0d0c0b0a09080706050403020100")
CAP = 7 * 2**20


def load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    return load_module(path, "perfbench_spans")


def test_every_span_target_resolves_and_records():
    spans = load_spans()
    model = ModelSpec(
        [
            LayerSpec.convolutional(2, 3, 1, 1, activation="relu"),
            LayerSpec.maxpool(2, 2),
            LayerSpec.connected(16, "relu"),
            LayerSpec.connected(4, "linear"),
        ],
        (1, 4, 4),
    )
    rng = np.random.default_rng(31)
    store = random_weight_store(model, rng)
    x = random_tensor(rng, model.input_dims)
    plan = plan_sublayer(model, CAP, subset_size={2: 16, 3: 2}).with_spill(3)
    data = prepare_partition_data(store, plan, KEY)

    tracer = spans.Tracer()
    tracer.install()
    try:
        result = run_partitioned(model, data, plan, x, SecureArena(CAP), KEY)
        reference = reference_forward(model, store, x)
    finally:
        tracer.uninstall()

    assert result.output.data.tobytes() == reference.data.tobytes()
    for span in spans.SPANS:
        assert set(span.targets) - set(tracer.absent), f"{span.name}: every target absent"
        assert tracer.calls[span.name] > 0, span.name
    assert tracer.uncounted == set()
    # one session per secure partition, and one container opened for each
    # partition's weights and for each spill chunk it streams back
    secure = len(plan.secure_partitions())
    assert tracer.calls["tee.invoke"] == secure
    spill_chunks = sum(t.spill_chunks_read for t in result.partitions)
    assert tracer.calls["tee.ledger_decrypt"] == secure + spill_chunks
