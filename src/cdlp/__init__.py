"""CNN inference with encrypted weight partitions under a simulated TEE.

Proprietary weights live only in encrypted partition containers and a
capped secure-memory arena; execution follows one of three partitioning
schemes (layered, sub-layer, branched) and a cost ledger predicts the
confidentiality overhead.
"""

from .audit import LeakAudit, find_plaintext_leak
from .config import load_canonical_model, parse_config
from .container import aead, decrypt_partition, encrypt_partition
from .errors import (
    CdlpError,
    ConfigError,
    DimensionError,
    FormatError,
    IntegrityError,
    LayerTooLargeError,
    PlanError,
    PlanInfeasibleError,
    RangeError,
    SecureMemoryError,
)
from .executor import (
    CompareReport,
    PartitionTrace,
    RunResult,
    compare_runs,
    prepare_partition_data,
    run_partitioned,
    run_reference,
    spill_activations,
    stream_spilled,
)
from .model import (
    BranchTopology,
    LayerSpec,
    LayerWeights,
    ModelSpec,
    Tensor,
    WeightStore,
)
from .nn import (
    connected_forward_rows,
    conv_forward_subset,
    maxpool_forward,
    reference_forward,
    softmax_forward,
)
from .planner import (
    Partition,
    PartitionPlan,
    parse_manifest,
    plan_branched,
    plan_layered,
    plan_sublayer,
    render_manifest,
    validate_plan,
)
from .tee import (
    CostConstants,
    CostLedger,
    SecureArena,
    Session,
    SharedBuffer,
    TaintTag,
    estimate_overhead,
    ledger_decrypt,
    ledger_overhead,
)
from .weights import load_weights, serialize_weights, split_weights

__version__ = "0.1.0"
