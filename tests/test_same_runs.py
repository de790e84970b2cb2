"""``tools/same_runs.py`` dumps what a tree's library does on the benchmark's
workloads; the working tree, dumped twice in two processes, is the same."""

import copy
from pathlib import Path

from support import load_module

ROOT = Path(__file__).resolve().parents[1]


def test_the_working_tree_runs_every_workload_the_same_twice():
    tool = load_module(ROOT / "tools" / "same_runs.py", "tools_same_runs")
    workloads = load_module(ROOT / "perfbench" / "workloads.py", "perfbench_workloads")
    first, second = (tool.dump_tree(ROOT / "src") for _ in range(2))
    assert sorted(first) == sorted(workloads.WORKLOADS)
    for dump in first.values():
        assert dump["manifest"][0].startswith("scheme ")
        assert len(dump["inferences"]) == workloads.POOL_SIZE
        assert all(run["partitions"] and run["writes"] for run in dump["inferences"])
        assert dump["planted"] and None not in dump["planted"]
        assert dump["replanted"] == dump["planted"]
        assert len(dump["warm_planted"]) == len(dump["planted"])
        assert None not in dump["warm_planted"]
    assert tool.first_difference(first, second) is None
    assert first == second

    changed = copy.deepcopy(second)
    changed["branched"]["inferences"][3]["writes"][1][1] += 4
    found = tool.first_difference(first, changed)
    assert found.startswith(".branched.inferences[3].writes[1][1]: ")

    # the same output bytes under other dims are a difference
    for dump in first.values():
        (dims,) = {tuple(run["output_dims"]) for run in dump["inferences"]}
        assert dims and min(dims) > 0
    reshaped = copy.deepcopy(second)
    reshaped["lenet-layered"]["inferences"][0]["output_dims"].insert(0, 1)
    found = tool.first_difference(first, reshaped)
    assert found.startswith(".lenet-layered.inferences[0].output_dims[0]: ")

    # each workload's plans at every cap and scheme: a manifest or a planner refusal
    refusals = ("PlanError: ", "PlanInfeasibleError: ", "LayerTooLargeError: ")
    for dump in first.values():
        assert len(dump["plans"]) == 3 * tool.PLAN_CAPS == 363
        for entry in dump["plans"].values():
            assert entry[0].startswith("scheme ") if isinstance(entry, list) else entry.startswith(refusals)
    replanned = copy.deepcopy(second)
    replanned["spill-stream"]["plans"]["plan_sublayer 65536"][-1] += "0"
    found = tool.first_difference(first, replanned)
    assert found.startswith(".spill-stream.plans.plan_sublayer 65536[")

    # one verdict per field of each workload: the changed fields alone differ
    fields = ["manifest", "inferences", "tampered", "planted", "replanted", "warm_planted", "plans"]
    assert [where for where, _ in tool.verdicts(first, second)] == [
        f"{name}.{field}" for name in first for field in fields
    ]
    assert all(found is None for _, found in tool.verdicts(first, second))
    replanned["branched"]["manifest"][1] += " layout rows"
    replanned["branched"]["planted"][0] = None
    differ = {where: found for where, found in tool.verdicts(first, replanned) if found}
    assert sorted(differ) == ["branched.manifest", "branched.planted", "spill-stream.plans"]
    assert differ["branched.manifest"].startswith(".branched.manifest[1]: ")
    assert differ["branched.planted"].endswith(" vs None")
