"""No-bypass audit: the public surface offers no mutation path around issue."""

import inspect
import re
from pathlib import Path

import effectgov
from effectgov import bench as bench_module
from effectgov import provenance as provenance_module
from effectgov import simworld as simworld_module
from effectgov import GovernanceKernel, seeded_world


def public_names(module):
    return [name for name in vars(module) if not name.startswith("_") and name != "annotations"]


def test_simworld_module_exports_no_loose_mutators():
    # Handlers are module-private; the only public callables either build
    # fresh objects or read state.
    allowed_callables = {"SimWorld", "seeded_world", "standard_registry", "HandlerRegistry",
                         "Directive", "HandlerError"}
    for name in public_names(simworld_module):
        value = getattr(simworld_module, name)
        if callable(value):
            assert name in allowed_callables, f"unexpected public callable {name}"


def test_simworld_instance_surface_is_read_only():
    world = seeded_world()
    reference = world.snapshot_bytes()
    public_methods = [
        name for name, member in inspect.getmembers(type(world))
        if not name.startswith("_") and callable(member)
    ]
    assert set(public_methods) <= {"snapshot", "snapshot_bytes", "table", "table_names"}
    world.snapshot()
    world.snapshot_bytes()
    world.table_names()
    for name in world.table_names():
        world.table(name)
    _ = world.outbox, world.http_log, world.journal, world.mutation_count
    assert world.snapshot_bytes() == reference


def test_returned_views_do_not_alias_world_state():
    world = seeded_world()
    reference = world.snapshot_bytes()
    snapshot = world.snapshot()
    snapshot["outbox"].append(["intruder@example.test", "boo"])
    snapshot["tables"]["sensitive"].append({"id": "999"})
    rows = world.table("sensitive")
    rows[0]["secret"] = "overwritten"
    assert world.snapshot_bytes() == reference


def test_issue_is_the_kernels_only_way_in():
    # Everything else on the kernel is a read-only property.
    public_methods = [
        name for name, member in inspect.getmembers(GovernanceKernel)
        if not name.startswith("_") and callable(member)
    ]
    assert public_methods == ["issue"]


def test_bench_bypass_is_not_public():
    assert "_invoke_direct" not in public_names(bench_module)
    assert not hasattr(effectgov, "_invoke_direct")
    assert "_invoke_direct" not in effectgov.__all__


def test_package_exports_no_handlers_or_bypass():
    for name in effectgov.__all__:
        assert not name.startswith("_")
        value = getattr(effectgov, name)
        assert value is not None
    for forbidden in ("_send_email", "_query_table", "_fetch_url"):
        assert forbidden not in effectgov.__all__
        assert not hasattr(effectgov, forbidden)


DOCUMENTED_SURFACE = {
    # functions
    "bundled_data", "bundled_path", "load_policy", "load_scenario", "standard_registry",
    "seeded_world", "run", "seq", "emit", "step", "branch", "iterate", "regions", "decide",
    "import_chain", "gap_probability", "simulate_monitor", "layered_cost",
    "bench_governed_vs_direct",
    # types and constants
    "GovernanceKernel", "HandlerRegistry", "Chain", "Policy", "PolicyRule", "Phase",
    "TrustLevel", "Verdict", "DecisionReason", "ExecStatus", "EMPTY_POLICY",
    # errors
    "ChainFormatError", "ChainIntegrityError", "DirectiveError", "HandlerError",
    "PolicyError", "ScenarioError", "WorkflowError",
}


def test_package_exports_the_documented_surface():
    # The README, the acceptance suite and the benchmark need these names;
    # everything else is imported from its own module.
    assert set(effectgov.__all__) == DOCUMENTED_SURFACE
    assert len(effectgov.__all__) == len(DOCUMENTED_SURFACE)
    assert not hasattr(effectgov, "bench_context_message")


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_chain_class_offers_no_removal_or_reorder():
    banned = {"remove", "pop", "insert", "sort", "reverse", "clear", "extend",
              "__setitem__", "__delitem__"}
    assert not banned & set(dir(provenance_module.Chain))
