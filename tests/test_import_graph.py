"""The kernel's import graph: only simulate_monitor loads numpy.

Each check runs in a fresh interpreter, because this process has loaded
numpy already. The kernel's interpreter starts with -S: no site-packages
and no .pth hook, so numpy cannot be imported there at all, and nothing
loads importlib.resources before effectgov does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import effectgov

SRC = Path(__file__).resolve().parents[1] / "src"

KERNEL_SCRIPT = """
import json, sys
from pathlib import Path
import effectgov as eg
from effectgov.cli import main

scenario_path, manifest_path, out = sys.argv[1], sys.argv[2], Path(sys.argv[3])
scenario = eg.load_scenario(Path(scenario_path).read_bytes())
policy_path = Path(scenario_path).parent / scenario.policy_ref
policy = eg.load_policy(policy_path.read_bytes())
kernel = eg.GovernanceKernel(policy, eg.standard_registry(), eg.seeded_world())
eg.run(scenario.workflow, scenario.input, kernel, trust=scenario.trust)
imported = eg.import_chain(kernel.chain.export())
assert imported == kernel.chain and imported.verify().valid
assert eg.regions(eg.standard_registry().capabilities(), policy).ungoverned == {"web.browse"}
assert 0.63 < eg.gap_probability(0.99, 100) < 0.64
eg.bench_governed_vs_direct(iters=3, warmup=1)
chain = str(out / "chain.jsonl")
assert main(["run", "--scenario", scenario_path, "--out", chain]) == 0
assert main(["verify", chain]) == 0
all_tools = str(policy_path.parent / "policy_all_tools.json")
assert main(["regions", "--capabilities", manifest_path, "--policy", all_tools]) == 0
assert main(["bench", "--iters", "3", "--warmup", "1", "--out", str(out / "bench.json")]) == 0
print(json.dumps(sorted({"numpy", "importlib.resources"} & sys.modules.keys())))
"""


def run_python(flags, script, *args, pythonpath):
    env = {**os.environ, "PYTHONPATH": pythonpath}
    done = subprocess.run(
        [sys.executable, *flags, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_the_kernel_and_the_cli_run_without_numpy(tmp_path):
    loaded = run_python(
        ["-S"], KERNEL_SCRIPT,
        str(effectgov.bundled_path("exfiltration_scenario.json")),
        str(effectgov.bundled_path("capability_manifest.json")),
        str(tmp_path),
        pythonpath=str(SRC),
    )
    assert json.loads(loaded) == []


def test_simulate_monitor_loads_numpy_on_its_first_call():
    script = (
        "import sys; from effectgov import simulate_monitor; "
        "before = 'numpy' in sys.modules; simulate_monitor(0.99, 100, 1000, 42); "
        "print(before, 'numpy' in sys.modules)"
    )
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    assert run_python([], script, pythonpath=pythonpath) == "False True"
