"""Set-up as a user pays it, in a fresh interpreter.

Imports effectgov and loads the benchmark policy, the standard handler
registry and the seeded world, then prints the split as one JSON object.
run.py starts this script several times and times each start to exit.

Usage: python3 setup_probe.py POLICY_JSON
"""

import json
import sys
from time import perf_counter


def main() -> None:
    start = perf_counter()
    import numpy  # noqa: F401  (effectgov imports it; timed on its own)

    numpy_done = perf_counter()
    import effectgov

    effectgov_done = perf_counter()
    with open(sys.argv[1], "rb") as handle:
        effectgov.load_policy(handle.read())
    policy_done = perf_counter()
    effectgov.standard_registry()
    effectgov.seeded_world()
    done = perf_counter()
    print(json.dumps({
        "effectgov_file": effectgov.__file__,
        "import_numpy_ms": (numpy_done - start) * 1e3,
        "import_effectgov_ms": (effectgov_done - numpy_done) * 1e3,
        "load_policy_ms": (policy_done - effectgov_done) * 1e3,
        "registry_world_ms": (done - policy_done) * 1e3,
    }))


if __name__ == "__main__":
    main()
