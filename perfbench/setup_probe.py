"""Time what every CLI invocation pays before its first control step.

Run in a fresh interpreter with the checkout's src/ on PYTHONPATH:

    python3 perfbench/setup_probe.py <bundled scenario name>

Prints one JSON object: the seconds spent importing safe_lsoc, the seconds
spent in load_scenario (which validates the file), and the path the package
was imported from.
"""

import json
import sys
import time

t0 = time.perf_counter()
import safe_lsoc  # noqa: E402

t1 = time.perf_counter()
name = sys.argv[1]
safe_lsoc.load_scenario(safe_lsoc.bundled_scenario_path(name), name=name)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "package": safe_lsoc.__file__}))
