"""Set-up cost in a fresh interpreter: import mixpois, build the CLI parser and
parse the given rate and service specifications.  Prints the seconds taken.
With --reference it times only ``import numpy``, the loader work that
set-up times are scaled by (see speed.py).

Usage:
    python3 bench/setup_probe.py SRC_DIR '{"rates": [...], "services": [...]}'
    python3 bench/setup_probe.py --reference
"""

import json
import sys
import time

if sys.argv[1:] == ["--reference"]:
    start = time.perf_counter()
    import numpy  # noqa: E402, F401

    print(repr(time.perf_counter() - start))
    sys.exit()

src, specs = sys.argv[1], json.loads(sys.argv[2])
sys.path.insert(0, src)
start = time.perf_counter()

import mixpois  # noqa: E402
from mixpois import cli, queue, rates  # noqa: E402

cli.build_parser()
for spec in specs["rates"]:
    rates.parse_rate(spec)
for spec in specs["services"]:
    queue.parse_service(spec)
elapsed = time.perf_counter() - start
if not mixpois.__file__.startswith(src):
    sys.exit(f"imported mixpois from {mixpois.__file__}, not from {src}")
print(repr(elapsed))
