"""Set-up child of run.py: import zetalab and warm one workload's cache.

    python3 perfbench/warm.py <workload> <seed> <cache-dir>

run.py times this whole process, imports included, as one set-up.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

harness.pin_threads()
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    name, seed, cache = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workload = WORKLOADS[name]
    workload.warm(workload.draw(seed), cache)
