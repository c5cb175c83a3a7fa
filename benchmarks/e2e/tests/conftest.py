"""Self-tests of the benchmark harness (not part of tier-1):

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(os.path.dirname(BENCH_DIR))
for path in (BENCH_DIR, os.path.join(REPO_ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
