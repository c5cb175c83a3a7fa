"""``BENCHMARK.json`` at the repo root is the single list of workloads,
metrics, units, directions and bounds; nothing here repeats it."""

from __future__ import annotations

import json
import os

SPEC_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "..",
    "BENCHMARK.json")


def load_spec(path: str = SPEC_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)
