"""numpy is imported only by a batched combination sweep.

Each check runs in a fresh interpreter, because ``sys.modules`` of the
test process already holds whatever earlier tests imported.  Importing
the CLI and answering a textual conjunctive query must leave numpy
unloaded; a singular CNF sweep of at least ``VEC_MIN_COMBINATIONS``
ranks loads it (when it is installed) and answers exactly as the
``REPRO_NO_NUMPY=1`` serial run does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_isolated(script: str, no_numpy: bool = False) -> dict:
    """Run ``script`` in a fresh interpreter; it prints one JSON object."""
    env = dict(os.environ)
    env.pop("REPRO_NO_NUMPY", None)
    if no_numpy:
        env["REPRO_NO_NUMPY"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *filter(None, [env.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    return json.loads(result.stdout)


CLI_IMPORT = """
import json, sys
import repro.cli
print(json.dumps({"numpy": "numpy" in sys.modules}))
"""

CONJUNCTIVE_DETECT = """
import json, sys
from repro.detection import detect
from repro.predicates.parser import parse_predicate
from repro.trace import BoolVar, random_computation

comp = random_computation(4, 8, 0.4, seed=5, variables=[BoolVar("x")])
result = detect(comp, parse_predicate("x@0 & x@1 & x@2", num_processes=4))
print(json.dumps({"numpy": "numpy" in sys.modules,
                  "algorithm": result.algorithm}))
"""

# Four clauses over three processes each: 3**4 = 81 process-choice
# combinations, above the batched sweep's threshold.
SINGULAR_SWEEP = """
import json, sys
from repro.detection.singular_cnf import detect_singular
from repro.detection.work_optimal import VEC_MIN_COMBINATIONS
from repro.predicates.parser import parse_predicate
from repro.trace import BoolVar, grouped_computation

text = " & ".join(
    "(" + " | ".join(f"x@{3 * g + k}" for k in range(3)) + ")"
    for g in range(4)
)
found = []
for seed in range(6):
    comp = grouped_computation(
        4, 3, 6, seed=seed, variables=[BoolVar("x", density=0.1)]
    )
    result = detect_singular(
        comp, parse_predicate(text, num_processes=12),
        strategy="process-choice",
    )
    assert result.stats["combinations"] >= VEC_MIN_COMBINATIONS
    found.append([
        result.holds,
        list(result.witness.frontier) if result.witness else None,
    ])
print(json.dumps({"numpy": "numpy" in sys.modules, "found": found}))
"""


def test_cli_import_leaves_numpy_out():
    assert run_isolated(CLI_IMPORT) == {"numpy": False}


def test_textual_conjunctive_detect_leaves_numpy_out():
    out = run_isolated(CONJUNCTIVE_DETECT)
    assert out == {"numpy": False, "algorithm": "cpdhb"}


@pytest.mark.skipif(find_spec("numpy") is None, reason="numpy not installed")
def test_singular_sweep_loads_numpy_and_matches_serial_run():
    batched = run_isolated(SINGULAR_SWEEP)
    serial = run_isolated(SINGULAR_SWEEP, no_numpy=True)
    assert batched["numpy"] is True
    assert serial["numpy"] is False
    assert batched["found"] == serial["found"]
    # Both verdicts occur, so the witness comparison is not vacuous.
    assert {holds for holds, _ in batched["found"]} == {True, False}
