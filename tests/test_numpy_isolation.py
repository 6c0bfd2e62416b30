"""No query imports numpy, and none answers differently without it.

Each check runs in a fresh interpreter, because ``sys.modules`` of the
test process already holds whatever earlier tests imported.  Importing
the CLI, answering a textual conjunctive query and searching a singular
CNF's combinations must all leave numpy unloaded, and the search's
verdicts, witnesses and stats must equal those of a
``REPRO_NO_NUMPY=1`` run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

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
# combinations.
SINGULAR_SEARCH = """
import json, sys
from repro.detection.singular_cnf import detect_singular
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
    assert result.stats["combinations"] == 81
    found.append([
        result.holds,
        list(result.witness.frontier) if result.witness else None,
        result.stats,
    ])
print(json.dumps({"numpy": "numpy" in sys.modules, "found": found}))
"""


def test_cli_import_leaves_numpy_out():
    assert run_isolated(CLI_IMPORT) == {"numpy": False}


def test_textual_conjunctive_detect_leaves_numpy_out():
    out = run_isolated(CONJUNCTIVE_DETECT)
    assert out == {"numpy": False, "algorithm": "cpdhb"}


def test_singular_search_leaves_numpy_out_and_matches_no_numpy_run():
    plain = run_isolated(SINGULAR_SEARCH)
    opted_out = run_isolated(SINGULAR_SEARCH, no_numpy=True)
    assert plain["numpy"] is False and opted_out["numpy"] is False
    assert plain["found"] == opted_out["found"]
    # Both verdicts occur, so the witness comparison is not vacuous.
    assert {holds for holds, _, _ in plain["found"]} == {True, False}


# 4**8 = 65,536 process choices, none consistent: the parent's sweeps
# counted 2,752,512 advances with numpy and 1,048,576 without.
UNSATISFIABLE_PROCESS_CHOICE = f"""
import json, sys
sys.path.insert(0, {str(Path(__file__).resolve().parents[1] / "benchmarks")!r})
from workloads import chain_structured_group
from repro.detection import detect_by_process_choice

comp, pred = chain_structured_group(
    8, 4, chains_per_group=1, satisfiable=False
)
result = detect_by_process_choice(comp, pred)
print(json.dumps({{"holds": result.holds, "stats": result.stats}}))
"""


def test_process_choice_stats_do_not_depend_on_numpy():
    plain = run_isolated(UNSATISFIABLE_PROCESS_CHOICE)
    opted_out = run_isolated(UNSATISFIABLE_PROCESS_CHOICE, no_numpy=True)
    assert plain == opted_out
    assert plain["holds"] is False
    assert plain["stats"]["combinations"] == 4**8
