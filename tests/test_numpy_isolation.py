"""No query imports numpy.

The package imports numpy in one place, the body of
``CausalityIndex.matrix``, which only the benchmark harness reads; a
static check parses every module to keep it so.  The other checks run
in a fresh interpreter, because ``sys.modules`` of the test process
already holds whatever earlier tests imported: importing the CLI,
answering a textual conjunctive query and searching a singular CNF's
combinations must all leave numpy unloaded.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def numpy_imports(node: ast.AST, scope: tuple = ()):
    """Yield the dotted name of the class/def enclosing each numpy import
    under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            names = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            names = [child.module or ""]
        else:
            names = []
        if any(name.split(".")[0] == "numpy" for name in names):
            yield ".".join(scope)
        inner = scope
        if isinstance(
            child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            inner = scope + (child.name,)
        yield from numpy_imports(child, inner)


def test_only_numpy_import_is_in_causality_index_matrix():
    found = [
        (path.relative_to(SRC).as_posix(), where)
        for path in sorted(Path(SRC, "repro").rglob("*.py"))
        for where in numpy_imports(ast.parse(path.read_text()))
    ]
    assert found == [("repro/perf/causality.py", "CausalityIndex.matrix")]


def run_isolated(script: str) -> dict:
    """Run ``script`` in a fresh interpreter; it prints one JSON object."""
    env = dict(os.environ)
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


def test_singular_search_leaves_numpy_out():
    out = run_isolated(SINGULAR_SEARCH)
    assert out["numpy"] is False
    # Both verdicts occur, so the search ran to a witness and to a refutation.
    assert {holds for holds, _, _ in out["found"]} == {True, False}
