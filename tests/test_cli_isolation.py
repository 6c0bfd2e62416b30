"""A ``repro detect`` run imports no subsystem it does not use.

The CLI maps the lint, monitor, service and simulation error classes to
exit codes without importing those packages, and no detection path
imports ``multiprocessing``.  Each check runs in a fresh
interpreter, because ``sys.modules`` of the test process already holds
whatever earlier tests imported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.trace import BoolVar, dump_computation, random_computation

SRC = str(Path(__file__).resolve().parents[1] / "src")
SUBSYSTEMS = [
    "repro.analysis",
    "repro.monitor",
    "repro.service",
    "repro.simulation",
    "multiprocessing",
]

DETECT = """
import contextlib, io, json, sys
from repro.cli import main

out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main(["--no-runs-ledger", "detect", sys.argv[1], sys.argv[2]])
print(json.dumps({
    "code": code,
    "stderr": err.getvalue(),
    "loaded": sorted(m for m in sys.argv[3:] if m in sys.modules),
}))
"""


def run_detect(trace: str, predicate: str = "x@0 & x@1") -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *filter(None, [env.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, "-c", DETECT, trace, predicate, *SUBSYSTEMS],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    return json.loads(result.stdout)


def test_detect_leaves_subsystems_out(tmp_path):
    trace = tmp_path / "t.json"
    comp = random_computation(3, 6, 0.4, seed=2, variables=[BoolVar("x")])
    dump_computation(comp, trace)
    out = run_detect(str(trace))
    assert out["code"] in (0, 1)
    assert out["loaded"] == []


@pytest.mark.parametrize(
    "predicate",
    ["(x@0 | x@1) & (x@1 | x@2)", "(x@0 | x@1) & (x@2 | !x@0)"],
)
def test_small_combination_sweep_loads_no_pool(tmp_path, predicate):
    # Non-singular CNFs: both run the literal-choice combination sweep.
    trace = tmp_path / "t.json"
    comp = random_computation(3, 6, 0.4, seed=2, variables=[BoolVar("x")])
    dump_computation(comp, trace)
    out = run_detect(str(trace), predicate)
    assert out["code"] in (0, 1)
    assert out["loaded"] == []


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"format": "repro-trace-v1", "processes": [[{"kind": "nope"}]]},
         "unknown event kind 'nope'"),
        ({"format": "repro-trace-v1",
          "processes": [[{"kind": "initial"}, {"kind": "internal"}]],
          "messages": [[[0, 1], [0, 9]]]},
         "message receive endpoint (0, 9) unknown"),
    ],
    ids=["shape-error", "semantic-error"],
)
def test_bad_trace_exits_three_without_subsystems(tmp_path, payload, message):
    trace = tmp_path / "bad.json"
    trace.write_text(json.dumps(payload))
    out = run_detect(str(trace))
    assert out["code"] == 3
    assert out["stderr"].startswith("repro: bad trace: ")
    assert message in out["stderr"]
    assert out["loaded"] == []
