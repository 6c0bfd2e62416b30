"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.computation import Computation, ComputationBuilder

# The experiment harness (benchmarks/report.py) and its workloads.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))


def pytest_configure(config):
    # The service tests carry timeout markers so a wedged queue or a
    # deadlocked drain fails fast instead of hanging the suite; the
    # marker is enforced by pytest-timeout (installed in CI) and is an
    # inert annotation when that plugin is absent locally.
    config.addinivalue_line(
        "markers",
        "timeout(seconds): fail the test after this many seconds "
        "(enforced when pytest-timeout is installed)",
    )


@pytest.fixture(autouse=True)
def _no_run_ledger(monkeypatch):
    """Keep test invocations of the CLI out of any real run ledger.

    Tests that exercise the ledger opt back in with an explicit
    ``--runs-ledger`` flag (the flag outranks the environment).
    """
    monkeypatch.setenv("REPRO_RUNS", "off")


@pytest.fixture
def figure2() -> Computation:
    """The paper's Figure 2: four processes, one message, labelled events.

    Process 0 has internal event ``e``; process 1 sends at ``f``; process 2
    receives at ``g``; process 3 has internal event ``h``.  Each event makes
    its process's boolean ``x`` true (the encircled "true events").
    """
    builder = ComputationBuilder(4)
    for p in range(4):
        builder.init_values(p, x=False)
    builder.internal(0, label="e", x=True)
    builder.send(1, label="f", x=True)
    builder.receive(2, label="g", x=True)
    builder.internal(3, label="h", x=True)
    builder.message("f", "g")
    return builder.build()


@pytest.fixture
def two_chain() -> Computation:
    """Two processes, three events each, one cross message."""
    builder = ComputationBuilder(2)
    builder.init_values(0, x=False, v=0)
    builder.init_values(1, x=False, v=0)
    builder.internal(0, x=True, v=1)
    builder.send(0, x=False, v=2)
    builder.internal(0, x=True, v=1)
    builder.internal(1, x=True, v=1)
    builder.receive(1, x=False, v=0)
    builder.internal(1, x=True, v=1)
    builder.message((0, 2), (1, 2))
    return builder.build()


@pytest.fixture
def diamond() -> Computation:
    """Three processes where 0 fans out to 1 and 2 which join at 0 again."""
    builder = ComputationBuilder(3)
    for p in range(3):
        builder.init_values(p, x=False)
    builder.send(0, x=True)
    builder.receive(1, x=True)
    builder.send(1, x=False)
    builder.receive(2, x=True)
    builder.send(2, x=False)
    builder.receive(0, x=False)
    builder.receive(0, x=True)
    builder.message((0, 1), (1, 1))
    builder.message((0, 1), (2, 1))
    builder.message((1, 2), (0, 2))
    builder.message((2, 2), (0, 3))
    return builder.build()
