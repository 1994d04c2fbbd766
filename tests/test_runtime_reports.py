"""Golden runtime reports: ``repro elastic`` and ``repro unified`` replays.

The files under ``tests/data/runtime_reports/`` pin the CLI reports of every
scenario x policy (``--model multitask-clip --tasks 4 --gpus 16``) from before
elastic runs moved onto :class:`~repro.unified.UnifiedRunner`.  No reported
value may move:

* elastic text reports stay byte-identical,
* unified JSON reports stay byte-identical apart from the two elastic
  totals the one result type now carries (``migration_bytes`` and
  ``curve_reuse_rate``),
* every value of an elastic JSON report is unchanged; its per-event
  ``events`` list is now named ``cluster_events``, and the only new keys are
  the ones unified reports already had.
"""

import json
from pathlib import Path

import pytest

from repro.cli import ELASTIC_SCENARIOS, UNIFIED_SCENARIOS, main

GOLDEN = Path(__file__).parent / "data" / "runtime_reports"
COMMON = ["--model", "multitask-clip", "--tasks", "4", "--gpus", "16"]
POLICIES = ("immediate", "debounced", "threshold")
#: Top-level keys unified reports gained from the elastic result type.
ADDED_KEYS = {"migration_bytes", "curve_reuse_rate"}


def replay(capsys, command: str, scenario: str, policy: str, *extra: str) -> str:
    argv = [command, *COMMON, "--scenario", scenario, "--policy", policy, *extra]
    assert main(argv) == 0
    return capsys.readouterr().out


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def unified_keys() -> tuple[set[str], set[str]]:
    """Top-level and per-event keys of the unified golden reports."""
    document = json.loads(golden("unified-arrival-during-outage-threshold.json"))
    return set(document) | ADDED_KEYS, set(document["events"][0])


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("scenario", ELASTIC_SCENARIOS)
def test_elastic_reports_match_golden(capsys, scenario, policy):
    stem = f"elastic-{scenario}-{policy}"
    assert replay(capsys, "elastic", scenario, policy) == golden(f"{stem}.txt")

    expected = json.loads(golden(f"{stem}.json"))
    actual = json.loads(replay(capsys, "elastic", scenario, policy, "--json"))
    top_keys, event_keys = unified_keys()
    assert set(actual) <= set(expected) | top_keys
    for key, value in expected.items():
        if key != "events":
            assert actual[key] == value, key
    assert len(actual["events"]) == len(expected["events"])
    for old, new in zip(expected["events"], actual["events"]):
        renamed = {
            ("cluster_events" if key == "events" else key): value
            for key, value in old.items()
        }
        assert set(new) <= set(renamed) | event_keys
        for key, value in renamed.items():
            assert new[key] == value, key


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("scenario", UNIFIED_SCENARIOS)
def test_unified_reports_match_golden(capsys, scenario, policy):
    out = replay(capsys, "unified", scenario, policy, "--json")
    document = json.loads(out)
    assert ADDED_KEYS <= set(document)
    for key in ADDED_KEYS:
        del document[key]
    assert json.dumps(document, indent=2, sort_keys=True) + "\n" == golden(
        f"unified-{scenario}-{policy}.json"
    )
