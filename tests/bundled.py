"""Scenarios and payloads of the committed bundled suite, the one source of
the bodies, clouds and profiles the tests run on."""
import copy
import json
from pathlib import Path

SUITE_FILE = Path(__file__).resolve().parents[1] / "suites" / "bundled_suite.json"
_SCENARIOS = {s["id"]: s for s in json.loads(SUITE_FILE.read_text())["scenarios"]}


def scenario(sid: str) -> dict:
    """A deep copy of the bundled scenario sid."""
    return copy.deepcopy(_SCENARIOS[sid])


def payload(sid: str) -> dict:
    """A deep copy of the body, cloud or profile of the bundled scenario sid."""
    return scenario(sid)["payload"]
