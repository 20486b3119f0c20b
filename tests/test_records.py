"""The record-digest gate: every benchmark workload record, byte for byte apart from timing."""

import json

from record_digests import RECORDS, compute

SHOWN = 10  # changed entries named in a failure message


def _change(key, stored, found) -> str:
    """One line naming a changed entry: its key, its label, and its exit code stored and found.

    A direct exact-norm entry has no exit code; its pinned values changed."""
    exits = f"exit {stored['exit']} stored, {found['exit']} found" if "exit" in stored else "exact norm values"
    return f"  {key} ({stored['label']}): {exits}"


def test_workload_records_match_their_digests():
    expected = json.loads(RECORDS.read_text())
    actual = compute()
    missing, new = sorted(expected.keys() - actual.keys()), sorted(actual.keys() - expected.keys())
    assert not (missing or new), f"entries missing: {missing[:SHOWN]}; entries new: {new[:SHOWN]}"
    changed = sorted(k for k in expected if actual[k] != expected[k])
    lines = [_change(k, expected[k], actual[k]) for k in changed[:SHOWN]]
    assert not changed, f"{len(changed)} records changed, first {len(lines)}:\n" + "\n".join(lines)
