"""The record-digest gate: every benchmark workload record, byte for byte apart from timing."""

import json

from record_digests import RECORDS, compute


def test_workload_records_match_their_digests():
    expected = json.loads(RECORDS.read_text())
    actual = compute()
    assert actual.keys() == expected.keys()
    changed = sorted(k for k in expected if actual[k] != expected[k])
    assert not changed, f"{len(changed)} records changed, first: {changed[:5]}"
