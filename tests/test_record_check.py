"""The record comparison of tools/record_check.py: values, their JSON types
and the key order of each record."""

import csv
import importlib.util
import io
import json
import math
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "record_check", Path(__file__).resolve().parents[1] / "tools" / "record_check.py"
)
record_check = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_check)


def jsonl(*lines):
    return [json.loads(line) for line in lines]


def test_identical_records_do_not_differ():
    recs = jsonl('{"x": 1, "y": true, "z": 0.5, "e": ""}', '{"x": 2, "y": null, "z": NaN}')
    assert record_check.record_differences(recs, jsonl(*map(json.dumps, recs))) == {}


def test_swapped_columns_differ_in_both_formats():
    old = jsonl('{"x": 1, "y": 2}')
    diffs = record_check.record_differences(old, jsonl('{"y": 2, "x": 1}'))
    assert list(diffs) == ["<key order>"] and math.isnan(diffs["<key order>"])
    old, new = (list(csv.DictReader(io.StringIO(text))) for text in ("x,y\n1,2\n", "y,x\n2,1\n"))
    assert list(record_check.record_differences(old, new)) == ["<key order>"]


def test_json_types_differ():
    old = jsonl('{"flag": true, "count": 1, "value": 1.0}')
    for new, column in (
        ('{"flag": 1, "count": 1, "value": 1.0}', "flag"),
        ('{"flag": true, "count": 1.0, "value": 1.0}', "count"),
        ('{"flag": true, "count": 1, "value": 1}', "value"),
    ):
        diffs = record_check.record_differences(old, jsonl(new))
        assert list(diffs) == [column] and math.isnan(diffs[column])


def test_numeric_difference_and_record_count():
    diffs = record_check.record_differences(jsonl('{"z": 0.5}'), jsonl('{"z": 0.75}'))
    assert diffs == {"z": 0.25}
    diffs = record_check.record_differences(jsonl('{"z": 0.5}'), [])
    assert list(diffs) == ["<record count>"] and math.isnan(diffs["<record count>"])
