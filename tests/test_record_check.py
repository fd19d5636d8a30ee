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


def test_record_lines_cut_wall_time_and_keep_line_endings():
    csv_bytes = b"x,wall_time\r\n1.5,0.25\r\n"
    assert record_check.record_lines(csv_bytes, "csv") == [b"x\r\n", b"1.5\r\n"]
    jsonl_bytes = b'{"x": 1.5, "wall_time": 0.25}\n'
    assert record_check.record_lines(jsonl_bytes, "jsonl") == [b'{"x": 1.5\n']
    # wall_time alone differs: the lines agree
    assert record_check.line_difference(
        record_check.record_lines(csv_bytes, "csv"),
        record_check.record_lines(b"x,wall_time\r\n1.5,0.75\r\n", "csv"),
    ) is None


def test_raw_lines_show_what_parsed_records_hide():
    # every field quoted, or lines ended by LF: csv.DictReader reads the same
    # records, and the raw lines differ at their first changed line
    old = b"x,s,wall_time\r\n1.5,a,0.25\r\n2.5,b,0.5\r\n"
    for new, number in (
        (b'"x","s","wall_time"\r\n"1.5","a","0.25"\r\n"2.5","b","0.5"\r\n', 1),
        (b"x,s,wall_time\r\n1.5,a,0.25\n2.5,b,0.5\n", 2),
        (b"x,s,wall_time\r\n1.5,a,0.25\r\n", 3),
    ):
        records = [list(csv.DictReader(io.StringIO(data.decode(), newline=""))) for data in (old, new)]
        if number < 3:
            assert record_check.record_differences(*records) == {}
        diff = record_check.line_difference(
            record_check.record_lines(old, "csv"), record_check.record_lines(new, "csv")
        )
        assert diff is not None and diff.startswith(f"line {number}: ")
