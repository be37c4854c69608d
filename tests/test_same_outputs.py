"""tools/same_outputs.py's strict reading of JSON records, on canned
outputs, so no command is run."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)


def test_a_record_holding_infinity_is_not_strict_json():
    text = (b'{"c": Infinity, "purity": 4e-310}\n'
            b'{"method": "exact", "purity": 0.5}\n')
    found = same_outputs.non_strict_records(text)
    assert len(found) == 1
    assert "Infinity is not JSON" in found[0] and '"c": Infinity' in found[0]


def test_params_lines_and_malformed_records_are_read_too():
    text = (b'# params: {"g": NaN, "mu1": 0.3}\n'
            b'mu1,purity\n'
            b'0.3,-Infinity\n'          # a table row, not a record
            b'# params: {"g": 5.0}\n'
            b'{"purity": -Infinity}\n'
            b'{"purity": 0.5\n')
    found = same_outputs.non_strict_records(text)
    assert [f.split(" (")[0] for f in found] == ["not strict JSON"] * 3
    assert "NaN is not JSON" in found[0] and "-Infinity is not JSON" in found[1]


def test_a_non_strict_record_is_a_difference_even_on_both_sides():
    run = (0, b'{"c": Infinity}\n', b"", {"rec.json": b'{"g": NaN}\n', "t.csv": b"x\n1\n"})
    found = same_outputs.differences(run, run)
    assert [f.split(" not strict")[0] for f in found] == [
        "old stdout", "old file rec.json", "new stdout", "new file rec.json"]
    clean = (0, b'{"c": 2.0}\n', b"", {"t.csv": b'# params: {"g": 5.0}\nx\n1\n'})
    assert same_outputs.differences(clean, clean) == []
