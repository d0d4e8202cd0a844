"""scripts/coverage_audit.py counts interval coverage of exact values over seeds."""

import importlib.util
import json
from pathlib import Path

from oracle import iid_expected_v

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("coverage_audit", ROOT / "scripts" / "coverage_audit.py")
coverage_audit = importlib.util.module_from_spec(spec)
spec.loader.exec_module(coverage_audit)


def test_closed_form_matches_the_oracle():
    # E M(60)^2 = 37 against enumeration is test_exact_laws' check
    for x in coverage_audit.IID_XS:
        assert coverage_audit.iid_expected_v(x) == iid_expected_v(x)


def test_report_shape_on_three_seeds(tmp_path, capsys):
    out = tmp_path / "coverage.json"
    assert coverage_audit.main(["--seeds", "3", "--samples", "64", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"level", "seeds", "samples", "n_boot", "checks", "seconds"}
    assert report["seeds"] == [1000, 1001, 1002] and report["samples"] == 64
    assert [c["name"] for c in report["checks"]] == ["iid E V(16)", "iid E V(64)", "rmf E M(60)^2"]
    assert report["checks"][0]["exact"] == 1.071044921875
    assert report["checks"][2]["exact"] == 37.0
    for check in report["checks"]:
        assert check["runs"] == 3 and 0 <= check["covered"] <= 3
        assert check["coverage"] == check["covered"] / 3
        lo, hi = check["coverage_interval"]
        assert 0.0 <= lo <= check["coverage"] <= hi <= 1.0
    assert capsys.readouterr().out.count("covered") == 3


def test_wilson_interval():
    # 186 of 200 runs: the interval excludes neither 0.9 nor 0.95
    lo, hi = coverage_audit.wilson_interval(186, 200)
    assert 0.88 < lo < 0.9 and 0.95 < hi < 0.96
    assert coverage_audit.wilson_interval(3, 3)[1] == 1.0
