"""Acceptance battery: every criterion runs at its stated tolerance and
prints one PASS/FAIL line (run pytest with -s to see them live)."""

from pathlib import Path

import pytest

from cayleyiso import acceptance
from cayleyiso.cli import main


GOLDEN_REPORT = Path(__file__).parent / "data" / "suite_report.txt"


@pytest.fixture(scope="module")
def battery():
    return acceptance.run_battery(threads=1)


@pytest.fixture(scope="module")
def suites(battery):
    """``run_suite`` for thread counts 1 and 8: ((text, passed), (text, passed))."""
    return acceptance.run_suite(threads=1), acceptance.run_suite(threads=8)


def _report(result):
    line = f"[{result.index:2d}] {'PASS' if result.passed else 'FAIL'} {result.name}"
    print(line)
    for detail in result.details:
        print(f"      - {detail}")
    return result.passed


def test_criterion_01_growth_exactness(battery):
    result = battery[0]
    assert _report(result)
    assert result.elapsed < 10.0, f"criterion 1 took {result.elapsed:.1f}s, budget 10s"


def test_criterion_02_sphere_ball_bounds(battery):
    assert _report(battery[1])


def test_criterion_03_counting_identity(battery):
    assert _report(battery[2])


def test_criterion_04_transport_and_fiber_bounds(battery):
    assert _report(battery[3])


def test_criterion_05_inequality_battery(battery):
    result = battery[4]
    assert _report(result)
    assert result.elapsed < 300.0, f"criterion 5 took {result.elapsed:.1f}s, budget 5min"


def test_criterion_06_folner_exactness(battery):
    assert _report(battery[5])


def test_criterion_07_conversions_both_directions(battery):
    assert _report(battery[6])


def test_criterion_08_certificates_and_quotient(battery):
    assert _report(battery[7])


def test_criterion_09_reduction_soundness(battery):
    assert _report(battery[8])


def test_criterion_10_suite_determinism(suites):
    (text_1, passed_1), (text_8, passed_8) = suites
    identical = text_1 == text_8
    print(f"[10] {'PASS' if identical and passed_1 == passed_8 else 'FAIL'} "
          "suite reports byte-identical for thread counts 1 and 8")
    assert identical
    assert passed_1 == passed_8
    assert "summary:" in text_1


def test_suite_report_matches_golden(suites):
    (text_1, _), _ = suites
    assert text_1 == GOLDEN_REPORT.read_text(encoding="utf-8")


def test_cli_suite_exit_code(battery, capsys):
    code = main(["suite", "--threads", "2"])
    out = capsys.readouterr().out
    assert "cayleyiso acceptance suite" in out
    assert out.count("PASS") == 10
    assert code == 0
