"""Acceptance battery: every criterion runs at its stated tolerance and
prints one PASS/FAIL line (run pytest with -s to see them live)."""

import threading
from pathlib import Path

import pytest

from cayleyiso import acceptance, folner
from cayleyiso.cli import main


GOLDEN_REPORT = Path(__file__).parent / "data" / "suite_report.txt"
CRITERION_10 = "suite reports byte-identical for thread counts 1 and 8"


@pytest.fixture(scope="module")
def battery():
    return acceptance.run_battery()


@pytest.fixture(scope="module")
def suite(tmp_path_factory, battery):
    """``cayleyiso suite`` run once: (exit code, report text), on the
    ``battery`` fixture's criteria 1..9; criterion 10 runs for real."""
    report = tmp_path_factory.mktemp("suite") / "report.txt"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(acceptance, "run_battery", lambda: battery)
        code = main(["suite", "--output", str(report)])
    return code, report.read_text(encoding="utf-8")


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


def test_criterion_10_suite_determinism(suite):
    _, text = suite
    line = next(row for row in text.splitlines() if row.startswith("[10]"))
    print(line)
    assert line == f"[10] PASS {CRITERION_10}"


def _lose_last_share(monkeypatch):
    """Make every forked scan lose its last worker's counts."""
    count_shares = folner._count_shares

    def lossy(count_share, tasks, workers):
        # the last worker's tasks come back as if they held no sets
        shares = count_shares(count_share, tasks, workers)
        shares[-1] = [0] * len(shares[-1])
        return shares

    monkeypatch.setattr(folner, "_count_shares", lossy)
    # tables scanned under the fault must not outlive this test
    monkeypatch.setattr(folner, "_scan_cache", {})


def test_criterion_10_fails_when_a_worker_share_is_lost(monkeypatch):
    _lose_last_share(monkeypatch)
    text = acceptance.render([acceptance._criterion_10()])
    assert f"[10] FAIL {CRITERION_10}\n" in text


def test_criterion_10_fails_beside_another_thread(monkeypatch):
    # the scan does not fork beside another thread, so the lossy shares are
    # never used; the criterion must still fail, as it compared nothing
    _lose_last_share(monkeypatch)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        text = acceptance.render([acceptance._criterion_10()])
    finally:
        release.set()
        other.join(60)
    assert not other.is_alive()
    assert f"[10] FAIL {CRITERION_10}\n" in text


def test_suite_report_matches_golden(suite):
    _, text = suite
    assert text == GOLDEN_REPORT.read_text(encoding="utf-8")


def test_cli_suite_exit_code(suite):
    code, text = suite
    assert "cayleyiso acceptance suite" in text
    assert text.count("PASS") == 10
    assert code == 0
