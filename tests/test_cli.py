import argparse
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cayleyiso
from cayleyiso.balls import enumerate_ball
from cayleyiso.cli import build_parser, main
from cayleyiso.groups import make_group
from cayleyiso.isoperimetry import FORMS
from cayleyiso.transport import LEMMAS


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ growth

def test_growth_csv(capsys):
    code, out, _ = run(capsys, ["growth", "--group", "z:2", "--radius", "5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,b_r,s_r,length_sum_r,avg_len_num,avg_len_den"
    assert len(lines) == 7  # header + 6 data rows
    assert lines[6].split(",")[1] == "61"


def test_growth_json(capsys):
    code, out, _ = run(capsys, ["growth", "--group", "z:1", "--radius", "3",
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert [row["b"] for row in payload["rows"]] == [1, 3, 5, 7]


def test_growth_deterministic(capsys):
    _, out1, _ = run(capsys, ["growth", "--group", "lamplighter", "--radius", "3"])
    _, out2, _ = run(capsys, ["growth", "--group", "lamplighter", "--radius", "3"])
    assert out1 == out2


def test_growth_to_file(capsys, tmp_path):
    target = tmp_path / "growth.csv"
    code, out, _ = run(capsys, ["growth", "--group", "z:1", "--radius", "2",
                                "--output", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("r,b_r")


def test_memory_budget_flag(capsys):
    code, _, err = run(capsys, ["growth", "--group", "z:2", "--radius", "10",
                                "--memory-budget", "50"])
    assert code == 1
    assert "exceeded" in err


def test_memory_budget_reaches_folner_scan(capsys):
    code, out, err = run(capsys, ["folner", "--group", "lamplighter", "--n", "2",
                                  "--cap", "6", "--memory-budget", "10"])
    assert code == 1
    assert out == ""
    assert "error:" in err and "exceeded 10 elements" in err


def test_memory_budget_reaches_connected_certificate(capsys):
    # the rhs table is B(4) with 184 elements; the scan needs B(6) with 904
    code, out, err = run(capsys, ["certify", "--group", "lamplighter", "--c", "3/4",
                                  "--alpha", "3", "--scope", "connected:6",
                                  "--memory-budget", "500"])
    assert code == 1
    assert out == ""
    assert "error:" in err and "exceeded 500 elements at radius 6" in err


def test_memory_budget_reaches_quotient_scan(capsys):
    # B(6) fits; the Folner records need B(7) with 1928 elements
    code, out, err = run(capsys, ["quotient", "--group", "lamplighter", "--horizon", "6",
                                  "--cap", "7", "--memory-budget", "1000"])
    assert code == 1
    assert out == ""
    assert "error:" in err and "exceeded 1000 elements at radius 7" in err


def test_threads_only_on_suite(capsys):
    # no subcommand takes --threads; scans use the CPUs of the affinity mask
    for argv in (["growth", "--group", "z:1", "--radius", "2", "--threads", "2"],
                 ["suite", "--threads", "2"]):
        code, _, err = run(capsys, argv)
        assert code == 1
        assert "unrecognized arguments: --threads" in err


def test_memory_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("CAYLEYISO_MEMORY_BUDGET", "50")
    code, _, err = run(capsys, ["growth", "--group", "z:2", "--radius", "10"])
    assert code == 1
    assert "exceeded" in err


@pytest.mark.parametrize("value, message", [
    ("abc", "not an integer: 'abc'"),
    ("1.5", "not an integer: '1.5'"),
    ("0", "must be >= 1, got 0"),
])
def test_memory_budget_env_checked_as_the_flag_is(capsys, monkeypatch, value, message):
    argv = ["growth", "--group", "z:1", "--radius", "2"]
    code, out, err = run(capsys, argv + ["--memory-budget", value])
    assert (code, out) == (1, "")
    assert err.endswith(f"cayleyiso growth: error: argument --memory-budget: {message}\n")
    monkeypatch.setenv("CAYLEYISO_MEMORY_BUDGET", value)
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == f"cayleyiso growth: error: CAYLEYISO_MEMORY_BUDGET: {message}\n"


# ------------------------------------------------------------- phi and avg

def test_phi_value(capsys):
    code, out, _ = run(capsys, ["phi", "--group", "z:1", "--volume", "5"])
    assert code == 0
    assert out.strip() == "3"


def test_phi_rational_volume(capsys):
    code, out, _ = run(capsys, ["phi", "--group", "z:1", "--volume", "9/2",
                                "--format", "json"])
    assert code == 0
    assert json.loads(out)["phi"] == "2"


@pytest.mark.parametrize("command", ["phi", "check"])
def test_phi_and_check_take_no_radius(capsys, command):
    # both grow their table until it decides the growth inverse
    code, out, _ = run(capsys, [command, "--help"])
    assert code == 0
    assert "--radius" not in out
    argv = {"phi": ["phi", "--group", "z:1", "--volume", "100"],
            "check": ["check", "--group", "z:1", "--form", "pete-correia", "--omega", "0..9"]}
    code, out, err = run(capsys, argv[command] + ["--radius", "3"])
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --radius 3" in err


def test_avg_length(capsys):
    code, out, _ = run(capsys, ["avg-length", "--group", "z:1", "--r", "2"])
    assert code == 0
    assert out.strip() == "6/5"


# ---------------------------------------------------------------- boundary

def test_boundary_range(capsys):
    code, out, _ = run(capsys, ["boundary", "--group", "z:1", "--omega", "0..2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[:2] == ["0", "2"]
    assert lines[2] == "ratio,2/3"


def test_boundary_file(capsys, tmp_path):
    omega = tmp_path / "omega.txt"
    omega.write_text("0,0\n1,0\n0,1\n")
    code, out, _ = run(capsys, ["boundary", "--group", "z:2",
                                "--omega-file", str(omega), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["omega_size"] == 3
    assert payload["ratio"] == {"num": 1, "den": 1}


def test_boundary_file_not_utf8(capsys, tmp_path):
    omega = tmp_path / "omega.txt"
    omega.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, ["boundary", "--group", "z:2", "--omega-file", str(omega)])
    assert code == 1
    assert out == ""
    assert err.startswith("cayleyiso boundary: error: ")
    assert "not UTF-8" in err


def test_unreadable_omega_file_is_an_error_line(capsys, tmp_path):
    for path, reason in ((tmp_path / "missing", "No such file"), (tmp_path, "Is a directory")):
        code, out, err = run(capsys, ["boundary", "--group", "z:1", "--omega-file", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("cayleyiso boundary: error: [Errno ")
        assert reason in err


def test_boundary_range_rejected_off_line(capsys):
    code, _, err = run(capsys, ["boundary", "--group", "z:2", "--omega", "0..2"])
    assert code == 1
    assert "omega-file" in err


# -------------------------------------------------------------------- check

def test_check_pete_correia(capsys):
    code, out, _ = run(capsys, ["check", "--group", "z:1", "--form", "pete-correia",
                                "--omega", "0..9"])
    assert code == 0
    line = out.strip().splitlines()[1]
    assert line == "pete-correia,1/5,1/20,True,True,10"


def test_check_json(capsys):
    code, out, _ = run(capsys, ["check", "--group", "z:1", "--form", "avg-growth",
                                "--omega", "0..3", "--alpha", "1/2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True
    assert payload["params"] == {"alpha": "1/2"}


def test_check_requires_omega(capsys):
    code, _, err = run(capsys, ["check", "--group", "z:1", "--form", "pete-correia"])
    assert code == 1
    assert "subset" in err


@pytest.mark.parametrize("form", ["avg-growth", "growth-cor", "epsilon"])
def test_check_missing_parameter_is_usage_error(capsys, form):
    # no --radius, so the table size depends on the missing alpha or eps
    code, _, err = run(capsys, ["check", "--group", "z:1", "--form", form,
                                "--omega", "0..3"])
    assert code == 1
    assert "error:" in err
    assert "Traceback" not in err


def test_check_unknown_form(capsys):
    code, _, err = run(capsys, ["check", "--group", "z:1", "--form", "bogus",
                                "--omega", "0..2"])
    assert code == 1


# ---------------------------------------------------------------- transport

def test_transport_all(capsys):
    code, out, _ = run(capsys, ["transport", "--group", "z:1", "--omega", "0..1",
                                "--r", "1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["sum_rays"] == 2
    assert payload["sum_omega_g"] == 2
    names = {entry["which"] for entry in payload["lemma_results"]}
    assert {"transport", "counting", "fiber", "spheres", "balls"} <= names
    assert all(entry["holds"] for entry in payload["lemma_results"])


def test_transport_with_alpha(capsys):
    code, out, _ = run(capsys, ["transport", "--group", "z:1", "--omega", "0..2",
                                "--r", "3", "--alpha", "1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    results = {entry["which"]: entry for entry in payload["lemma_results"]}
    assert results["ray-lower"]["holds"] is True
    assert results["conclude"]["holds"] is True


def test_transport_precondition_reported_not_dropped(capsys):
    # alpha too large for the ledger radius: the alpha lemmas report the unmet
    # hypothesis instead of failing or vanishing, and the exit code stays 0
    code, out, _ = run(capsys, ["transport", "--group", "z:1", "--omega", "0..2",
                                "--r", "2", "--alpha", "5", "--format", "json"])
    assert code == 0
    results = {entry["which"]: entry for entry in json.loads(out)["lemma_results"]}
    assert results["ray-lower"]["holds"] == "precondition-unmet"
    assert results["conclude"]["holds"] == "precondition-unmet"
    assert results["counting"]["holds"] is True


def test_transport_past_the_old_ledger_caps(capsys):
    # |W| = 101 and r = 7 each fit the default element budget
    for omega, r, rays in (("0..100", "1", "2"), ("0..0", "7", "14")):
        code, out, _ = run(capsys, ["transport", "--group", "z:1", "--omega", omega,
                                    "--r", r, "--format", "json"])
        assert code == 0
        assert json.loads(out)["sum_rays"] == int(rays)


@pytest.mark.parametrize("via", ["flag", "env"])
def test_memory_budget_reaches_ledger(capsys, monkeypatch, via):
    # B(2) has 5 elements, so the table fits; the ledger has 10 * 5 = 50 pairs
    argv = ["transport", "--group", "z:1", "--omega", "0..9", "--r", "2"]

    def run_with(budget):
        if via == "flag":
            return run(capsys, argv + ["--memory-budget", budget])
        monkeypatch.setenv("CAYLEYISO_MEMORY_BUDGET", budget)
        return run(capsys, argv)

    code, out, err = run_with("49")
    assert (code, out) == (1, "")
    assert err == ("cayleyiso transport: error: the ledger has |W| |B(2)| = 10 * 5 = 50 "
                   "pairs, over the element budget of 49\n")
    code, _, err = run_with("50")
    assert (code, err) == (0, "")


def test_transport_radius_zero_with_alpha_is_usage_error(capsys):
    # the table still grows from radius 1, so a zero radius cannot stall it
    code, _, err = run(capsys, ["transport", "--group", "z:1", "--omega", "0..2",
                                "--r", "0", "--alpha", "1"])
    assert code == 1
    assert "error:" in err


# ------------------------------------------------------------------- folner

def test_folner_exact_csv(capsys):
    code, out, _ = run(capsys, ["folner", "--group", "z:1", "--n", "2", "--cap", "8"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value_or_bound,kind,witness_size,family_upper"
    assert lines[1] == "2,4,exact,4,4"


def test_folner_family_only(capsys):
    code, out, _ = run(capsys, ["folner", "--group", "z:2", "--n", "2",
                                "--family-only"])
    assert code == 0
    assert out.strip().splitlines()[1] == "2,49"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("family_only", [True, False])
def test_folner_family_bound_past_the_digit_limit(capsys, fmt, family_only):
    # the lamplighter bound m 2^m with m = 20000 has 6025 digits; the check
    # comes before the scan, which the default cap of 10 would start
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter prints integers of any length")
    argv = ["folner", "--group", "lamplighter", "--n", "10000", "--format", fmt]
    code, out, err = run(capsys, argv + ["--family-only"] * family_only)
    assert code == 1
    assert out == ""
    assert err == ("cayleyiso folner: error: the family upper bound for n=10000 has more "
                   f"than {sys.get_int_max_str_digits()} decimal digits, the interpreter's "
                   "limit for printing an integer (PYTHONINTMAXSTRDIGITS sets it)\n")


def test_folner_infinite_json(capsys):
    code, out, _ = run(capsys, ["folner", "--group", "free:2", "--n", "3",
                                "--cap", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "infinite"
    assert payload["value_or_bound"] == "infinite"


# ------------------------------------------------------------------ convert

def test_convert_both_directions(capsys):
    code, out, _ = run(capsys, ["convert", "--direction", "csc-to-folner",
                                "--c", "1/2", "--alpha", "1", "--rho", "1"])
    assert code == 0
    assert json.loads(out)["output"] == {"c": "1/2", "alpha": "1", "rho": "1"}
    code, out, _ = run(capsys, ["convert", "--direction", "folner-to-csc",
                                "--c", "1", "--alpha", "0", "--rho", "0",
                                "--s-size", "2"])
    assert code == 0
    assert json.loads(out)["output"] == {"c": "1", "alpha": "1"}


def test_convert_missing_params(capsys):
    code, _, err = run(capsys, ["convert", "--direction", "csc-to-folner",
                                "--c", "1", "--alpha", "0"])
    assert code == 1
    assert "rho" in err


# ------------------------------------------------------------------ certify

def test_certify_falsified_exit_2(capsys):
    code, out, err = run(capsys, ["certify", "--group", "z:1", "--c", "3",
                                  "--alpha", "0", "--scope", "b2", "--format", "json"])
    assert code == 2
    assert json.loads(out)["holds"] is False
    assert "witness" in err


def test_certify_holds(capsys):
    code, out, _ = run(capsys, ["certify", "--group", "z:1", "--c", "3/4",
                                "--alpha", "3", "--scope", "connected:6",
                                "--format", "json"])
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_certify_bad_scope(capsys):
    code, _, err = run(capsys, ["certify", "--group", "z:1", "--c", "1",
                                "--alpha", "0", "--scope", "everything"])
    assert code == 1


# ----------------------------------------------------------------- quotient

def test_quotient_not_applicable(capsys):
    code, _, err = run(capsys, ["quotient", "--group", "z:1", "--horizon", "8",
                                "--cap", "4"])
    assert code == 1
    assert "evidence" in err


def test_quotient_free_group(capsys):
    code, out, _ = run(capsys, ["quotient", "--group", "free:2", "--horizon", "6",
                                "--cap", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["numerator_lower"] == "infinite"
    assert payload["certified_interval"] is None


@pytest.mark.parametrize("horizon", [4, 5])
def test_quotient_no_evidence_below_horizon_6(capsys, horizon):
    # heis grows polynomially; its late/mid ratio at horizons 4 and 5 (0.731,
    # 0.733) is above the 7/10 threshold, so no horizon below 6 is evidence
    code, out, err = run(capsys, ["quotient", "--group", "heis", "--horizon", str(horizon),
                                  "--cap", "5"])
    assert (code, out) == (1, "")
    assert err == ("cayleyiso quotient: error: no exponential-growth evidence for heis "
                   f"at horizon {horizon}\n")


# -------------------------------------------------------------------- usage

def test_unknown_flag_exit_1(capsys):
    code, _, err = run(capsys, ["growth", "--group", "z:1", "--radius", "2",
                                "--frobnicate"])
    assert code == 1
    # convert and quotient print JSON only, so they take no --format
    for argv in (["convert", "--direction", "csc-to-folner", "--c", "1", "--alpha", "1",
                  "--rho", "1"],
                 ["quotient", "--group", "free:2", "--horizon", "3", "--cap", "2"]):
        code, out, err = run(capsys, argv + ["--format", "csv"])
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --format csv" in err


@pytest.mark.parametrize("argv, extra", [
    (["phi", "--group", "z:1", "--volume", "5"], ["--radius", "3"]),
    (["growth", "--group", "z:1", "--radius", "2"], ["stray"]),
    (["suite"], ["--threads", "2"]),
], ids=["phi", "growth", "suite"])
def test_unknown_option_reported_by_its_subcommand(capsys, argv, extra):
    # the subcommand's usage, not the top-level list of subcommands
    code, out, err = run(capsys, argv + extra)
    assert (code, out) == (1, "")
    assert err.startswith(f"usage: cayleyiso {argv[0]} [-h]")
    assert err.endswith(f"cayleyiso {argv[0]}: error: unrecognized arguments: "
                        f"{' '.join(extra)}\n")


@pytest.mark.parametrize("argv, prog", [
    (["--frobnicate", "growth", "--group", "z:1", "--radius", "2"], "cayleyiso"),
    (["growth", "--group", "z:1", "--frobnicate", "--radius", "2"], "cayleyiso growth"),
], ids=["before-subcommand", "after-subcommand"])
def test_unknown_option_reported_by_the_parser_at_its_place(capsys, argv, prog):
    # the top level's usage before the subcommand's name, the subcommand's after it
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"usage: {prog} [-h]")
    assert err.endswith(f"{prog}: error: unrecognized arguments: --frobnicate\n")


@pytest.mark.parametrize("argv", [
    ["growth", "--group", "z:1", "--radius", "2", "--memory-budget"],
    ["folner", "--group", "z:1", "--n"],
    ["folner", "--group", "z:1", "--n", "2", "--cap"],
    ["quotient", "--group", "free:2", "--horizon"],
    ["convert", "--direction", "folner-to-csc", "--c", "1", "--alpha", "0", "--rho", "0",
     "--s-size"],
], ids=lambda argv: argv[-1].lstrip("-"))
def test_positive_int_options_name_no_python_function(capsys, argv):
    code, out, err = run(capsys, argv + ["x"])
    assert (code, out) == (1, "")
    assert err.endswith(f"error: argument {argv[-1]}: not an integer: 'x'\n")
    assert "_positive_int" not in err
    code, _, err = run(capsys, argv + ["0"])
    assert code == 1
    assert err.endswith(f"error: argument {argv[-1]}: must be >= 1, got 0\n")


def test_unknown_subcommand_exit_1(capsys):
    code, _, _ = run(capsys, ["dance"])
    assert code == 1


def test_bad_rational_exit_1(capsys):
    code, _, _ = run(capsys, ["phi", "--group", "z:1", "--volume", "half"])
    assert code == 1
    code, _, _ = run(capsys, ["phi", "--group", "z:1", "--volume", "1/0"])
    assert code == 1


def test_decimal_rational_parsed_exactly(capsys):
    # decimal strings are exact rationals too: 0.5 is 1/2, so phi(9/2) = 2
    code, out, _ = run(capsys, ["phi", "--group", "z:1", "--volume", "4.5"])
    assert code == 0
    assert out.strip() == "2"


# ------------------------------------------------------------------ imports

@pytest.mark.parametrize("module", ["cayleyiso", "cayleyiso.cli"])
def test_import_loads_no_dataclasses_inspect_or_battery(module):
    # every command starts a fresh interpreter and pays for what the import
    # loads; -S keeps the imports of site-packages' .pth files out of it
    src = Path(cayleyiso.__file__).resolve().parents[1]
    script = (f"import sys, {module}; print([name for name in "
              "('dataclasses', 'inspect', 'cayleyiso.acceptance') if name in sys.modules])")
    result = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                            text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert result.stdout == "[]\n"


# ------------------------------------------------------- exit-code fuzzing

_FUZZED = ("growth", "phi", "avg-length", "boundary", "check", "transport", "convert",
           "certify")

_DESCRIPTORS = ("z:1", "z:2", "z:3", "free:1", "free:2", "free:3", "dinf", "heis",
                "lamplighter")
_JUNK = st.sampled_from(["", "x", "--", "1/0", "nan", "inf", "1e", "1/2/3", "0x10"])
_SMALL_INTS = st.integers(-3, 6).map(str)


def _mostly(valid, bad=_JUNK):
    """``valid`` four times in five, else ``bad``, so that most runs get past
    parsing to the library."""
    return st.integers(0, 4).flatmap(lambda i: bad if i == 0 else valid)


def _rationals(top):
    return _mostly(st.one_of(
        st.integers(-3, top).map(str),
        st.builds("{}/{}".format, st.integers(-3, 6), st.integers(-2, 6)),
        st.sampled_from(["0.5", "-1.25", "2.0"]),
    ))


@pytest.fixture(scope="module")
def omega_files(tmp_path_factory):
    """Paths of subset files: one of valid keys per built-in group, each
    wrong-group for the others, plus malformed, duplicate, empty, non-UTF-8,
    missing and directory paths."""
    root = tmp_path_factory.mktemp("omega")
    contents = {"empty": "", "blank": "\n  \n", "malformed": "1,2,3\nx;\n",
                "duplicate": "0\n0\n1\n"}
    for desc in _DESCRIPTORS:
        group = make_group(desc)
        contents[desc] = "".join(group.format_element(x) + "\n"
                                 for x in enumerate_ball(group, 1).elements[:4])
    paths = []
    for name, text in contents.items():
        path = root / name.replace(":", "_")
        path.write_text(text)
        paths.append(str(path))
    (root / "binary").write_bytes(b"\xff\xfe")
    return paths + [str(root / "binary"), str(root / "missing"), str(root)]


def _values(omega_files):
    """A value strategy per option of the fuzzed subcommands."""
    return {
        "--group": _mostly(st.sampled_from(_DESCRIPTORS), st.sampled_from(
            ["z:0", "z:-1", "z:x", "free:", "heis:2", "bogus", "Z:1", ""])),
        "--format": _mostly(st.sampled_from(["csv", "json"])),
        "--memory-budget": _mostly(st.integers(-3, 10**5).map(str)),
        "--omega": _mostly(st.builds("{}..{}".format, _SMALL_INTS, _SMALL_INTS)),
        "--omega-file": st.sampled_from(omega_files),
        "--radius": _mostly(_SMALL_INTS),
        "--r": _mostly(_SMALL_INTS),
        "--volume": _rationals(10**4),
        "--form": _mostly(st.sampled_from(FORMS)),
        "--alpha": _rationals(6),
        "--eps": _rationals(6),
        "--lemma": _mostly(st.sampled_from(LEMMAS + ("all",))),
        "--direction": _mostly(st.sampled_from(["csc-to-folner", "folner-to-csc"])),
        "--c": _rationals(6),
        "--rho": _rationals(6),
        "--s-size": _mostly(_SMALL_INTS),
        # b2 only: a connected scope would start a scan
        "--scope": _mostly(st.just("b2"), st.sampled_from(["b3", "connected:", "all", ""])),
    }


def _options(command):
    """The ``(flag, required)`` pairs of a subcommand, read off the parser;
    ``--output`` is left out so no run writes a file."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    return [(a.option_strings[-1], a.required) for a in sub._actions
            if a.option_strings and a.dest not in ("help", "output")]


def test_fuzzed_options_all_have_values(omega_files):
    values = _values(omega_files)
    for command in _FUZZED:
        assert {flag for flag, _ in _options(command)} <= set(values), command


@st.composite
def _argv(draw, values):
    command = draw(st.sampled_from(_FUZZED))
    argv = [command]
    for flag, required in draw(st.permutations(_options(command))):
        # a required option is left out now and then, to reach the usage errors
        if draw(st.integers(0, 9)) < (9 if required else 4):
            argv += [flag, draw(values[flag])]
    return argv


_ENV_BUDGETS = st.one_of(st.none(), st.integers(1, 10**5).map(str),
                         st.sampled_from(["0", "-5", "abc", "1.5", "1e3", " ", "5 5"]))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_exit_codes_under_fuzzed_arguments(omega_files, data):
    argv = data.draw(_argv(_values(omega_files)), label="argv")
    budget = data.draw(_ENV_BUDGETS, label="CAYLEYISO_MEMORY_BUDGET")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.environ.pop("CAYLEYISO_MEMORY_BUDGET", None)
        if budget is not None:
            os.environ["CAYLEYISO_MEMORY_BUDGET"] = budget
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert "error:" in err


def _readme_cli_lines():
    """The argument lists of the README's CLI block, ``suite`` left out."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("cayleyiso ")]
    assert len(lines) == 11
    return [shlex.split(line)[1:] for line in lines if line != "cayleyiso suite"]


def test_readme_cli_lines_exit_0(capsys):
    # every documented invocation runs, so no removed flag stays in the docs
    for argv in _readme_cli_lines():
        code, _, err = run(capsys, argv)
        assert (code, err) == (0, ""), argv


def test_output_file_holds_what_stdout_gets(capsys, tmp_path):
    # one writer: --output FILE gets the bytes stdout would, in either format
    target = tmp_path / "out"
    falsified = ["certify", "--group", "z:1", "--c", "100", "--alpha", "1", "--scope", "b2"]
    for argv in _readme_cli_lines() + [falsified]:
        # convert and quotient print JSON only and take no --format
        formats = [["--format", "csv"], ["--format", "json"]]
        for fmt in [[]] if argv[0] in ("convert", "quotient") else formats:
            code, out, err = run(capsys, argv + fmt)
            assert out.endswith("\n") and not out.endswith("\n\n"), argv + fmt
            assert run(capsys, argv + fmt + ["--output", str(target)]) == (code, "", err)
            assert target.read_bytes() == out.encode(), argv + fmt
            target.unlink()
