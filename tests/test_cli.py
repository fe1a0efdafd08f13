import json

import pytest

from cayleyiso.cli import main


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
    code, _, err = run(capsys, ["growth", "--group", "z:1", "--radius", "2",
                                "--threads", "2"])
    assert code == 1
    assert "unrecognized arguments: --threads" in err


def test_memory_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("CAYLEYISO_MEMORY_BUDGET", "50")
    code, _, err = run(capsys, ["growth", "--group", "z:2", "--radius", "10"])
    assert code == 1
    assert "exceeded" in err


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


def test_phi_horizon_error(capsys):
    code, _, err = run(capsys, ["phi", "--group", "z:1", "--volume", "100",
                                "--radius", "3"])
    assert code == 1
    assert "enlarge" in err


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
    code, out, _ = run(capsys, ["quotient", "--group", "free:2", "--horizon", "5",
                                "--cap", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["numerator_lower"] == "infinite"
    assert payload["certified_interval"] is None


# -------------------------------------------------------------------- usage

def test_unknown_flag_exit_1(capsys):
    code, _, err = run(capsys, ["growth", "--group", "z:1", "--radius", "2",
                                "--frobnicate"])
    assert code == 1


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


def test_threads_validated(capsys):
    code, _, _ = run(capsys, ["suite", "--threads", "0"])
    assert code == 1
