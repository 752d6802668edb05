import contextlib
import importlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from muntz import (build_moment_data, build_weighted_domain, convergence_certificate,
                   dilation_operator, distance, fmt, gram, leading_section, power_exponents,
                   solve_moments, workbits)
from muntz import cli, momentsolve, operator
from muntz.cli import (_PARSED, COMMANDS, DATA, LAM, MAX_PARSED_INPUTS, WD, _build_parser,
                       _Inputs, _load_config, run)
from muntz.gram import _ATTEMPTS

from conftest import rel_err


def invoke(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run(args)
    return rc, buf.getvalue()


def write_config(tmp_path, name="cfg.json", **extra):
    cfg = {
        "domain": {
            "intervals": [{"lo": "0", "hi": "1"}],
            "weights": [{"coeff": "1", "power": "0"}],
        },
        "exponents": {"kind": "explicit", "values": ["2", "3"]},
        "precision_bits": 256,
    }
    cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_validate_unit_config(tmp_path):
    rc, out = invoke(["validate", "--config", write_config(tmp_path)])
    assert rc == 0
    report = json.loads(out)
    assert report["results"]["r_A"] == "1.0"
    assert report["results"]["r_w"] == "1.0"


def test_unknown_subcommand_exits_2():
    rc, _ = invoke(["frobnicate"])
    assert rc == 2


def test_missing_config_exits_2():
    rc, _ = invoke(["validate", "--config", "/nonexistent/cfg.json"])
    assert rc == 2


def test_overlapping_intervals_exit_2(tmp_path):
    bad = {
        "domain": {
            "intervals": [{"lo": "0", "hi": "0.5"}, {"lo": "0.4", "hi": "1"}],
            "weights": [{"coeff": "1", "power": "0"}, {"coeff": "1", "power": "0"}],
        },
        "exponents": {"kind": "explicit", "values": ["2", "3"]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    rc, _ = invoke(["gram", "--config", str(path)])
    assert rc == 2


def test_numerical_failure_exits_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        exponents={
            "kind": "explicit",
            "values": ["1", "1.0000000000000000000000000000001"],
        },
        precision_bits=64,
        max_precision_bits=64,
    )
    assert invoke(["gram", "--config", cfg]) == (3, "")
    assert capsys.readouterr().err.startswith("error[NotPositiveDefinite]: ")
    # the one-term section settles at 256 bits, where the exponents 2 and
    # 2 + 1e-91 of the nonzero moments round to one value: the growth fit
    # has no line to draw
    values = ["1", "2", "2." + "0" * 90 + "1"]
    cfg = write_config(tmp_path, exponents={"kind": "explicit", "values": values},
                       d=["0", "1", "2"])
    assert invoke(["moments", "--config", cfg, "--N", "1"]) == (3, "")
    assert capsys.readouterr().err.startswith("error[NumericalError]: ")


def test_moment_data_is_fitted_at_the_section_width(tmp_path):
    # both exponents round to 1 at the requested 256 bits, where the growth
    # fit would have no line to draw; the section escalates until they
    # part, and the data is fitted at the width it settles at
    values = ["1", "1." + "0" * 90 + "1"]
    cfg = write_config(tmp_path, exponents={"kind": "explicit", "values": values}, d=["1", "2"])
    reports = [invoke([command, "--config", cfg]) for command in ("gram", "moments")]
    assert [rc for rc, _ in reports] == [0, 0]
    bits = [json.loads(out)["results"]["precision_bits_used"] for _, out in reports]
    assert bits == [2048, 2048]


def test_bad_epsilon_prints_r_w_at_the_section_width(tmp_path, capsys):
    # r_w is printed to the digits of the width the section settled at,
    # as str() prints it inside workbits of that width, not to the 15
    # digits of the ambient 53 bits
    third = {"intervals": [{"lo": "0", "hi": "1/3"}], "weights": [{"coeff": "1", "power": "0"}]}
    squares = {"kind": "power", "c": "1", "beta": "2", "count": 8}
    cfg = write_config(tmp_path, domain=third, exponents=squares, N_list=[4, 8], epsilon="0.5")
    assert run(["distances", "--config", cfg]) == 2
    g = gram(build_weighted_domain([(0, Fraction(1, 3))], [(1, 0)]), power_exponents(1, 2, 8), 8)
    assert g.precision_bits > 256
    with workbits(g.precision_bits):
        r_w = str(g.domain.r_a)
    assert capsys.readouterr() == ("", "error[BadEpsilon]: epsilon must lie strictly between 0 "
                                       f"and r_w = {r_w}\n")


def test_distances_with_oracle_column(tmp_path):
    cfg = write_config(tmp_path)
    rc, out = invoke(["distances", "--config", cfg, "--n", "1", "--N-list", "1,2"])
    assert rc == 0
    res = json.loads(out)["results"]
    with workbits(320):
        assert rel_err(res["sections"][0][1], 1 / mp.sqrt(mp.mpf(5))) < 1e-70
        assert rel_err(res["sections"][1][1], 1 / mp.sqrt(mp.mpf(180))) < 1e-70
    assert res["oracle"]["applicable"]
    with workbits(320):
        assert rel_err(res["oracle"]["values"]["2"], 1 / mp.sqrt(mp.mpf(180))) < 1e-70


def test_oracle_not_applicable_off_unit_domain(tmp_path):
    cfg = write_config(
        tmp_path,
        domain={
            "intervals": [{"lo": "0", "hi": "2"}],
            "weights": [{"coeff": "1", "power": "0"}],
        },
    )
    rc, out = invoke(["distances", "--config", cfg, "--n", "1", "--N-list", "1,2"])
    assert rc == 0
    assert not json.loads(out)["results"]["oracle"]["applicable"]


def test_report_determinism(tmp_path):
    cfg = write_config(tmp_path)
    _, first = invoke(["distances", "--config", cfg, "--n", "1", "--N-list", "1,2"])
    _, second = invoke(["distances", "--config", cfg, "--n", "1", "--N-list", "1,2"])
    assert first == second


def test_round_trip_from_embedded_config(tmp_path):
    cfg = write_config(tmp_path)
    _, first = invoke(
        ["distances", "--config", cfg, "--n", "1", "--N-list", "1,2", "--epsilon", "0.1"]
    )
    embedded = json.loads(first)["config"]
    path = tmp_path / "embedded.json"
    path.write_text(json.dumps(embedded))
    _, second = invoke(["distances", "--config", str(path)])
    assert first == second


def test_round_trip_with_json_number_reals(tmp_path):
    # 0.1, 0.5 and 0.01 as JSON numbers are not their binary floats: the
    # report computes with the decimal its config block echoes
    cfg = write_config(tmp_path, exponents={"kind": "power", "c": "1", "beta": "2", "count": 4},
                       epsilon=0.1, rel_tol=0.01, rho=0.5, N_list=[2, 4])
    for command in (["distances", "--n", "1"], ["remez", "--grid-points", "3"]):
        rc, first = invoke([*command, "--config", cfg])
        assert rc == 0
        report = json.loads(first)
        path = tmp_path / "embedded.json"
        path.write_text(json.dumps(report["config"]))
        assert invoke([command[0], "--config", str(path)]) == (0, first)
    assert report["config"]["rho"] == "0.5"


def test_env_variable_overrides_config(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    monkeypatch.setenv("MUNTZ_PRECISION_BITS", "128")
    rc, out = invoke(["gram", "--config", cfg])
    assert rc == 0
    assert json.loads(out)["results"]["precision_bits_used"] == 128


def test_flag_overrides_env(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    monkeypatch.setenv("MUNTZ_PRECISION_BITS", "128")
    rc, out = invoke(["gram", "--config", cfg, "--precision-bits", "512"])
    assert rc == 0
    assert json.loads(out)["results"]["precision_bits_used"] == 512


def test_csv_output(tmp_path):
    cfg = write_config(tmp_path)
    rc, out = invoke(
        ["distances", "--config", cfg, "--n", "1", "--N-list", "1,2", "--format", "csv"]
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,distance"
    assert len(lines) == 3


def test_out_file(tmp_path):
    cfg = write_config(tmp_path)
    target = tmp_path / "report.json"
    rc, out = invoke(["validate", "--config", cfg, "--out", str(target)])
    assert rc == 0
    assert out == ""
    assert json.loads(target.read_text())["command"] == "validate"


def test_moments_cli_fixture(tmp_path):
    cfg = write_config(tmp_path, d=["1", "0"])
    rc, out = invoke(["moments", "--config", cfg])
    assert rc == 0
    res = json.loads(out)["results"]
    assert rel_err(res["coefficients"][0], 180) < 1e-70
    assert rel_err(res["coefficients"][1], -210) < 1e-70


def test_expand_requires_target(tmp_path):
    cfg = write_config(tmp_path)
    rc, _ = invoke(["expand", "--config", cfg])
    assert rc == 2


def test_hereditary_sweep_csv(tmp_path):
    cfg = write_config(tmp_path)
    rc, out = invoke(["hereditary", "--config", cfg, "--sweep", "--format", "csv"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N1,N2,det,min_singular_value,nonsingular"
    assert len(lines) == 4  # header + the N + 1 = 3 head/tail partitions


def test_hereditary_sweep_runs_past_sixteen(tmp_path):
    # --sweep takes any N: at N = 16 its 17 rows are the head/tail
    # partitions N1 = 1..m, N2 = m+1..16 in m order
    cfg = write_config(tmp_path, exponents={"kind": "power", "c": "1", "beta": "1",
                                            "count": 16})
    rc, out = invoke(["hereditary", "--config", cfg, "--sweep", "--N", "16"])
    assert rc == 0
    res = json.loads(out)["results"]
    idx = [str(i) for i in range(1, 17)]
    assert res["partitions"] == 17
    assert [row[:2] for row in res["rows"]] == [
        [",".join(idx[:m]) or "-", ",".join(idx[m:]) or "-"] for m in range(17)]
    assert all(row[4] is True for row in res["rows"])


def test_operator_cli(tmp_path):
    cfg = write_config(tmp_path, operator={"kind": "dilation", "rho": "0.5"})
    rc, out = invoke(["operator", "--config", cfg])
    assert rc == 0
    res = json.loads(out)["results"]
    assert res["eigen_ok"] and res["adjoint_eigen_ok"]
    assert res["simplicity_ok"] and res["kernel_trivial_ok"]
    with workbits(300):
        assert mp.mpf(res["normality_defect"]) > 0


UNIT = {
    "intervals": [{"lo": "0", "hi": "1"}],
    "weights": [{"coeff": "1", "power": "0"}],
}
LINEAR_40 = {"kind": "power", "c": "1", "beta": "1", "count": 40}
SQUARES_4 = {"kind": "power", "c": "1", "beta": "2", "count": 4}

# Each input once crashed run() with a traceback or was silently accepted.
CONTRACT_CASES = {
    "count_not_a_number": (["validate"], {"exponents": {"kind": "power", "c": "1", "beta": "1",
                                                        "count": "abc"}}),
    "explicit_exponent_not_a_number": (["validate"], {"exponents": {
        "kind": "explicit", "values": ["1", "2", "x"]}}),
    "pure_power_without_mu": (["expand"], {"target": {"kind": "pure_power"}}),
    "combo_coeffs_not_a_list": (["expand"], {"target": {"kind": "muntz_combo", "coeffs": "abc"}}),
    "moment_value_not_a_number": (["moments"], {"d": ["1", "q"]}),
    "rho_not_a_number": (["remez"], {"rho": "zz"}),
    "operator_count_not_a_number": (["operator"], {"operator": {"kind": "dilation", "rho": "0.5",
                                                                "count": "x"}}),
    "precision_not_a_number": (["gram"], {"precision_bits": "abc"}),
    "max_precision_not_a_number": (["gram"], {"max_precision_bits": "q"}),
    "boolean_for_a_number": (["remez"], {"rho": True}),
    "flag_N_zero": (["gram", "--N", "0"], {}),
    "flag_n_zero": (["distances", "--n", "0"], {}),
    "flag_precision_zero": (["gram", "--precision-bits", "0"], {}),
    "huge_decimal_exponent": (["validate"], {"domain": {
        "intervals": [{"lo": "0", "hi": "1e999999999"}], "weights": [{"coeff": "1", "power": "0"}]}}),
    "precision_above_ceiling": (["validate"], {"precision_bits": 8192}),
    "max_precision_above_ceiling": (["validate"], {"max_precision_bits": 8192}),
    "grid_points_above_ceiling": (["remez"], {"grid_points": 1000000000000}),
    "generator_count_above_ceiling": (["validate"], {"exponents": {
        "kind": "power", "c": "1", "beta": "1", "count": 1000000000000}}),
    "generator_beta_above_ceiling": (["validate"], {"exponents": {
        "kind": "power", "c": "1", "beta": "1000000", "count": 10}}),
}


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_malformed_input_exits_2(tmp_path, case):
    argv, extra = CONTRACT_CASES[case]
    cfg = {"domain": UNIT, "exponents": SQUARES_4, "target": {"kind": "pure_power", "mu": "1"},
           "d": ["1", "0.5"], "rho": "0.5", "operator": {"kind": "dilation", "rho": "0.5"}}
    cfg.update(extra)
    rc, out = invoke([*argv, "--config", write_config(tmp_path, **cfg)])
    assert rc == 2
    assert out == ""


# ``validate`` echoes every domain and exponent value exactly, as integers
# past Python's 4300-digit limit on rendering an int as text
LONG = "1e-4400"
LONG_ECHO_CASES = {
    "domain_lo": {"domain": {"intervals": [{"lo": LONG, "hi": "1"}],
                             "weights": [{"coeff": "1", "power": "0"}]}},
    "domain_hi": {"domain": {"intervals": [{"lo": "0", "hi": LONG}],
                             "weights": [{"coeff": "1", "power": "0"}]}},
    "weight_coeff": {"domain": {"intervals": [{"lo": "0", "hi": "1"}],
                                "weights": [{"coeff": LONG, "power": "0"}]}},
    "weight_power": {"domain": {"intervals": [{"lo": "0", "hi": "1"}],
                                "weights": [{"coeff": "1", "power": LONG}]}},
    "generator_c": {"exponents": {"kind": "power", "c": LONG, "beta": "2", "count": 4}},
    # so long a beta is below 1e-100, and no width tells its exponents apart
    "generator_beta": {"exponents": {"kind": "power", "c": "1", "beta": LONG, "count": 4}},
    "explicit_exponent": {"exponents": {"kind": "explicit", "values": [LONG, "1", "2"]}},
}


@pytest.mark.parametrize("case", sorted(LONG_ECHO_CASES))
def test_validate_of_a_value_too_long_to_echo_exits_2(tmp_path, capsys, case):
    cfg = write_config(tmp_path, **LONG_ECHO_CASES[case])
    assert run(["validate", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error[") and "Traceback" not in err


@pytest.mark.parametrize("problem", ["config_is_a_directory", "config_not_utf8",
                                     "out_in_missing_directory"])
def test_unreadable_config_or_unwritable_out_exits_2(tmp_path, problem):
    argv = ["validate", "--config", write_config(tmp_path)]
    if problem == "config_is_a_directory":
        argv[2] = str(tmp_path)
    elif problem == "config_not_utf8":
        (tmp_path / "bin.json").write_bytes(b"\xff\xfe\x00")
        argv[2] = str(tmp_path / "bin.json")
    else:
        argv += ["--out", str(tmp_path / "missing" / "report.json")]
    assert invoke(argv) == (2, "")


def test_max_precision_applies_to_every_command(tmp_path):
    # N = 40 linear exponents need 512 bits; a 256-bit ceiling must fail
    cfg = write_config(tmp_path, exponents=LINEAR_40, max_precision_bits=256)
    rc, _ = invoke(["duals", "--config", cfg, "--N", "40"])
    assert rc == 3


def test_remez_reports_the_precision_it_used(tmp_path):
    cfg = write_config(tmp_path, exponents=LINEAR_40)
    rc, out = invoke(["remez", "--config", cfg, "--N-list", "40", "--rho", "0.5",
                      "--grid-points", "2"])
    assert rc == 0
    res = json.loads(out)["results"]
    assert res["precision_bits_used"] == 512
    assert len(res["rows"][0][1].replace(".", "")) > 100  # formatted at 512 bits


def _count_gram_calls(monkeypatch):
    import muntz.cli

    built = []
    real_gram = muntz.cli.gram

    def counting_gram(wd, lam, n, *args):
        built.append(n)
        return real_gram(wd, lam, n, *args)

    monkeypatch.setattr(muntz.cli, "gram", counting_gram)
    return built


def test_each_section_factored_once(tmp_path, monkeypatch):
    # the top section settles at the requested precision, so the smaller
    # sections are cut from its factor and only size 4 is factored
    built = _count_gram_calls(monkeypatch)
    cfg = write_config(tmp_path, exponents=SQUARES_4, d=["1", "0.5", "0.25", "0.125"])
    rc, _ = invoke(["moments", "--config", cfg, "--N", "4", "--N-list", "2,3,4"])
    assert rc == 0
    assert built == [4]


@pytest.mark.parametrize("n_list", ["2,3,4", "4"])
def test_moments_takes_one_forward_solve(tmp_path, monkeypatch, n_list):
    # the section's own solution comes from the certificate's solves, so a
    # report whose N_list ends at N takes one forward solve, of size N (its
    # bytes are locked in test_cli_golden)
    calls, gram_module = [], importlib.import_module("muntz.gram")
    forward = gram_module._substitute_forward
    monkeypatch.setattr(gram_module, "_substitute_forward",
                        lambda rows, rhs, prec: calls.append(len(rows)) or forward(rows, rhs, prec))
    cfg = write_config(tmp_path, exponents=SQUARES_4, d=["1", "0.5", "0.25", "0.125"])
    rc, _ = invoke(["moments", "--config", cfg, "--N", "4", "--N-list", n_list])
    assert rc == 0
    assert calls == [4]


@pytest.mark.parametrize("argv, size", [
    (["gram", "--N", "3"], 3),
    (["distances", "--N-list", "2,4"], 4),
    (["duals", "--N", "3"], 3),
    (["expand", "--N", "4", "--N-list", "2,3"], 4),
    (["expand", "--N", "2", "--N-list", "2,5"], 5),
    (["remez", "--N-list", "2,3", "--grid-points", "3"], 3),
    (["moments", "--N", "4", "--N-list", "2,6"], 6),
    (["operator", "--N", "3"], 3),
    (["hereditary", "--N", "3", "--sweep"], 3),
])
def test_every_report_factors_one_section(tmp_path, monkeypatch, argv, size):
    # the largest size the report reads, N or the end of N_list, is the
    # one section factored; every other size is cut from it
    built = _count_gram_calls(monkeypatch)
    cfg = write_config(tmp_path, exponents={"kind": "power", "c": "1", "beta": "2", "count": 6},
                       d=["1", "0.5", "0.25", "0.125", "0.0625", "0.03125"], rho="0.5",
                       target={"kind": "pure_power", "mu": "1"},
                       operator={"kind": "dilation", "rho": "0.5"})
    rc, _ = invoke([*argv, "--config", cfg])
    assert rc == 0
    assert built == [size]


def test_escalated_section_serves_every_size(tmp_path, monkeypatch):
    # linear exponents at N = 9 escalate from 64 to 128 bits; sizes 2 and 3
    # are cut from that factor, so every value of the report has its precision
    built = _count_gram_calls(monkeypatch)
    linear_9 = {"kind": "power", "c": "1", "beta": "1", "count": 9}
    cfg = write_config(tmp_path, exponents=linear_9, precision_bits=64, d=["1"] * 9)
    wd, lam = build_weighted_domain([(0, 1)], [(1, 0)], 64), power_exponents(1, 1, 9, 64)
    top = gram(wd, lam, 9, 64)
    assert top.precision_bits == 128
    rc, out = invoke(["moments", "--config", cfg, "--N", "9", "--N-list", "2,3,9"])
    assert rc == 0
    assert built == [9]
    res = json.loads(out)["results"]
    assert res["precision_bits_used"] == 128
    data = build_moment_data(wd, lam, ["1"] * 9, 64)
    for k, m in enumerate((2, 3)):
        want = convergence_certificate(leading_section(top, m), [m], data)
        assert res["certificate"]["partial_sums"][k] == fmt(want.partial_sums[0], 128)
        assert res["certificate"]["solution_norms"][k] == fmt(want.solution_norms[0], 128)

    rc, out = invoke(["distances", "--config", cfg, "--n", "1", "--N-list", "2,3,9"])
    assert rc == 0
    assert built == [9, 9]
    rows = json.loads(out)["results"]["rows"]
    for k, m in enumerate((2, 3)):
        assert rows[k] == [m, fmt(distance(leading_section(top, m), 1), 128)]


def _cold(argv):
    """``invoke`` as a fresh process runs it: nothing kept from before."""
    _ATTEMPTS.clear()
    _PARSED.clear()
    return invoke(argv)


def test_kept_data_follows_the_exponents_it_was_fitted_to(tmp_path):
    # the same d list fits a different envelope under each family
    d = ["1", "0.5", "0.3", "0.2", "0.1", "0.05"]
    families = [{"kind": "power", "c": "1", "beta": "2", "count": 6},
                {"kind": "power", "c": "1", "beta": "1/2", "count": 6}]
    argvs = [["moments", "--config", write_config(tmp_path, f"f{k}.json", exponents=lam, d=d)]
             for k, lam in enumerate(families)]
    warm = [invoke(argv) for argv in argvs + argvs]
    cold = [_cold(argv) for argv in argvs]
    assert warm == cold + cold
    fitted = [json.loads(out)["results"]["fitted_a"] for _, out in cold]
    assert fitted[0] != fitted[1]


def test_kept_inputs_follow_the_width(tmp_path):
    # non-dyadic values round differently at each width; linear exponents
    # at N = 9 escalate from 64 to 128 bits, so that report parses its
    # domain and exponents at 64 bits and its data at 128
    cfg = write_config(tmp_path, domain={"intervals": [{"lo": "0.1", "hi": "0.7"}],
                                         "weights": [{"coeff": "0.3", "power": "0.1"}]},
                       exponents={"kind": "power", "c": "0.3", "beta": "1", "count": 9},
                       d=[f"0.{k}" for k in range(1, 10)], precision_bits=None)
    argvs = [["moments", "--config", cfg, "--precision-bits", "64"], ["moments", "--config", cfg]]
    warm = [invoke(argv) for argv in argvs + argvs[::-1]]
    cold = [_cold(argv) for argv in argvs]
    assert warm == cold + cold[::-1]
    assert [json.loads(out)["results"]["precision_bits_used"] for _, out in cold] == [128, 256]


def test_an_escalated_report_parses_each_block_once(tmp_path):
    # the domain and exponents are parsed at the requested 64 bits, before
    # the section, and the data once, at the 128 bits the section settles at
    linear_9 = {"kind": "power", "c": "1", "beta": "1", "count": 9}
    cfg = write_config(tmp_path, exponents=linear_9, precision_bits=64, d=["1"] * 9)
    rc, out = _cold(["moments", "--config", cfg, "--N", "9"])
    assert rc == 0 and json.loads(out)["results"]["precision_bits_used"] == 128
    assert [memo[:2] for memo in _PARSED] == [(WD.parse, 64), (LAM.parse, 64), (DATA.parse, 128)]


def test_kept_data_serves_every_size(tmp_path, monkeypatch):
    # d is keyed by the domain and exponents its fit reads, not by N or
    # N_list: reports of other sizes that settle at one width fit it once
    fits = []
    fit = momentsolve.build_moment_data
    monkeypatch.setattr(momentsolve, "build_moment_data", lambda *a: fits.append(a) or fit(*a))
    cfg = write_config(tmp_path, exponents={**SQUARES_4, "count": 6}, d=["1"] * 6)
    argvs = [["moments", "--config", cfg, "--N", "4", "--N-list", "2,4"],
             ["moments", "--config", cfg, "--N", "6", "--N-list", "3,6"]]
    warm = [invoke(argv) for argv in argvs]
    assert len(fits) == 1
    assert warm == [_cold(argv) for argv in argvs]
    assert {json.loads(out)["results"]["precision_bits_used"] for _, out in warm} == {256}


def test_a_block_parser_reads_only_the_width_and_earlier_blocks(tmp_path):
    # handed the width and only the config blocks its command lists before
    # it, every block parser gives the value the report parsed, so the
    # raws of those blocks and its own, with the width, fix the value the
    # memo keeps
    cfg = write_config(tmp_path, exponents={**SQUARES_4, "count": 6}, d=["1"] * 6,
                       target={"kind": "muntz_combo", "coeffs": ["1", "0.5"]},
                       operator={"kind": "dilation", "rho": "0.5"}, rho="0.5")
    config, checked = _load_config(cfg), set()
    for name, command in COMMANDS.items():
        args = _build_parser().parse_args([name, "--config", cfg])
        inputs = _Inputs(config, args, command.params)
        assert inputs.width == 256
        earlier = {}
        for param in command.params:
            if param.flag is None and param.key:
                view = SimpleNamespace(width=256, **earlier)
                value = param.parse(config[param.key], view)
                assert value == getattr(inputs, param.name)
                earlier[param.name] = value
                checked.add(param.key)
    assert checked == {"domain", "exponents", "d", "target", "operator"}


def test_an_absent_block_is_reported_before_the_section(tmp_path, capsys, monkeypatch):
    def unreached(*args):
        raise AssertionError("the section was factored")

    monkeypatch.setattr(cli, "gram", unreached)
    cfg = write_config(tmp_path)
    for sizes in ([], ["--N", "2"]):
        assert run(["moments", "--config", cfg, *sizes]) == 2
        assert capsys.readouterr().err == \
            "error[MalformedConfig]: config is missing required block 'd'\n"


def test_a_failing_parse_is_not_kept(tmp_path, capsys):
    cfg = write_config(tmp_path, exponents=SQUARES_4, d=["1", "0.5", "q"])
    runs = [(run(["moments", "--config", cfg]), capsys.readouterr()) for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0][0] == 2 and runs[0][1].err.startswith("error[NotANumber]")
    assert len(_PARSED) == 2  # the domain and the exponents
    assert [memo for memo in _PARSED if memo[0] is DATA.parse] == []


def test_the_input_memo_is_bounded(tmp_path):
    # every report keeps its own domain, and all share one exponents block
    for k in range(MAX_PARSED_INPUTS + 1):
        domain = {"intervals": [{"lo": "0", "hi": str(k + 1)}],
                  "weights": [{"coeff": "1", "power": "0"}]}
        assert invoke(["validate", "--config", write_config(tmp_path, domain=domain)])[0] == 0
    assert len(_PARSED) == MAX_PARSED_INPUTS


def _nested(depth):
    return "[" * depth + "]" * depth


def _decoder_limit():
    """The least nesting ``json.loads`` refuses at this stack depth."""
    lo, hi = 1, 10 ** 6
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            json.loads(_nested(mid))
            lo = mid + 1
        except RecursionError:
            hi = mid
    return lo


def test_deeply_nested_config_exits_2(tmp_path, capsys):
    # json.load raises RecursionError past the interpreter's depth; nesting
    # just below that must still get through keying the kept inputs
    limit = _decoder_limit()
    assert limit < sys.getrecursionlimit()
    unit = json.dumps(UNIT)
    shapes = [(["validate"], "@"), (["validate"], '{"domain": @, "exponents": {}}'),
              (["gram"], "@"),
              (["gram"], '{"domain": %s, "exponents": {"kind": "explicit", "values": @}}' % unit)]
    messages = set()
    for argv, shape in shapes:
        for depth in [*range(limit - 12, limit + 3), 200000]:
            path = tmp_path / "nested.json"
            path.write_text(shape.replace("@", _nested(depth)))
            assert run([*argv, "--config", str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error[")
            if "nested too deeply" in err:
                assert err.startswith("error[MalformedConfig]")
            messages.add("nested too deeply" in err)
    assert messages == {True, False}  # the depths straddle the decoder's limit


@pytest.mark.parametrize("nest", ["[@]", '{"a": @}'])
@pytest.mark.parametrize("leaf", ["[]", "1.5", "NaN", "true", '"\\u00fc"', '{"b": [null, -1e300]}'])
def test_a_deeply_nested_unknown_block_is_echoed(tmp_path, capsys, nest, leaf):
    # the report writer takes one frame per level, so a config the decoder
    # reads is echoed whole, whatever its deepest level holds, and one it
    # cannot read exits 2
    limit = _decoder_limit()
    shape = ('{"domain": %s, "exponents": {"kind": "explicit", "values": ["2", "3"]}, "junk": @}'
             % json.dumps(UNIT))
    open_, close = nest.split("@")
    path = tmp_path / "nested.json"
    echoed = []
    for depth in range(limit - 12, limit + 3):
        path.write_text(shape.replace("@", open_ * depth + leaf + close * depth))
        rc = run(["validate", "--config", str(path)])
        out, err = capsys.readouterr()
        if rc == 0:
            echoed.append(out)
        else:
            assert rc == 2 and err.startswith("error[MalformedConfig]: config is nested too deeply")
    assert 0 < len(echoed) < 15   # the depths straddle the decoder's limit
    assert json.dumps(json.loads(echoed[-1]), indent=2, sort_keys=True) + "\n" == echoed[-1]


def test_escalated_moments_parse_data_at_the_section_width(tmp_path):
    # 0.1 is not dyadic: parsed at the requested 64 bits it would carry a
    # 2^-64 error into a report that promises the 128 bits it escalated to
    d = [f"0.{k}" for k in range(1, 10)]
    linear_9 = {"kind": "power", "c": "1", "beta": "1", "count": 9}
    cfg = write_config(tmp_path, exponents=linear_9, precision_bits=64, d=d)
    wd, lam = build_weighted_domain([(0, 1)], [(1, 0)], 64), power_exponents(1, 1, 9, 64)
    top = gram(wd, lam, 9, 64)
    assert top.precision_bits == 128
    rc, out = invoke(["moments", "--config", cfg, "--N", "9"])
    assert rc == 0
    res = json.loads(out)["results"]
    assert res["precision_bits_used"] == 128
    want, _ = solve_moments(top, build_moment_data(wd, lam, d, 128))
    assert res["coefficients"] == [fmt(c, 128) for c in want.coeffs]


@pytest.mark.parametrize("beta", ["1", "1/2"])
@pytest.mark.parametrize("rho", ["0.3", "0.7", "0.9"])
def test_escalated_operator_parses_its_block_at_the_section_width(tmp_path, beta, rho):
    # rho**lam_n rounded at the requested 64 bits can exceed the same bound
    # at the 128 bits the section settles at, which reads as a BoundViolation
    exponents = {"kind": "power", "c": "1", "beta": beta, "count": 9}
    cfg = write_config(tmp_path, exponents=exponents, precision_bits=64,
                       operator={"kind": "dilation", "rho": rho})
    rc, out = invoke(["operator", "--config", cfg, "--N", "9"])
    assert rc == 0
    res = json.loads(out)["results"]
    assert res["precision_bits_used"] == 128
    want = dilation_operator(power_exponents(1, Fraction(beta), 9, 128), rho, 9, 128)
    assert res["u"] == [fmt(u, 128) for u in want.u]


def test_kept_operator_serves_every_size(tmp_path, monkeypatch):
    # a dilation holds a multiplier for every exponent, so its block is
    # keyed by the domain and exponents, not by N: three sizes parse it once
    parses = []
    parse = operator.operator_from_json
    monkeypatch.setattr(operator, "operator_from_json", lambda *a: parses.append(a) or parse(*a))
    cfg = write_config(tmp_path, exponents={**SQUARES_4, "count": 6},
                       operator={"kind": "dilation", "rho": "0.5"})
    argvs = [["operator", "--config", cfg, "--N", str(n)] for n in (3, 4, 5)]
    warm = [invoke(argv) for argv in argvs]
    assert len(parses) == 1
    assert warm == [_cold(argv) for argv in argvs]
    assert [len(json.loads(out)["results"]["u"]) for _, out in warm] == [3, 4, 5]


def test_operator_count_past_the_exponents_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, exponents={**SQUARES_4, "count": 6},
                       operator={"kind": "dilation", "rho": "0.5", "count": 7})
    for n in ("3", "6"):
        assert run(["operator", "--config", cfg, "--N", n]) == 2
        assert capsys.readouterr().err == \
            "error[ValidationError]: count exceeds exponent prefix\n"


def test_operator_count_below_n_is_raised_to_it(tmp_path):
    cfg = write_config(tmp_path, exponents={**SQUARES_4, "count": 6},
                       operator={"kind": "dilation", "rho": "0.5", "count": 2})
    rc, out = invoke(["operator", "--config", cfg, "--N", "4"])
    assert rc == 0
    want = dilation_operator(power_exponents(1, 2, 4, 256), "0.5", 4, 256)
    assert json.loads(out)["results"]["u"] == [fmt(u, 256) for u in want.u]


JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.sampled_from(["abc", "", "1", "0.5", "2", "-1", "1/0", "nan", "inf", "1e3", "3,1",
                     "1e999999999"]),
    st.lists(st.integers(-1, 6), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "lo", "rho"]), st.integers(0, 2), max_size=2),
)
NUMBER = st.sampled_from(["0.5", "0.25", "1", "-0.5", 2, 0.75])


def _mostly(valid):
    """Valid values nine times in ten, so that reports get past parsing."""
    return st.integers(0, 9).flatmap(lambda k: valid if k else JUNK)


DOMAIN = _mostly(st.one_of(st.just(UNIT), st.just(UNIT), st.fixed_dictionaries({
    "intervals": st.lists(st.fixed_dictionaries({"lo": _mostly(NUMBER), "hi": _mostly(NUMBER)}),
                          min_size=1, max_size=2),
    "weights": st.lists(st.fixed_dictionaries({"coeff": _mostly(NUMBER),
                                               "power": _mostly(NUMBER)}), min_size=1, max_size=2),
})))
EXPONENTS = _mostly(st.one_of(
    st.just(SQUARES_4),
    st.fixed_dictionaries({"kind": st.just("power"), "c": _mostly(NUMBER),
                           "beta": _mostly(st.one_of(NUMBER, st.just("1000000"))),
                           "count": _mostly(st.one_of(st.integers(1, 6),
                                                      st.just(1000000000000)))}),
    st.fixed_dictionaries({"kind": st.just("explicit"),
                           "values": _mostly(st.lists(_mostly(NUMBER), max_size=6))}),
))
CONFIG = st.fixed_dictionaries({"domain": DOMAIN, "exponents": EXPONENTS}, optional={
    "precision_bits": _mostly(st.sampled_from([64, 128, "256", 100000000])),
    "max_precision_bits": _mostly(st.sampled_from([64, 256, 4096])),
    "target": _mostly(st.fixed_dictionaries(
        {"kind": st.sampled_from(["pure_power", "muntz_combo", "other"])},
        optional={"mu": _mostly(NUMBER), "coeffs": _mostly(st.lists(_mostly(NUMBER)))})),
    "operator": _mostly(st.fixed_dictionaries(
        {"kind": st.sampled_from(["dilation", "diagonal_list", "other"])},
        optional={"rho": _mostly(NUMBER), "count": _mostly(st.integers(0, 6)),
                  "u": _mostly(st.lists(_mostly(NUMBER)))})),
    "d": _mostly(st.lists(_mostly(NUMBER), max_size=6)),
    "partition": _mostly(st.fixed_dictionaries({}, optional={
        "N1": _mostly(st.lists(st.integers(0, 6))), "N2": _mostly(st.lists(st.integers(0, 6)))})),
    "N": _mostly(st.integers(1, 6)),
    "N_list": _mostly(st.sampled_from(["1,2", [2, 3], "3", [1, 1]])),
    "n": _mostly(st.integers(1, 3)),
    "rel_tol": _mostly(NUMBER),
    "epsilon": _mostly(NUMBER),
    "rho": _mostly(NUMBER),
    "grid_points": _mostly(st.one_of(st.integers(1, 5), st.just(1000000000000))),
    "sweep": _mostly(st.booleans()),
})
FLAGS = st.lists(st.sampled_from([
    ["--N", "3"], ["--N", "0"], ["--N-list", "1,2"], ["--N-list", "2,1"], ["--n", "0"],
    ["--n", "2"], ["--format", "csv"], ["--sweep"], ["--precision-bits", "0"],
    ["--precision-bits", "64"], ["--rho", "0.5"], ["--grid-points", "3"], ["--epsilon", "0.1"],
    ["--n1", "1"], ["--n2", "2,x"], ["--rel-tol", "x"],
]), max_size=3)


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(sorted(COMMANDS)), cfg=CONFIG, flags=FLAGS)
def test_config_fuzz_keeps_exit_contract(command, cfg, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        rc, _ = invoke([command, *sum(flags, []), "--config", path])
    assert rc in (0, 2, 3)
