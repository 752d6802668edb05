"""Report bytes locked per subcommand.

Each case runs one small report in-process and compares the SHA-256 of
its stdout with a recorded digest.  The cases at N <= 6 settle at the
requested 256 bits; the ``_escalated`` ones ask for 64 bits at N = 9 and
settle at 128, so every size they report is cut from an escalated
factor, and every input, the ``operator``, ``d`` and ``target`` inputs
of four of them included, is parsed again at that width.  A change that
alters any report byte fails here; such a change must say so and
re-record the digest it meant to change:

    PYTHONPATH=src python tests/test_cli_golden.py

prints every case's current digest as the ``DIGESTS`` block, with the
cases whose digest changed marked.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import tempfile

import pytest

from muntz.cli import _build_parser, run

UNIT = {
    "intervals": [{"lo": "0", "hi": "1"}],
    "weights": [{"coeff": "1", "power": "0"}],
}
TWO_PIECE = {
    "intervals": [{"lo": "0", "hi": "0.5"}, {"lo": "0.6", "hi": "1"}],
    "weights": [{"coeff": "1", "power": "0"}, {"coeff": "2", "power": "0.5"}],
}
SQUARES = {"kind": "power", "c": "1", "beta": "2", "count": 6}
SQRT = {"kind": "power", "c": "1", "beta": "1/2", "count": 6}
EXPLICIT = {"kind": "explicit", "values": ["1", "2.5", "4", "7"]}
LINEAR_9 = {"kind": "power", "c": "1", "beta": "1", "count": 9}
SQRT_9 = dict(SQRT, count=9)


def _config(domain, exponents, **extra):
    return {"domain": domain, "exponents": exponents, "precision_bits": 256, **extra}


CONFIGS = {
    "unit_squares": _config(
        UNIT,
        SQUARES,
        target={"kind": "pure_power", "mu": "1.5"},
        d=["1", "0.5", "0.25", "0.125", "0.0625", "0.03125"],
        operator={"kind": "dilation", "rho": "0.5"},
        rho="0.75",
        grid_points=41,
        partition={"N1": [3, 1], "N2": [2, 4]},
    ),
    "two_piece_sqrt": _config(
        TWO_PIECE,
        SQRT,
        target={"kind": "muntz_combo", "coeffs": ["1", "-2", "0.5"]},
        operator={"kind": "diagonal_list", "rho": "0.5", "u": ["0.4", "0.1", "0.05", "0.01"]},
    ),
    "two_piece_explicit": _config(TWO_PIECE, EXPLICIT, d=["2", "-1", "0.5", "0"]),
    "unit_linear_64": dict(_config(UNIT, LINEAR_9, rho="0.75", grid_points=41),
                           precision_bits=64),
    "two_piece_sqrt_64": dict(_config(TWO_PIECE, SQRT_9, rho="0.9", grid_points=21),
                              precision_bits=64),
    "unit_linear_64_exact": dict(_config(
        UNIT,
        LINEAR_9,
        target={"kind": "pure_power", "mu": "0.3"},
        d=["1", "1/2", "1/3", "1/4", "1/5", "1/6", "1/7", "1/8", "1/9"],
        operator={"kind": "dilation", "rho": "0.7"},
        partition={"N1": [1, 3, 5, 7, 9], "N2": [2, 4, 6, 8]},
    ), precision_bits=64),
}

CASES = {
    "validate": ("unit_squares", ["validate"]),
    "validate_explicit": ("two_piece_explicit", ["validate"]),
    "gram": ("two_piece_sqrt", ["gram", "--N", "4"]),
    "gram_csv": ("two_piece_sqrt", ["gram", "--N", "3", "--format", "csv"]),
    "distances": ("unit_squares", ["distances", "--n", "2", "--N-list", "3,4,6",
                                   "--epsilon", "0.1"]),
    "distances_csv": ("two_piece_sqrt", ["distances", "--n", "1", "--N-list", "2,5",
                                         "--format", "csv"]),
    "duals": ("two_piece_sqrt", ["duals", "--N", "5"]),
    "duals_csv": ("unit_squares", ["duals", "--N", "4", "--format", "csv"]),
    "expand": ("unit_squares", ["expand", "--N", "5", "--N-list", "2,3,5"]),
    "expand_combo_csv": ("two_piece_sqrt", ["expand", "--N", "4", "--format", "csv"]),
    "remez": ("unit_squares", ["remez", "--N-list", "2,4,6"]),
    "remez_csv": ("two_piece_sqrt", ["remez", "--N-list", "3,5", "--rho", "0.9",
                                     "--grid-points", "21", "--format", "csv"]),
    "moments": ("unit_squares", ["moments", "--N", "6", "--N-list", "2,4,6"]),
    "moments_csv": ("two_piece_explicit", ["moments", "--format", "csv"]),
    "operator": ("unit_squares", ["operator", "--N", "5"]),
    "operator_csv": ("two_piece_sqrt", ["operator", "--N", "4", "--format", "csv"]),
    "hereditary": ("unit_squares", ["hereditary", "--N", "4"]),
    "hereditary_csv": ("two_piece_explicit", ["hereditary", "--n1", "2", "--n2", "1,3,4",
                                              "--format", "csv"]),
    "hereditary_sweep": ("two_piece_sqrt", ["hereditary", "--N", "3", "--sweep"]),
    "hereditary_sweep_csv": ("unit_squares", ["hereditary", "--N", "4", "--sweep",
                                              "--format", "csv"]),
    "gram_escalated": ("two_piece_sqrt_64", ["gram", "--N", "9"]),
    "duals_escalated": ("unit_linear_64", ["duals", "--N", "9"]),
    "distances_escalated": ("unit_linear_64", ["distances", "--n", "2", "--N-list", "3,6,9"]),
    "remez_escalated": ("two_piece_sqrt_64", ["remez", "--N-list", "3,6,9"]),
    "operator_escalated": ("unit_linear_64_exact", ["operator", "--N", "9"]),
    "hereditary_escalated": ("unit_linear_64_exact", ["hereditary", "--N", "9"]),
    "moments_escalated": ("unit_linear_64_exact", ["moments", "--N", "9"]),
    "expand_escalated": ("unit_linear_64_exact", ["expand", "--N", "9"]),
}

DIGESTS = {
    "distances": "2eb31557b2a89b6d619f19772151a6c68b0fa976b995f609c32e9aa9b1295c97",
    "distances_csv": "5aad6451560e52498a6f408d0459b21992d34a19cb87505777a8ec7f5bcfaf56",
    "distances_escalated": "74ab75ad13f7a4f2893cc61eead2f8f01e3c38f38eb94ed1bcb2d631d64890ed",
    "duals": "27596cb71f4aac330d19360bb10a5a135381311a5582b3a3301930ff32a0ec58",
    "duals_csv": "d14eced16e8c2040a278b65a32760c56caad8a55f271c586bbe6d9ea86f1431b",
    "duals_escalated": "f7726ad9daf7557bc2d7efd90568e2141720e21c26dbcb66883c7ac3d7619dc4",
    "expand": "a1488796b1d4a57c197acc97010f7cb9c3be3f64db615a3da6c2cb4655401d2b",
    "expand_combo_csv": "7140694d2696c11f5543ff64b945f4e015e8ad0f5cea28fcefbfe8aee99c387c",
    "expand_escalated": "3eab56aef5e470f4f56270d1df2b8e1068e55c4e3c510b89d05cb769e0c48ee7",
    "gram": "ef364927028ae449bde48a71321c25a464b32e72d86c8a737533f0cc75dab683",
    "gram_csv": "1b230961592e017d8a52383e40261f826da9858f89fe44e118ddc117252b7600",
    "gram_escalated": "abd9b87b98c622fc7275988befdc3b9c0c7c208faf8a24408d082e0e7928f918",
    "hereditary": "1ca9340451dae9ec532c5b1623c73a37f89a5988d748470c12f38255558393d8",
    "hereditary_csv": "f0446cb96b1d4e5957761a282e7d40fe392a151ed0d028cc583f8135bacebdcb",
    "hereditary_escalated": "fdb83f8513ef97bcddd710e5e47bc9ea47639ace24531e455a9896274d8ab460",
    "hereditary_sweep": "e1380531a887ca78b3fa9763d36d0de226f978e6ef7d7f9c2cb871069b4533ab",
    "hereditary_sweep_csv": "fb44460852dac1cf69e3a34eb310fdcb8ab7ebd756dc8681fc1f1839911f93f7",
    "moments": "8778fe91d35232ace953a0c83a8dfb8d9bbd8fd3648f55f4e597bbc98106e1a9",
    "moments_csv": "c456f0f6cd2cf47fed57a8bfad641b3da454081d765c1a7a11f9b938f4a97e0a",
    "moments_escalated": "2f60a6068cc12605b3e1c519dc56b3cff98c48ffa57690fbea9891911c9f04ff",
    "operator": "9e99a33ca5289c240510fa2cb5a66c2ec1503f25f8dd4bb2809cc430e00f9819",
    "operator_csv": "d340db346f182731c8ea7cbeab88459c8a64d6cb910fb5157876ecb2454cebca",
    "operator_escalated": "0e58626e8964adb7ad8cc1f893755489eba9d056cf54102f1eced9278766ca85",
    "remez": "b77a77bb42ece953c281629ee94a7eafa1578af8c045325a7f0fb07ee53ae482",
    "remez_csv": "36a6f3107b4b1f6b316ee206d441ab38a5ceb861b5ec2b430b0fae01b1fd9c3d",
    "remez_escalated": "bc103b6dc178c9dbbdc81edc99c51b3f2cc54c79da8318f42ebed3c473649259",
    "validate": "131137f1ce165f8614634034426147b2cf9d2ecb5e386238c650499799e2a942",
    "validate_explicit": "f3d55d29870536a8228d37ddb4d07b46b9fbe4c8c60ee63fa42dc758f03bdcc0",
}


def _digest(case, directory):
    """SHA-256 of the case's report, its config written to ``directory``."""
    config, argv = CASES[case]
    path = pathlib.Path(directory) / f"{config}.json"
    path.write_text(json.dumps(CONFIGS[config]))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run([*argv, "--config", str(path)])
    assert code == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes(case, tmp_path, monkeypatch):
    monkeypatch.delenv("MUNTZ_PRECISION_BITS", raising=False)
    assert _digest(case, tmp_path) == DIGESTS[case]


def test_parser_reused_after_a_rejected_argv(tmp_path, monkeypatch):
    # one parser serves every run in a process, also after argparse exits
    monkeypatch.delenv("MUNTZ_PRECISION_BITS", raising=False)
    config, argv = CASES["operator"]
    path = tmp_path / f"{config}.json"
    path.write_text(json.dumps(CONFIGS[config]))
    assert run([*argv, "--no-such-flag"]) == 2
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run([*argv, "--config", str(path)])
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == DIGESTS["operator"]
    assert _build_parser() is _build_parser()


if __name__ == "__main__":
    os.environ.pop("MUNTZ_PRECISION_BITS", None)
    with tempfile.TemporaryDirectory() as directory:
        print("DIGESTS = {")
        for case in sorted(CASES):
            digest = _digest(case, directory)
            mark = "" if digest == DIGESTS[case] else "  # changed"
            print(f'    "{case}": "{digest}",{mark}')
        print("}")
