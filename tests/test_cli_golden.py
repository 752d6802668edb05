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

import muntz.forkmap as forkmap_module
from muntz.cli import _build_parser, run
from conftest import force_sweep_forking

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
    # unknown blocks are echoed as given: a float, NaN, non-ASCII text,
    # quotes and control characters, and empty and nested containers
    "unit_squares_echo": _config(UNIT, SQUARES, notes="Müntz \u2211 \"x\"\t\u0001", scale=0.1,
                                 missing=float("nan"), big=-1e300,
                                 extra={"nested": [1, {"b": [None, True, []]}], "empty": {}}),
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
    "gram_config_echo": ("unit_squares_echo", ["gram", "--N", "3"]),
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
    "distances": "00f0c2e7af44ea32909ec624ae79df82bd11c04bbc7f4d56e0617f255ccc03ee",
    "distances_csv": "21f6e5bd5a0309b0755f96ae036322addeee3578c323b875c0b325f0f5e6577e",
    "distances_escalated": "cc45549eba4ea3018dd2f273d71d90e99e4e969ed7be45a87f51e0f743394051",
    "duals": "99329b20967605f0f6fb61952f2a7c41816864eddb7ab5f86575cce2f9e1c7ff",
    "duals_csv": "59a969601d586d81ee1a2b5d11438dfcd5ffb9939df08a19e77f50ca8301abf0",
    "duals_escalated": "18f83b9ac4c0d8beca3e6274ebf210c60c1e609253f5253f537624f8070084e3",
    "expand": "df2e6b52b1af92842cf989111e45254fb0db305f033f7337c7fb0c92ff4b2f50",
    "expand_combo_csv": "e27245ac6bb5b5e22ac2591afe0e76c1a592f5d44ed6e2848612c6872f790b48",
    "expand_escalated": "af3beaf99175bcfa6f3cdcd96bbcbda74a66bc04a4c1975698b4960b2fb669d8",
    "gram": "ef364927028ae449bde48a71321c25a464b32e72d86c8a737533f0cc75dab683",
    "gram_csv": "1b230961592e017d8a52383e40261f826da9858f89fe44e118ddc117252b7600",
    "gram_config_echo": "ff474ee2cfe1f871cb6c1f79176848e04a04b140aaaea3623b30279ee067afe3",
    "gram_escalated": "abd9b87b98c622fc7275988befdc3b9c0c7c208faf8a24408d082e0e7928f918",
    "hereditary": "3705f05803958e0696ec5ae873db468abbb94276fc5ede5e4dc79193eb804fac",
    "hereditary_csv": "7e6ece3c2be82189b544a70be2ab65a6056edd853dfa251fa891bb0f9f0557e5",
    "hereditary_escalated": "44af8e8464cab794030826bf730e88cf08a9914788054a8df9834e77d8153e51",
    "hereditary_sweep": "78a0e97e49988937c36b1e3af505a0b1cd6ea90bebdb40dce8043284700350ce",
    "hereditary_sweep_csv": "911cd5df0629446722458229ab895f3644c48105688b591fd35d920d3d4f906e",
    "moments": "18df652919dc04353daaade92f188bea7de400c5813f996f358274c642a1fd81",
    "moments_csv": "e744d005bde2762862f5c3e311c69cc2b7da1034ba69feb2b69c6e7e2a2374b9",
    "moments_escalated": "ef232154ba04b7906c62c23c0ffb3373ffa953be5e83d310c22c603d8ccac503",
    "operator": "f102ce5e8fa8f861972c794b7d06d51ef9f1e65d4df505cf102e59df7873ca6a",
    "operator_csv": "d340db346f182731c8ea7cbeab88459c8a64d6cb910fb5157876ecb2454cebca",
    "operator_escalated": "3c053b536c9a99858aee86e2a62519ba13fbafffea192809819b8396ec52f2fe",
    "remez": "ba850c08949e48307874aa00bc0ce2b626af04f50ba0a9e33132b6de47231d7f",
    "remez_csv": "1573f021592101df786f25fe5b69de8f46cdc85a38d1d9a792463f777f2b57bc",
    "remez_escalated": "cf0239cf95ad9a20419ce219cf5dd5a6d1fa80bf1e20402ddcf3ca7d52be75ac",
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


def test_report_bytes_with_a_warm_store(tmp_path, monkeypatch):
    # every case twice in one process, forwards then backwards, with the
    # factored attempts and parsed config blocks of the reports before it
    # kept: later reports cut, grow or skip stored attempts, take their
    # inputs from the memo, and some of both are dropped for newer ones
    monkeypatch.delenv("MUNTZ_PRECISION_BITS", raising=False)
    order = sorted(CASES)
    assert [case for case in order + order[::-1]
            if _digest(case, tmp_path) != DIGESTS[case]] == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("cores", [2, 3, 4])
@pytest.mark.parametrize("case", ["hereditary_sweep", "hereditary_sweep_csv"])
def test_forked_sweep_report_bytes(case, cores, tmp_path, monkeypatch):
    # the sweep's bytes do not depend on the usable core count, and it
    # starts no worker of the fork-map pool
    monkeypatch.delenv("MUNTZ_PRECISION_BITS", raising=False)
    force_sweep_forking(monkeypatch, cores)
    assert _digest(case, tmp_path) == DIGESTS[case]
    assert forkmap_module._POOL == []


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
            mark = "" if digest == DIGESTS.get(case) else "  # changed"
            print(f'    "{case}": "{digest}",{mark}')
        print("}")
