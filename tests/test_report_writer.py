"""The report writer against the two passes it replaced.

``cli._json`` walks a report once, formatting each distinct mpf once, and
writes the indented JSON itself.  Its text must be byte for byte what a
formatted copy of the tree (``_render`` below) gives through
``json.dumps(indent=2, sort_keys=True)``, which is how every report was
written before, for any tree of JSON values and mpfs.
"""

import json
import math
from unittest import mock

from hypothesis import given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import finf, fnan, fninf, from_man_exp, fzero

from muntz import cli
from muntz.precision import fmt


def _render(results, bits):
    """The tree with every mpf a decimal string at ``bits``, formatted once
    per raw value: the writer's former first pass, kept as a reference."""
    texts = {}

    def render(obj):
        if isinstance(obj, mp.mpf):
            text = texts.get(obj._mpf_)
            if text is None:
                text = texts[obj._mpf_] = fmt(obj, bits)
            return text
        if isinstance(obj, dict):
            return {key: render(value) for key, value in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [render(value) for value in obj]
        return obj

    return render(results)


def _reference(tree, bits):
    return json.dumps(_render(tree, bits), indent=2, sort_keys=True)


def _written(tree, bits):
    out = []
    cli._json(tree, cli._Texts(bits), out)
    return "".join(out)


def _outcome(write, tree, bits):
    """The text, or the type of what the write raised."""
    try:
        return write(tree, bits)
    except (TypeError, ValueError) as exc:
        return type(exc)


MPFS = st.one_of(
    st.sampled_from([fzero, finf, fninf, fnan]),
    st.builds(lambda sign, man, exp: from_man_exp(-man if sign else man, exp),
              st.booleans(), st.integers(1, 2 ** 300), st.integers(-1200, 400)),
).map(mp.make_mpf)
# text with quotes, backslashes, control and non-ASCII characters, astral ones
# included, which the encoder writes as surrogate pairs
TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fü '),
                         st.characters()), max_size=8)
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
                   st.floats(), TEXT, MPFS)
# keys are mostly text; a dict that mixes key types the encoder cannot
# sort raises TypeError in both writers
KEYS = st.one_of(TEXT, TEXT, st.integers(-5, 5), st.floats(allow_nan=False), st.booleans(),
                 st.none())


def _trees(keys):
    return st.recursive(
        LEAVES,
        lambda kids: st.one_of(st.lists(kids, max_size=5), st.lists(kids, max_size=5).map(tuple),
                               *(st.dictionaries(k, kids, max_size=5) for k in keys)),
        max_leaves=30)


TREES = _trees([TEXT, KEYS])


@settings(max_examples=400, deadline=None)
@given(tree=TREES, bits=st.sampled_from([64, 256, 1000]))
def test_writer_matches_render_and_indented_dumps(tree, bits):
    assert _outcome(_written, tree, bits) == _outcome(_reference, tree, bits)


def _raws(obj):
    if isinstance(obj, mp.mpf):
        return {obj._mpf_}
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return set().union(*map(_raws, obj))
    return set()


@settings(max_examples=100, deadline=None)
@given(tree=_trees([TEXT]), repeat=st.lists(MPFS, max_size=4))
def test_writer_formats_each_distinct_mpf_once(tree, repeat):
    # a value that recurs, as a named block and its rows do, costs one fmt
    tree = {"a": tree, "rows": [[k, x, x] for k, x in enumerate(repeat)], "b": repeat}
    with mock.patch.object(cli, "fmt", wraps=fmt) as spy:
        _written(tree, 256)
    assert spy.call_count == len(_raws(tree))


def test_writer_takes_special_floats_and_unwritable_leaves_as_the_encoder():
    tree = {-1: [math.nan, math.inf, -math.inf, -0.0, 1e300, 2 ** 80], 3: None, 2.5: True}
    assert _written(tree, 64) == _reference(tree, 64)
    for bad in ({"x": {1, 2}}, {(1, 2): 1}, [mp.mpc(1, 2)]):
        assert _outcome(_written, bad, 64) is _outcome(_reference, bad, 64) is TypeError
