"""Magnitude sweep: at any scale a member gets an answer or a typed error.

Each example draws a rank, a cell, a ``random_params`` seed and two decimal
exponents in -300..300.  One exponent scales the lead slots b00, b01 and
b11, the other the chain slots (b12, b14, ..., b).  Exact zeros stay zero,
so the cell's required zeros hold.  ``classify``, ``orbit_invariant`` and
``isomorphic(p, t.p)`` must return a value or raise a ``FiliformError``;
every returned witness must reproduce its target through ``act_on_params``;
the verbs ``classify``, ``isomorphic`` and ``act`` must exit 0, 2 or 3.
The examples are derandomized, so every run checks the same members.
"""

import contextlib
import io
import json
import sys
from unittest import mock

from hypothesis import given, settings, strategies as st

from filiform_ce import (
    FiliformError,
    act_on_params,
    classify,
    isomorphic,
    orbit_invariant,
    params_from_tuple,
    random_params,
    random_transform,
)
from filiform_ce import cli, jsonio
from filiform_ce.classify import MATCH_TOL
from filiform_ce.subsets import SUBSETS

SWEEP = settings(derandomize=True, deadline=None, max_examples=1000)


@st.composite
def members(draw):
    n = draw(st.integers(4, 8))
    cell = draw(st.sampled_from([spec.name for spec in SUBSETS[n]]))
    v = random_params(n, cell, seed=draw(st.integers(0, 10**6))).as_tuple()
    lead, chain = 10.0 ** draw(st.integers(-300, 300)), 10.0 ** draw(st.integers(-300, 300))
    return params_from_tuple(n, [x * lead for x in v[:3]] + [x * chain for x in v[3:]])


def deviation(p, q):
    return max(abs(x - y) for x, y in zip(p.as_tuple(), q.as_tuple()))


def image(p, seed):
    """t.p for a seeded transform t, or None where the action raises a typed error."""
    t = random_transform(p.n, seed=seed, b=p.b)
    try:
        return t, act_on_params(t, p)
    except FiliformError:
        return t, None


@SWEEP
@given(members())
def test_classify_answers_or_raises_typed(p):
    try:
        label = classify(p)
    except FiliformError:
        pass
    else:
        rep = label.representative
        assert deviation(act_on_params(label.witness, p), rep) <= MATCH_TOL * (1 + rep.scale())
    try:
        orbit_invariant(p)
    except FiliformError:
        pass


@SWEEP
@given(members(), st.integers(0, 10**6))
def test_isomorphic_to_an_image_answers_or_raises_typed(p, seed):
    _, q = image(p, seed)
    if q is None:
        return
    try:
        same, witness = isomorphic(p, q)
    except FiliformError:
        return
    if same:
        assert deviation(act_on_params(witness, p), q) <= MATCH_TOL * (1 + q.scale())


def run_cli(argv, payload) -> int:
    stdin = io.StringIO(json.dumps(payload))
    with mock.patch.object(sys, "stdin", stdin), contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)


@SWEEP
@given(members(), st.integers(0, 10**6))
def test_closed_form_verbs_exit_0_2_or_3(p, seed):
    t, q = image(p, seed)
    encoded = jsonio.encode_params(p)
    assert run_cli(["classify"], encoded) in (0, 2, 3)
    assert run_cli(["act"], {"params": encoded, "transform": jsonio.encode_transform(t)}) in (0, 2, 3)
    if q is not None:
        assert run_cli(["isomorphic"], {"first": encoded, "second": jsonio.encode_params(q)}) in (0, 2, 3)
