"""The memo of Expr operations and frame derivatives.

A hit must return what the same operation on the same canonical operands
computes with the memo empty; the memo must stay within its term budget;
and building a manifold must empty it.
"""

import os
import pickle
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from lcslab import cli, manifold, polyops
from lcslab.frame_geometry import Chart, VectorField
from lcslab.manifold import ManifoldData
from lcslab.symexpr import Expr, Var

from conftest import SRC, ad_hoc, builtin
from test_symexpr import expressions

XYZ = (Var("x"), Var("y"), Var("z"))
UVW = (Var("u"), Var("v"), Var("w"))  # a second chart: the same dicts, other variables
MEMO = polyops.expr_memo


def canonical(e: Expr):
    return e.vars, e.num, e.den


def on_chart(e: Expr, variables) -> Expr:
    return Expr._raw(variables, e.num, e.den)


def operations(a, b, field, other_field):
    """Every memoised operation on a and b, on both charts, each twice."""
    a2, b2 = on_chart(a, UVW), on_chart(b, UVW)
    field2 = VectorField(Chart(UVW), tuple(on_chart(c, UVW) for c in field.coeffs))
    calls = [
        lambda: a * b,
        lambda: a + b,
        lambda: a - b,
        lambda: b * a,
        lambda: b + a,
        lambda: b - a,
        lambda: a * a,
        lambda: b * b,
        lambda: field.apply(a),
        lambda: other_field.apply(a),
        lambda: field.apply(b),
        lambda: a2 * b2,
        lambda: a2 - b2,
        lambda: field2.apply(a2),
    ]
    return calls + calls


@given(expressions(), expressions(), st.lists(expressions(), min_size=6, max_size=6))
@settings(max_examples=40, deadline=None)
def test_memoised_operations_equal_the_same_operations_with_the_memo_emptied(a, b, coeffs):
    field = VectorField(Chart(XYZ), tuple(coeffs[:3]))
    other_field = VectorField(Chart(XYZ), tuple(coeffs[3:]))
    calls = operations(a, b, field, other_field)
    expected = []
    for call in calls:
        polyops.reset_memos()
        expected.append(canonical(call()))
    polyops.reset_memos()
    half = len(calls) // 2
    got = [call() for call in calls[:half]]
    stored = dict(MEMO.entries)
    got += [call() for call in calls[half:]]
    assert [canonical(e) for e in got] == expected
    # the second pass is answered by the memo: nothing new is stored, and
    # each stored result comes back as the very same object
    assert MEMO.entries == stored
    memoised = {id(e) for e in stored.values()}
    assert all(x is y for x, y in zip(got[:half], got[half:]) if id(x) in memoised)


@given(expressions(), expressions())
@settings(max_examples=40, deadline=None)
def test_products_equal_the_product_without_the_memo(a, b):
    # a product by the constant 1 is the other operand itself and is not
    # looked up or stored; every product equals the one formed directly
    one = Expr.one(a.vars)
    for x, y in ((a, b), (one, b), (a, one), (one, one)):
        polyops.reset_memos()
        direct = Expr(a.vars, polyops.poly_mul(x.num, y.num), polyops.poly_mul(x.den, y.den))
        assert canonical(x * y) == canonical(y * x) == canonical(direct)
    polyops.reset_memos()
    assert a * one is a and 1 * a is a and a * 1 is a
    assert one * a is (one if a == one else a)  # 1 * 1 keeps the left operand
    assert not MEMO.entries


def test_pinned_terms_stay_within_the_cap(monkeypatch):
    def pinned(key, value):
        operands = key[1:] if isinstance(key[0], str) else (key[1], *key[0].coeffs)
        return sum(e.size for e in (value, *operands))

    store, stores = MEMO.store, []

    def checked_store(key, value, terms):
        store(key, value, terms)
        stores.append(key)
        assert terms == pinned(key, value)
        assert MEMO.terms == sum(pinned(k, v) for k, v in MEMO.entries.items()) <= MEMO.max_terms

    # a cap far below a dense run's needs: the memo empties and refills
    monkeypatch.setattr(MEMO, "max_terms", 400)
    monkeypatch.setattr(MEMO, "store", checked_store)
    reports = cli.run("curvature", ad_hoc("dense-style"), {}).to_json()
    assert len(stores) > 10 * len(MEMO.entries)
    monkeypatch.undo()
    assert cli.run("curvature", ad_hoc("dense-style"), {}).to_json() == reports
    assert 0 < MEMO.terms <= polyops.EXPR_MEMO_TERMS


def test_an_oversized_entry_is_not_stored(monkeypatch):
    chart = Chart(XYZ)
    a, b = chart.parse("(x + y + z + 1)^3"), chart.parse("(x - y + 2)^2/(z + 3)")
    x1, y1, x1y1 = chart.parse("x + 1"), chart.parse("y - 1"), chart.parse("x*y - x + y - 1")
    product = a * b
    polyops.reset_memos()
    monkeypatch.setattr(MEMO, "max_terms", 60)
    assert x1 * y1 == x1y1
    assert MEMO.terms == 3 + 3 + 5 and len(MEMO.entries) == 1
    assert a.size + b.size + product.size > 60
    assert canonical(a * b) == canonical(product)  # computed, not stored
    assert MEMO.terms == 11 and len(MEMO.entries) == 1


def test_building_a_manifold_empties_both_memos(monkeypatch):
    data = builtin("example51")
    uvw = Chart(UVW)
    s, t = uvw.parse("u + 1"), uvw.parse("v + 1")
    p, q = {(5, 0, 0): 7, (0, 3, 0): 11}, {(5, 0, 0): 7, (0, 0, 4): 13}

    def fill():
        s * t
        polyops.poly_gcd(p, q)

    def filled():
        return bool({("*", s, t), ("*", t, s)} & MEMO.entries.keys()), (frozenset(p.items()), frozenset(q.items())) in polyops._memo.entries

    fill()
    assert filled() == (True, True)
    ManifoldData("again", data.frame, data.metric, data.xi_index)
    assert filled() == (False, False)

    # the CLI empties both before it parses a definition, not only when it
    # makes the ManifoldData: parsing and inverting the frame are this
    # manifold's arithmetic too
    fill()
    monkeypatch.setattr(manifold, "reset_memos", lambda: None)
    cli.build_manifold(cli.load("example51"))
    assert MEMO.entries and filled() == (False, False)


def test_a_pickled_expr_hashes_like_the_receiving_process_own(tmp_path):
    # the cached hash rests on the identities of this process's Vars, so a
    # pickle must not carry it: another process must hash the copy as it
    # hashes an equal Expr it built itself
    e = Chart(XYZ).parse("(x + y)/(z - 1)")
    hash(e)
    path = tmp_path / "expr.pickle"
    path.write_bytes(pickle.dumps(e))
    code = (
        "import pickle, sys; from lcslab.symexpr import Var, parse; "
        f"e = pickle.loads(open({str(path)!r}, 'rb').read()); "
        "same = parse('(x + y)/(z - 1)', (Var('x'), Var('y'), Var('z'))); "
        "sys.exit(not (e == same and hash(e) == hash(same) and len({e, same}) == 1))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
