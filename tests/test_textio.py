"""Malformed instance text is refused with a ParseError that names its line."""

import numpy as np
import pytest

from dgres import battery, textio
from dgres import heartkit as hk

P = 32003

ALGEBRA = "p 32003\nalgebra builtin triangular(2)\n"
PLAIN = "p 32003\nalgebra\ndegree 0 names one x\nunit one\nmul x x = 0\n"

# (text, the line the error must name, a fragment of its message)
BAD = {
    "bare-unit": ("p 32003\nalgebra\ndegree 0 names one\nunit\n", 4, "expected 'unit <combo>'"),
    "module-builtin-without-argument": (ALGEBRA + "module M builtin M_of\n", 3, "M_of needs a shift"),
    "free-with-a-name": (ALGEBRA + "module M builtin free(a)\n", 3, "builtin 'free\\(a\\)'"),
    "triangular-with-a-name": ("p 32003\nalgebra builtin triangular(x)\n", 2, "builtin 'triangular\\(x\\)'"),
    "unknown-builtin-algebra": ("p 32003\nalgebra builtin nosuch(2)\n", 2, "unknown builtin algebra 'nosuch'"),
    "missing-heart-simple": (ALGEBRA + "module M builtin heart(S9)\n", 3, "asked for S9"),
    "module-without-degree": (PLAIN + "\nmodule M\nact m x = 0\n", 7, "no degree line"),
}


@pytest.mark.parametrize("case", BAD)
def test_parse_names_the_line_of_a_bad_block(case):
    text, line_no, message = BAD[case]
    with pytest.raises(textio.ParseError, match=message) as err:
        textio.parse(text)
    assert err.value.line_no == line_no


def test_module_without_lines_is_the_zero_module():
    doc = textio.parse(PLAIN + "\nmodule Z\n")
    assert doc.modules["Z"].dims == {}


def test_d_line_into_an_empty_degree_stores_no_entry():
    doc = textio.parse(PLAIN + "\nmodule M\ndegree 0 names m\nd m = 0\nact m x = 0\n")
    assert doc.modules["M"].diff == {}


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def _reads_the_same(X, Y):
    """Equal dims and equal diff_mat and act_tensor in every degree."""
    degs = sorted(set(X.dims) | set(Y.dims) | {i + 1 for i in X.dims})
    return X.degrees() == Y.degrees() and all(X.dim(i) == Y.dim(i) for i in degs) and all(
        _same(X.diff_mat(i), Y.diff_mat(i))
        and all(_same(X.act_tensor(i, j), Y.act_tensor(i, j)) for j in X.algebra.degrees())
        for i in degs
    )


@pytest.mark.parametrize("spec", ["field()", "product(field(), field())", "matrix(2)", "nilpotent(2)",
                                  "triangular(2)", "koszul(x; k[x]/(x^2))", "triangular(4)",
                                  "koszul(x,y; k[x,y]/(x^2,y^2))"])
def test_emitted_modules_parse_back_unchanged(spec):
    # a unit with several terms (field x field, matrix(2), triangular(n))
    # presets no action, so an emitted module's zero products stay zero
    R = battery.builtin_algebra(spec, P)
    sims = len(hk.simples(hk.heart_of(R).h0))
    mods = {"R": R.regular_module(), "M1": battery.m_of(R, 1), "psi": battery.psi_cogenerator(R)}
    mods.update({f"S{i}": battery.heart_simple(R, i) for i in range(sims)})
    doc = textio.parse(textio.emit(textio.InputDocument(P, R, modules=dict(mods))))
    assert _reads_the_same(doc.algebra.regular_module(), R.regular_module()) and _same(doc.algebra.unit, R.unit)
    assert doc.modules.keys() == mods.keys()
    assert [n for n in mods if not _reads_the_same(doc.modules[n], mods[n])] == []
