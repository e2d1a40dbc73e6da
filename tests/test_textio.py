"""Malformed instance text is refused with a ParseError that names its line."""

import pytest

from dgres import textio

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
