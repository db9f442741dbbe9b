"""The packed edges of the package against their per-term references.

The series file reader and writer, the conjugation `bar_series` and the
z-rescale `normalize_lead` work on the packed integer tuples of a series.
Each must give exactly, in packed data and in order, what the per-term
GaussianRational versions in `reference.py` give: on zero and negative
components, sqrt2 parts, large denominators, odd and even rescaled
degrees, and a rescale lambda in Q or in sqrt2 * Q.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference
from reference import identical
from segrefuchs import serialize
from segrefuchs.errors import FormatError, NotNormalizableError
from segrefuchs.qfield import GaussianRational
from segrefuchs.series import EXACT, MultiSeries
from segrefuchs.surfaces import Z, ZB, WB, bar_series, normalize_lead

VARS = (Z, ZB, WB)
SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=100)

numerators = st.one_of(st.just(0), st.integers(-9, 9),
                       st.integers(-10 ** 30, 10 ** 30))
denominators = st.one_of(st.integers(1, 12), st.integers(1, 10 ** 25))
exponents = st.tuples(*[st.integers(0, 4)] * 3)


@st.composite
def coefficients(draw):
    """A coefficient with or without sqrt2 parts, any part possibly zero."""
    n = draw(st.sampled_from((2, 4)))
    parts = [Fraction(draw(numerators), draw(denominators))
             for _ in range(n)]
    c = GaussianRational.of(parts[0], parts[1])
    if n == 4:
        c = c + reference.of_sqrt2(parts[2], parts[3])
    return c


@st.composite
def series(draw, lead=None):
    """A series over (z, zb, wb), finite or exact, with up to 12 terms."""
    order = draw(st.one_of(st.integers(8, 14), st.just(EXACT)))
    terms = draw(st.dictionaries(exponents, coefficients(), max_size=12))
    if lead is not None:
        terms[(1, 1, 0)] = lead
    return MultiSeries(VARS, order, terms)


@st.composite
def file_terms(draw):
    """Term entries as a file may spell them: 2 or 4 "num/den" strings,
    zero parts, negative denominators, fractions not in lowest terms."""
    entries = []
    for e in draw(st.lists(exponents, unique=True, max_size=12)):
        n = draw(st.sampled_from((2, 4)))
        strings = []
        for _ in range(n):
            den = draw(denominators) * draw(st.sampled_from((1, 1, 1, -1)))
            strings.append("%d/%d" % (draw(numerators), den))
        entries.append([list(e)] + strings)
    return entries


@SETTINGS
@given(terms=file_terms(), order=st.sampled_from((12, 999999, 10 ** 6)))
def test_series_reader_matches_the_per_term_reader(terms, order):
    d = {"vars": list(VARS), "order": order, "terms": terms}
    read = EXACT if order >= serialize.EXACT_IN_FILE else order
    identical(serialize.series_from_json(d),
              reference.series_from_json(d, read))


@SETTINGS
@given(s=series())
def test_series_writer_matches_the_per_term_writer(s):
    order = serialize.EXACT_IN_FILE if s.order == EXACT else s.order
    d = serialize.series_to_json(s)
    assert d == reference.series_to_json(s, order)
    identical(serialize.series_from_json(d), s)


def test_series_reader_refuses_malformed_coefficients():
    base = {"vars": ["z"], "order": 3}
    for parts in (["1/0", "0/1"], ["1/2", "0/1", "1/1"], ["1/2"],
                  [1, "0/1"], ["1/2/3", "0/1"], ["x/2", "0/1"],
                  ["1/2", "0/1", "1/1", "0/0"]):
        with pytest.raises(FormatError):
            serialize.series_from_json(dict(base, terms=[[[1]] + parts]))


@SETTINGS
@given(s=series())
def test_bar_series_matches_the_per_term_conjugate(s):
    identical(bar_series(s), reference.bar_series(s))


@st.composite
def normalizable_leads(draw):
    """A rational z*zb coefficient c with 1/|c| = r^2 (lambda in Q) or
    1/|c| = 2 r^2 (lambda in sqrt2 * Q)."""
    r = Fraction(draw(st.integers(1, 10 ** 6)), draw(st.integers(1, 10 ** 6)))
    lam_sq = r * r * draw(st.sampled_from((1, 2)))
    return GaussianRational.of(draw(st.sampled_from((1, -1))) / lam_sq)


@SETTINGS
@given(data=st.data())
def test_normalize_lead_matches_the_per_term_rescale(data):
    s = data.draw(series(lead=data.draw(normalizable_leads())))
    eps, got, lam_sq = normalize_lead(s)
    ref_eps, ref, ref_lam_sq = reference.normalize_lead(s)
    assert (eps, lam_sq) == (ref_eps, ref_lam_sq)
    identical(got, ref)
    assert got.coefficient((1, 1, 0)) == GaussianRational.from_int(eps)


def test_normalize_lead_refuses_what_the_reference_refuses():
    for lead in (GaussianRational.of(3), GaussianRational.of(1, 1),
                 reference.of_sqrt2(1), GaussianRational.from_int(0)):
        s = MultiSeries(VARS, 8, {(1, 1, 0): lead, (2, 1, 0): lead})
        for f in (normalize_lead, reference.normalize_lead):
            with pytest.raises(NotNormalizableError):
                f(s)
