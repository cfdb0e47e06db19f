"""Scalar memory profiles: evaluation, conjugation, products, serialization."""

import re

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from gkslmap.profiles import (
    ConstantProfile,
    ConvProfile,
    ExpProfile,
    GaussianProfile,
    ProductProfile,
    SeparableProfile,
    SingleVarFactor,
    TabulatedProfile,
    profile_from_doc,
    profile_product,
    profile_to_doc,
)
from gkslmap.serialize import FormatError

times = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)


def test_constant_profile():
    p = ConstantProfile(0.5 - 0.25j)
    assert p(1.0, 0.3) == 0.5 - 0.25j
    assert p.conjugate()(0.0, 0.0) == 0.5 + 0.25j
    assert p.is_convolution


def test_exp_profile_decay_and_oscillation():
    p = ExpProfile(-1.0 + 2.0j)
    t, tp = 1.5, 0.5
    assert p(t, tp) == pytest.approx(np.exp((-1.0 + 2.0j) * (t - tp)))
    assert p.conjugate()(t, tp) == pytest.approx(np.exp((-1.0 - 2.0j) * (t - tp)))


def test_gaussian_profile_peak_and_width():
    p = GaussianProfile(tau=0.7)
    assert p(2.0, 2.0) == 1.0
    assert p(2.0, 1.3) == pytest.approx(np.exp(-1.0))


def test_profiles_vectorize_over_grids():
    p = ExpProfile(-0.5)
    t = np.linspace(0, 1, 5)
    vals = p(t[:, None], t[None, :])
    assert vals.shape == (5, 5)
    assert vals[3, 1] == pytest.approx(np.exp(-0.5 * (t[3] - t[1])))


def test_separable_profile_convolution_predicate():
    const = SingleVarFactor("constant", value=2.0)
    assert SeparableProfile(const, const).is_convolution
    f = SingleVarFactor("exp", rate=-1.0)
    g = SingleVarFactor("exp", rate=1.0)
    assert SeparableProfile(f, g).is_convolution  # e^{-t} e^{+t'} = e^{-(t-t')}
    assert not SeparableProfile(f, f).is_convolution
    gauss = SingleVarFactor("gaussian", tau=1.0)
    assert not SeparableProfile(f, gauss).is_convolution
    # Sep(e^{at}, 1) * Sep(1, e^{-as}) = e^{a(t-s)}: the rates cancel across factors
    one = SingleVarFactor("constant")
    up = SingleVarFactor("exp", rate=-0.7 + 0.4j)
    down = SingleVarFactor("exp", rate=0.7 - 0.4j)
    prod = profile_product(SeparableProfile(up, one), SeparableProfile(one, down))
    assert isinstance(prod, ProductProfile) and prod.is_convolution
    assert not profile_product(SeparableProfile(up, one), SeparableProfile(one, up)).is_convolution


@given(times, times)
@settings(max_examples=40, deadline=None)
def test_profile_product_is_pointwise(t, tp):
    pairs = [
        (ConstantProfile(0.3 + 0.1j), ExpProfile(-0.8)),
        (ExpProfile(-0.5 + 1.0j), ExpProfile(-0.25 - 1.0j)),
        (GaussianProfile(1.2), GaussianProfile(0.9)),
        (ExpProfile(-1.0), GaussianProfile(1.0)),
        (
            SeparableProfile(SingleVarFactor("exp", rate=-0.3), SingleVarFactor("constant")),
            ConstantProfile(2.0),
        ),
        (ConstantProfile(1.0), GaussianProfile(0.7)),
        (ExpProfile(-0.4), ConstantProfile(1.0)),
    ]
    for a, b in pairs:
        prod = profile_product(a, b)
        assert complex(prod(t, tp)) == pytest.approx(complex(a(t, tp)) * complex(b(t, tp)))


SEP_GAUSS = SeparableProfile(
    SingleVarFactor("exp", rate=-0.5 + 0.3j), SingleVarFactor("gaussian", tau=1.3)
)
SEP_CONST_G = SeparableProfile(
    SingleVarFactor("gaussian", tau=0.9), SingleVarFactor("constant", value=0.5 - 0.2j)
)
TABLE = TabulatedProfile(3.0, np.arange(16.0).reshape(4, 4) + 1j)
CONST = SingleVarFactor("constant", value=0.6 - 0.3j)

CLOSED_PROFILES = [
    ConstantProfile(0.8 - 0.3j),
    ExpProfile(-1.2 + 0.6j),
    ExpProfile(0.9j),
    GaussianProfile(1.1),
    SEP_GAUSS,
    SEP_CONST_G,
    SeparableProfile(SingleVarFactor("constant", value=2.0), SingleVarFactor("exp", rate=0.4)),
    profile_product(ExpProfile(-0.8 + 0.5j), SEP_GAUSS.conjugate()),
    profile_product(GaussianProfile(1.3), SEP_CONST_G.conjugate()),
    profile_product(profile_product(ConstantProfile(0.6j), SEP_GAUSS), ExpProfile(-0.2)),
    profile_product(ConvProfile(CONST), SEP_GAUSS),
    ProductProfile((ExpProfile(-0.3), ProductProfile((SEP_GAUSS, GaussianProfile(0.7))))),
]


TABLE_PRODUCTS = [
    profile_product(ExpProfile(-0.5), TABLE),
    profile_product(TABLE, TABLE.conjugate()),
    ProductProfile((GaussianProfile(1.0), ProductProfile((SEP_GAUSS, TABLE)))),
]


@given(times, times)
@settings(max_examples=40, deadline=None)
def test_normal_form_is_pointwise(t, tp):
    for p in CLOSED_PROFILES + [TABLE] + TABLE_PRODUCTS:
        value = 0.0
        for conv, f, g in p.form:
            # a constant is a conv factor only alone; in a product it rides with f
            assert isinstance(p, ConvProfile) or all(fac.kind != "constant" for fac in conv), p
            parts = [fac(t - tp) for fac in conv] + [fac(t) for fac in f] + [fac(tp) for fac in g]
            value = value + np.prod(parts)
        expected = complex(p(t, tp))
        assert abs(value - expected) <= 1e-12 * abs(expected), p
    assert profile_product(ConvProfile(CONST), SEP_GAUSS).form == (
        ((), (SEP_GAUSS.f, CONST), (SEP_GAUSS.g,)),
    )


def test_a_table_form_is_one_hat_term_per_knot():
    def linear(samples):
        return SingleVarFactor("linear", t_max=3.0, samples=tuple(map(complex, samples)))

    hats = [linear(np.eye(4)[a]) for a in range(4)]
    rows = [linear(row) for row in TABLE.values]
    assert TABLE.form == tuple(((), (hat,), (row,)) for hat, row in zip(hats, rows))
    assert TABLE.conjugate().form == tuple(
        ((), (hat,), (row.conjugate(),)) for hat, row in zip(hats, rows)
    )
    assert all(len(p.form) == 1 for p in CLOSED_PROFILES)
    # of the 16 hat products of TABLE x conj(TABLE), those of knots more than one apart vanish
    assert [len(p.form) for p in TABLE_PRODUCTS] == [4, 10, 4]
    for p in [TABLE] + TABLE_PRODUCTS:
        assert not p.is_convolution


def test_a_product_drops_the_terms_that_vanish_everywhere():
    n = 40
    big = TabulatedProfile(2.0, np.ones((n, n)))
    assert len(profile_product(big, big.conjugate()).form) == 3 * n - 2
    # rows nonzero on spans that only touch: every term vanishes
    early = TabulatedProfile(2.0, [[1, 0, 0]] * 3)
    late = TabulatedProfile(2.0, [[0, 0, 1]] * 3)
    product = profile_product(early, late)
    assert product.form == () and product.is_convolution
    t = np.linspace(0.0, 2.0, 41)
    assert not product(t[:, None], t[None, :]).any()


def test_tables_read_their_samples_exactly_at_every_knot():
    for table in (TabulatedProfile(2.0, [[0, 1, 2], [3, 4, 5], [6, 7, 100]]), TABLE):
        n = len(table.values)
        knots = np.arange(n) * (table.t_max / (n - 1))
        vals = table(knots[:, None], knots[None, :])
        assert np.array_equal(vals, table.values)
        for a in range(n):
            hat = table.form[a][1][0]
            assert np.array_equal(hat(knots), np.eye(n)[a])
            assert np.array_equal(table.form[a][2][0](knots), table.values[a])


def test_profile_product_fuses_exponentials():
    prod = profile_product(ExpProfile(-1.0), ExpProfile(2.0j))
    assert isinstance(prod, ConvProfile) and prod.factor.kind == "exp"
    assert prod.factor.rate == -1.0 + 2.0j


@pytest.mark.parametrize(
    "a, b, fused",
    [
        (ConstantProfile(0.5j), ConstantProfile(2.0 - 1.0j), ConstantProfile(0.5j * (2.0 - 1.0j))),
        (ExpProfile(-1.0 + 0.5j), ExpProfile(-0.25 - 2.0j), ExpProfile(-1.25 - 1.5j)),
        (GaussianProfile(0.6), GaussianProfile(0.8),
         GaussianProfile(1.0 / np.sqrt(1.0 / 0.6**2 + 1.0 / 0.8**2))),
        # a unit constant on either side is dropped
        (ConstantProfile(1.0), GaussianProfile(0.7), GaussianProfile(0.7)),
        (ExpProfile(-0.4), ConstantProfile(), ExpProfile(-0.4)),
        (ConstantProfile(1.0 + 0.0j), SEP_GAUSS, SEP_GAUSS),
        (TABLE, ConstantProfile(1.0), TABLE),
    ],
)
def test_profile_product_fuses_single_factors(a, b, fused):
    assert profile_product(a, b) == fused


def test_single_var_factor_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown factor kind 'expo'"):
        SingleVarFactor("expo", rate=1.0)


@pytest.mark.parametrize(
    "profile, formula, conjugate",
    [
        (ConstantProfile(0.8 - 0.3j), lambda x: np.full(x.shape, 0.8 - 0.3j, dtype=complex),
         ConstantProfile(0.8 + 0.3j)),
        (ExpProfile(-1.2), lambda x: np.exp(-1.2 * x).astype(complex), ExpProfile(-1.2)),
        (ExpProfile(0.9j), lambda x: np.exp(0.9j * x), ExpProfile(-0.9j)),
        (ExpProfile(-1.2 + 0.6j), lambda x: np.exp((-1.2 + 0.6j) * x), ExpProfile(-1.2 - 0.6j)),
        (GaussianProfile(1.1), lambda x: np.exp(-((x / 1.1) ** 2)).astype(complex),
         GaussianProfile(1.1)),
    ],
)
def test_single_factor_profiles_are_their_factor_of_t_minus_tp(profile, formula, conjugate):
    t = np.linspace(0.0, 2.5, 6)
    t, tp = t[:, None], t[None, :]
    vals = profile(t, tp)
    assert vals.shape == (6, 6) and vals.dtype == complex
    assert vals.tobytes() == profile.factor(t - tp).tobytes() == formula(t - tp).tobytes()
    assert profile.form == (((profile.factor,), (), ()),)
    assert profile.conjugate() == conjugate


def test_profiles_are_hashable_for_table_sharing():
    assert ExpProfile(-1.0) == ExpProfile(-1.0)
    assert len({ExpProfile(-1.0), ExpProfile(-1.0), ConstantProfile(1.0)}) == 2
    tab = TabulatedProfile(1.0, np.array([[0.0, 1.0], [-0.0, 2.0 + 1.0j]]))
    twin = TabulatedProfile(1.0, [[0.0, 1.0], [0.0, 2.0 + 1.0j]])
    assert tab == twin and hash(tab) == hash(twin)
    assert len({tab, twin, tab.conjugate()}) == 2
    assert tab.conjugate().conjugate() == tab
    assert tab != TabulatedProfile(2.0, tab.values)
    assert not tab.values.flags.writeable


def test_tabulated_profile_bilinear_values():
    values = np.array([[0.0, 1.0], [1.0, 2.0]])
    p = TabulatedProfile(2.0, values)
    assert p(0.0, 0.0) == 0.0
    assert p(2.0, 2.0) == pytest.approx(2.0)
    assert p(1.0, 1.0) == pytest.approx(1.0)  # bilinear midpoint
    assert p(2.0, 0.0) == pytest.approx(1.0)


def test_tabulated_profile_rejects_out_of_domain():
    p = TabulatedProfile(1.0, np.ones((3, 3)))
    with pytest.raises(ValueError):
        p(1.5, 0.0)


@pytest.mark.parametrize(
    "profile",
    [
        ConstantProfile(1.5 - 0.5j),
        ExpProfile(-2.0),
        ExpProfile(-1.0 + 3.0j),
        ExpProfile(1.5j),
        GaussianProfile(0.8),
        SeparableProfile(
            SingleVarFactor("exp", rate=-0.4), SingleVarFactor("gaussian", tau=1.1)
        ),
        TabulatedProfile(2.5, np.arange(9.0).reshape(3, 3)),
        ProductProfile(
            (
                SeparableProfile(SingleVarFactor("exp", rate=-0.6), SingleVarFactor("gaussian")),
                SeparableProfile(SingleVarFactor("exp", rate=0.2j), SingleVarFactor("constant")),
                ExpProfile(1.5j),
                ConstantProfile(0.5 - 0.25j),
            )
        ),
    ],
)
def test_profile_doc_round_trip(profile):
    doc = profile_to_doc(profile)
    back = profile_from_doc(doc)
    t = np.linspace(0, 2.2, 7)
    assert np.allclose(back(t[:, None], t[None, :]), profile(t[:, None], t[None, :]))
    assert back == profile


def test_profile_from_doc_reports_offending_field():
    with pytest.raises(FormatError) as err:
        profile_from_doc({"kind": "exponential-decay"}, field="lindblad[0][0].profile")
    assert "lindblad[0][0].profile" in str(err.value)
    with pytest.raises(FormatError):
        profile_from_doc({"kind": "no-such-kind"})
    with pytest.raises(FormatError, match=r"^profile\.omgea: unknown key"):
        profile_from_doc({"kind": "oscillatory", "omega": 1.0, "omgea": 1.0})
    # products a document cannot hold, each with the field its error must name; a
    # table inside a product would get past a kernel's horizon and Hermiticity checks
    closed = SeparableProfile(SingleVarFactor("exp", rate=-0.5), SingleVarFactor("gaussian"))
    table = TabulatedProfile(2.0, np.ones((3, 3)))
    bad_products = [
        (ProductProfile((closed,)), "profile.factors"),
        (ProductProfile((closed, table)), "profile.factors[1]"),
        (ProductProfile((ProductProfile((closed, closed)), closed)), "profile.factors[0]"),
    ]
    for product, field in bad_products:
        with pytest.raises(FormatError, match=rf"^{re.escape(field)}: "):
            profile_to_doc(product)
        doc = {"kind": "product", "factors": [profile_to_doc(f) for f in product.factors]}
        with pytest.raises(FormatError, match=rf"^{re.escape(field)}: "):
            profile_from_doc(doc)
    for factors in ({"kind": "constant"}, None):
        with pytest.raises(FormatError, match=r"^profile\.factors: "):
            profile_from_doc({"kind": "product", "factors": factors})
