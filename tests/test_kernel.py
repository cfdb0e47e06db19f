"""Kernel container: construction, validation, splitting, serialization."""

import json
from pathlib import Path

import numpy as np
import pytest

from gkslmap.experiments import coherence_revival_kernel, corpus_kernels, random_drift
from gkslmap.kernel import (
    GKSLKernel,
    TwoTimeOperatorFunction,
    load_drift_spec,
    load_kernel_spec,
    save_drift_spec,
    save_kernel_spec,
    split_kernel,
)
from gkslmap.linalg import SIGMA_MINUS, SIGMA_X, SIGMA_Z, dagger, random_operator, vectorize
from gkslmap.profiles import (
    ConstantProfile,
    ExpProfile,
    GaussianProfile,
    ProductProfile,
    SeparableProfile,
    SingleVarFactor,
    TabulatedProfile,
    profile_to_doc,
)
from gkslmap.serialize import FormatError, canonical_dumps
from oracles import eval_kernel_superop


def dephasing(kappa=1.0, g=1.0):
    sz = TwoTimeOperatorFunction.build(2, [(ExpProfile(-kappa), SIGMA_Z)])
    return GKSLKernel.build(2, jump_ops=[sz], coupling=g)


def test_build_validates_dimensions():
    with pytest.raises(ValueError):
        GKSLKernel.build(1)
    with pytest.raises(ValueError):
        GKSLKernel.build(9)
    with pytest.raises(ValueError):
        TwoTimeOperatorFunction.build(2, [(ConstantProfile(1.0), np.eye(3))])
    bad = TwoTimeOperatorFunction.build(3, [(ConstantProfile(1.0), np.eye(3))])
    with pytest.raises(ValueError):
        GKSLKernel.build(2, jump_ops=[bad])


def test_split_recombines_to_full_kernel(rng):
    ops = [
        TwoTimeOperatorFunction.build(3, [(ExpProfile(-0.7 + 0.3j), random_operator(rng, 3))]),
        TwoTimeOperatorFunction.build(
            3,
            [
                (ConstantProfile(0.4), random_operator(rng, 3)),
                (ExpProfile(-2.0), random_operator(rng, 3)),
            ],
        ),
    ]
    herm = TwoTimeOperatorFunction.build(
        3, [(GaussianProfile(1.3), np.diag([0.3, -0.1, 0.2]))]
    )
    k = GKSLKernel.build(3, hermitian=herm, jump_ops=ops, coupling=0.8)
    parts = split_kernel(k)
    for t, tp in [(0.9, 0.2), (1.7, 1.7), (2.4, 0.0)]:
        recombined = parts.jump_part(t, tp) - parts.drift_part(t, tp)
        assert np.allclose(recombined, eval_kernel_superop(k, t, tp), atol=1e-12)


EPS = np.finfo(float).eps


def pointwise(fn, t, tp):
    """Reference evaluation at one (t, t'): sum_k complex(c_k(t, t')) A_k."""
    out = np.zeros((fn.dim, fn.dim), dtype=complex)
    for p, a in fn.terms:
        out += complex(p(t, tp)) * a
    return out


def test_array_call_equals_pointwise_evaluation(rng):
    sep = SeparableProfile(
        SingleVarFactor("exp", rate=-0.4 + 0.2j), SingleVarFactor("gaussian", tau=1.3)
    )
    tab = TabulatedProfile(3.0, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    op = TwoTimeOperatorFunction.build(
        3,
        [
            (ExpProfile(-0.7 + 0.3j), random_operator(rng, 3)),
            (GaussianProfile(1.1), random_operator(rng, 3)),
            (sep, random_operator(rng, 3)),
            (tab, random_operator(rng, 3)),
            (ConstantProfile(0.4 - 0.2j), random_operator(rng, 3)),
        ],
    )
    superop = split_kernel(GKSLKernel.build(3, jump_ops=[op])).jump_part
    assert superop.dim == 9
    ts = np.linspace(0.0, 2.5, 6)
    for fn in (op, superop):
        for t, tp in [(ts[:, None], ts[None, :]), (1.7, ts), (ts, 0.3), (ts, ts[::-1])]:
            got = fn(t, tp)
            tb, tpb = np.broadcast_arrays(t, tp)
            assert got.shape == tb.shape + (fn.dim, fn.dim)
            for idx in np.ndindex(tb.shape):
                # the same bits as a call at the point; the per-term sum to rounding
                assert np.array_equal(got[idx], fn(float(tb[idx]), float(tpb[idx])))
                ref = pointwise(fn, tb[idx], tpb[idx])
                assert np.max(np.abs(got[idx] - ref)) <= 8 * EPS * np.max(np.abs(ref))
        assert fn(1.7, 0.3).shape == (fn.dim, fn.dim)
    assert TwoTimeOperatorFunction(2, ())(ts, 0.0).shape == (6, 2, 2)


def test_split_drift_includes_hermitian_part():
    h = np.array([[0.0, 1.0], [1.0, 0.0]])
    herm = TwoTimeOperatorFunction.build(2, [(ConstantProfile(1.0), h)])
    parts = split_kernel(GKSLKernel.build(2, hermitian=herm))
    assert np.allclose(parts.drift_op(0.3, 0.1), 1j * h)


def test_eval_rejects_reversed_time_order():
    with pytest.raises(ValueError):
        eval_kernel_superop(dephasing(), 0.3, 0.9)


def test_check_hermiticity_rejects_bad_profile():
    # sigma_z with a purely oscillatory profile: h(t,t') is not Hermitian
    herm = TwoTimeOperatorFunction.build(2, [(ExpProfile(0.5j), 1j * np.eye(2))])
    k = GKSLKernel.build(2, hermitian=herm)
    with pytest.raises(ValueError):
        k.check_hermiticity()
    dephasing().check_hermiticity()


def test_check_hermiticity_samples_tables_within_their_common_horizon():
    # real tables are Hermitian as profiles of sigma_x; the short one caps the
    # samples at t = 1, so neither the long table's far nodes nor t = 1.7 raise
    short = TabulatedProfile(1.0, np.ones((3, 3)))
    bent = np.ones((5, 5), dtype=complex)
    bent[4, 0] = 1 + 1j  # at (3, 0), past the common horizon
    long = TabulatedProfile(3.0, bent)
    terms = [(short, SIGMA_X), (long, SIGMA_X)]
    GKSLKernel.build(2, hermitian=TwoTimeOperatorFunction.build(2, terms)).check_hermiticity()
    alone = GKSLKernel.build(2, hermitian=TwoTimeOperatorFunction.build(2, terms[1:]))
    with pytest.raises(ValueError, match=r"\(3\.0, 0\.0\)"):
        alone.check_hermiticity()


def test_check_horizon_for_tabulated_profiles():
    p = TabulatedProfile(1.5, np.ones((4, 4)))
    op = TwoTimeOperatorFunction.build(2, [(p, SIGMA_Z)])
    k = GKSLKernel.build(2, jump_ops=[op])
    k.check_horizon(1.4)
    with pytest.raises(ValueError):
        k.check_horizon(2.0)


def test_with_coupling_rescales_quadratically():
    k = dephasing(g=1.0)
    s1 = eval_kernel_superop(k, 1.0, 0.4)
    s2 = eval_kernel_superop(k.with_coupling(0.5), 1.0, 0.4)
    assert np.allclose(s2, 0.25 * s1)


def test_kernel_doc_round_trip():
    herm = TwoTimeOperatorFunction.build(2, [(ConstantProfile(0.3), np.diag([0.5, -0.5]))])
    jumps = [
        TwoTimeOperatorFunction.build(2, [(ExpProfile(-1.0 + 2.0j), SIGMA_MINUS)]),
        TwoTimeOperatorFunction.build(2, [(GaussianProfile(0.9), SIGMA_Z)]),
    ]
    k = GKSLKernel.build(2, hermitian=herm, jump_ops=jumps, coupling=0.35)
    back = load_kernel_spec(save_kernel_spec(k))
    assert back.dim == 2
    assert back.coupling == pytest.approx(0.35)
    for t, tp in [(0.0, 0.0), (1.2, 0.5), (2.0, 1.9)]:
        assert np.allclose(
            eval_kernel_superop(back, t, tp), eval_kernel_superop(k, t, tp), atol=1e-14
        )


def test_kernel_doc_errors_name_the_field():
    doc = save_kernel_spec(dephasing())
    doc["lindblad"][0][0]["operator"]["entries"][1] = ["oops", 0.0]
    with pytest.raises(FormatError) as err:
        load_kernel_spec(doc)
    assert "lindblad[0][0].operator" in str(err.value)
    with pytest.raises(FormatError, match="dim"):
        load_kernel_spec({"coupling_g": 1.0})
    with pytest.raises(FormatError, match="coupling_g"):
        load_kernel_spec({"dim": 2, "coupling_g": -2.0})
    with pytest.raises(FormatError, match="^lindbald: unknown key"):
        load_kernel_spec({"dim": 2, "lindbald": []})


def test_saved_documents_load_under_the_key_check():
    for k in (*corpus_kernels(20), coherence_revival_kernel()):
        assert load_kernel_spec(save_kernel_spec(k)).dim == k.dim
    for seed in range(101, 111):
        w = random_drift(seed)
        assert load_drift_spec(save_drift_spec(w)).dim == w.dim


def test_drift_spec_round_trip():
    w = TwoTimeOperatorFunction.build(
        2, [(ExpProfile(-1.0), np.array([[0.2, 0.0], [0.0, 0.4]]))]
    )
    loaded = load_drift_spec(save_drift_spec(w))
    for t, tp in [(0.5, 0.1), (1.0, 1.0)]:
        assert np.allclose(loaded(t, tp), w(t, tp), atol=1e-14)
    with pytest.raises(FormatError, match="drift"):
        load_drift_spec({"dim": 2})
    # a kernel's drift operator: its jump pairings are products of two separable profiles
    path = Path(__file__).resolve().parents[1] / "configs" / "gscan_kernel.json"
    w = split_kernel(load_kernel_spec(json.loads(path.read_text()))).drift_op
    assert any(isinstance(p, ProductProfile) for p, _ in w.terms)
    loaded = load_drift_spec(json.loads(canonical_dumps(save_drift_spec(w))))
    assert len(loaded.terms) == len(w.terms)
    for (p, a), (q, b) in zip(w.terms, loaded.terms):
        assert q == p and np.array_equal(b, a)
    # a table inside a product is refused both ways
    tab = TabulatedProfile(2.0, np.ones((3, 3)))
    w = TwoTimeOperatorFunction.build(2, [(ProductProfile((ExpProfile(-1.0), tab)), SIGMA_Z)])
    with pytest.raises(FormatError, match=r"^profile\.factors\[1\]: "):
        save_drift_spec(w)
    doc = save_drift_spec(TwoTimeOperatorFunction.build(2, [(ExpProfile(-1.0), SIGMA_Z)]))
    factors = [doc["drift"][0]["profile"], profile_to_doc(tab)]
    doc["drift"][0]["profile"] = {"kind": "product", "factors": factors}
    with pytest.raises(FormatError, match=r"^drift\[0\]\.profile\.factors\[1\]: "):
        load_drift_spec(doc)


def test_superop_action_matches_operator_form():
    k = dephasing()
    rho = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    t, tp = 1.1, 0.3
    s = eval_kernel_superop(k, t, tp)
    # the kernel is bilinear in L(t,t'), so the profile enters squared
    p2 = np.exp(-(t - tp)) ** 2
    direct = p2 * (SIGMA_Z @ rho @ dagger(SIGMA_Z)) - p2 * rho  # L^dag L = I for sigma_z
    assert np.allclose((s @ vectorize(rho)).reshape(2, 2, order="F"), direct, atol=1e-13)
