"""Scalar two-time profiles c(t, t') multiplying constant operators in kernels.

The kinds accepted in kernel documents:

* ``constant``              c
* ``exponential-decay``     exp(-kappa (t - t')), optionally times exp(i omega (t - t'))
* ``oscillatory``           exp(i omega (t - t'))
* ``gaussian``              exp(-((t - t') / tau)^2)
* ``product-separable``     f(t) g(t') with f, g single-variable factors
* ``tabulated-grid``        bilinear interpolation of a uniform sample matrix
* ``product``               the product of two or more profiles of the kinds
                            above but ``tabulated-grid``

The four single-factor kinds are one class, ``ConvProfile``: c(t - t') of one
:class:`SingleVarFactor` c.  Profiles evaluate vectorized over numpy arrays.
Every profile declares its normal form (``form``), a sum of terms
c(t - t') f(t) g(t') of single-variable factors, which the solvers read and
from which the convolution predicate follows.  The closed-form kinds have one
term; a table of n knots has n, hat_a(t) row_a(t') with piecewise-linear
factors, which sum to its bilinear interpolation exactly.  Conjugation and
products are closed over the kinds plus a product node, which is what lets
drift operators and jump-pair coefficients stay in profile form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .serialize import FormatError, _object, is_finite_number

__all__ = [
    "Profile",
    "ConvProfile",
    "ConstantProfile",
    "ExpProfile",
    "GaussianProfile",
    "SeparableProfile",
    "TabulatedProfile",
    "ProductProfile",
    "SingleVarFactor",
    "profile_product",
    "profile_from_doc",
    "profile_to_doc",
]


def _cplx(value, field: str) -> complex:
    pair = (value, 0.0) if isinstance(value, (int, float)) else value
    if isinstance(pair, (list, tuple)) and len(pair) == 2 and all(map(is_finite_number, pair)):
        return complex(pair[0], pair[1])
    raise FormatError(f"{field}: expected a finite number or [re, im] pair, got {value!r}")


def _number(doc: dict, key: str, field: str, default=None, positive=False) -> float:
    """The finite number ``doc[key]``, positive if asked; errors name the field."""
    x = doc.get(key, default)
    if not is_finite_number(x) or (positive and x <= 0):
        raise FormatError(
            f"{field}.{key}: expected a {'positive' if positive else 'finite'} number"
        )
    return x


def _cplx_doc(z: complex):
    if z.imag == 0.0:
        return float(z.real)
    return [float(z.real), float(z.imag)]


def _cells(x: np.ndarray, t_max: float, n: int):
    """Cell index i in [0, n - 2] and offset in [0, 1] of each x on n uniform
    knots of [0, t_max]; raises outside that span, up to rounding."""
    eps = 1e-12 * max(1.0, t_max)
    if (x < -eps).any() or (x > t_max + eps).any():
        raise ValueError(
            f"tabulated profile evaluated outside [0, {t_max}]^2; "
            "re-tabulate with a larger t_max"
        )
    u = np.clip(x / (t_max / (n - 1)), 0.0, n - 1)
    i0 = np.minimum(np.floor(u).astype(int), n - 2)
    return i0, u - i0


def _disjoint(facs) -> bool:
    """True when the piecewise-linear factors among ``facs`` are nonzero on no
    common open span, so their product vanishes everywhere."""
    lo, hi = 0.0, np.inf
    for fac in facs:
        nz = np.flatnonzero(fac.samples) if fac.kind == "linear" else ()
        if len(nz):
            step = fac.t_max / (len(fac.samples) - 1)
            lo, hi = max(lo, (nz[0] - 1) * step), min(hi, (nz[-1] + 1) * step)
    return lo >= hi


@dataclass(frozen=True)
class SingleVarFactor:
    """One single-variable factor: constant, exp(rate*x), gaussian, or piecewise
    linear through ``samples`` on uniform knots of [0, t_max] (kind "linear")."""

    kind: str  # "constant" | "exp" | "gaussian" | "linear"
    value: complex = 1.0  # constant value
    rate: complex = 0.0  # exp factor exponent
    tau: float = 1.0  # gaussian width
    t_max: float = 1.0  # linear factor span
    samples: tuple = ()  # linear factor knot values, a tuple so factors hash

    def __post_init__(self):
        if self.kind not in ("constant", "exp", "gaussian", "linear"):
            raise ValueError(f"unknown factor kind {self.kind!r}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.full(x.shape, self.value, dtype=complex)
        if self.kind == "exp":
            return np.exp(self.rate * x).astype(complex)
        if self.kind == "linear":
            i0, fx = _cells(x, self.t_max, len(self.samples))
            v = np.asarray(self.samples, dtype=complex)
            return v[i0] * (1 - fx) + v[i0 + 1] * fx
        return np.exp(-((x / self.tau) ** 2)).astype(complex)

    def conjugate(self) -> "SingleVarFactor":
        """The conjugate factor: only the field its kind reads is conjugated."""
        if self.kind == "constant":
            return SingleVarFactor("constant", np.conj(self.value), self.rate, self.tau)
        if self.kind == "exp":
            return SingleVarFactor("exp", self.value, np.conj(self.rate), self.tau)
        if self.kind == "linear":
            samples = tuple(complex(v).conjugate() for v in self.samples)
            return SingleVarFactor("linear", t_max=self.t_max, samples=samples)
        return self  # a gaussian is real


class Profile:
    """Base class; subclasses implement __call__(t, tp), conjugate and form.

    ``form`` is the normal form, a tuple of terms (conv, f, g), each three
    tuples of :class:`SingleVarFactor`, with profile(t, s) the sum over terms
    of prod conv(t - s) * prod f(t) * prod g(s).
    """

    @property
    def form(self) -> tuple:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def is_convolution(self) -> bool:
        """True when every term depends on t - s only: f and g hold constant and
        exponential factors alone, and their rates cancel."""
        for _, f, g in self.form:
            if any(fac.kind not in ("constant", "exp") for fac in f + g):
                return False
            f_rate, g_rate = (sum(fac.rate for fac in facs if fac.kind == "exp") for facs in (f, g))
            if f_rate + g_rate != 0:
                return False
        return True

    def __call__(self, t, tp):  # pragma: no cover - abstract
        raise NotImplementedError

    def conjugate(self) -> "Profile":  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class ConvProfile(Profile):
    """The profile c(t - t') of one factor c."""

    factor: SingleVarFactor

    @property
    def form(self):
        return (((self.factor,), (), ()),)

    def __call__(self, t, tp):
        return self.factor(np.asarray(t, float) - np.asarray(tp, float))

    def conjugate(self):
        return ConvProfile(self.factor.conjugate())


def ConstantProfile(value: complex = 1.0) -> ConvProfile:
    """The constant profile c(t, t') = value."""
    return ConvProfile(SingleVarFactor("constant", value=value))


def ExpProfile(rate: complex = 0.0) -> ConvProfile:
    """exp(rate * (t - t')); rate = -kappa + i*omega covers decay and oscillation."""
    return ConvProfile(SingleVarFactor("exp", rate=rate))


def GaussianProfile(tau: float = 1.0) -> ConvProfile:
    """exp(-((t - t') / tau)^2)."""
    return ConvProfile(SingleVarFactor("gaussian", tau=tau))


@dataclass(frozen=True)
class SeparableProfile(Profile):
    """f(t) * g(t') for single-variable factors f and g."""

    f: SingleVarFactor
    g: SingleVarFactor

    @property
    def form(self):
        # a constant g depends on neither time, so it rides with f
        if self.g.kind == "constant":
            return (((), (self.f, self.g), ()),)
        return (((), (self.f,), (self.g,)),)

    def __call__(self, t, tp):
        t = np.asarray(t, float)
        tp = np.asarray(tp, float)
        return (self.f(t) * self.g(tp)).astype(complex)

    def conjugate(self):
        return SeparableProfile(self.f.conjugate(), self.g.conjugate())


@dataclass(frozen=True)
class TabulatedProfile(Profile):
    """Bilinear interpolation of values sampled on a uniform grid of [0, t_max]^2.

    ``values[i, j]`` is the sample at (t = i * t_max / (n-1), t' = j * t_max / (n-1)).
    Evaluation outside the covered square raises, so a solve over a horizon the
    table does not cover fails loudly rather than extrapolating.  ``values`` is
    a read-only complex copy of any array-like; equality and hash go through
    its bytes, whose hash Python computes once.
    """

    t_max: float
    values: np.ndarray = dataclass_field(compare=False)
    _key: bytes = dataclass_field(init=False, repr=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=complex)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1] or vals.shape[0] < 2:
            raise FormatError("tabulated-grid values must form a square matrix, n >= 2")
        if not self.t_max > 0:
            raise FormatError("tabulated-grid t_max must be positive")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_key", (vals + 0.0).tobytes())  # + 0.0: -0.0 equals 0.0

    @property
    def form(self):
        # bilinear interpolation is sum_a hat_a(t) row_a(t'), with hat_a the
        # hat function of knot a and row_a the interpolation of values[a]
        n = len(self.values)

        def linear(samples):
            return SingleVarFactor("linear", t_max=self.t_max, samples=tuple(map(complex, samples)))

        return tuple(
            ((), (linear(np.eye(1, n, a)[0]),), (linear(row),)) for a, row in enumerate(self.values)
        )

    def __call__(self, t, tp):
        t, tp = np.broadcast_arrays(np.asarray(t, float), np.asarray(tp, float))
        n = len(self.values)
        i0, fx = _cells(t, self.t_max, n)
        j0, fy = _cells(tp, self.t_max, n)
        v = self.values
        return (v[i0, j0] * (1 - fx) * (1 - fy) + v[i0 + 1, j0] * fx * (1 - fy)
                + v[i0, j0 + 1] * (1 - fx) * fy + v[i0 + 1, j0 + 1] * fx * fy).astype(complex)

    def conjugate(self):
        return TabulatedProfile(self.t_max, self.values.conj())


@dataclass(frozen=True)
class ProductProfile(Profile):
    """Product of profiles; documents hold two or more single-factor or separable
    factors (a kernel's horizon and Hermiticity checks see no table inside a product)."""

    factors: tuple

    def __call__(self, t, tp):
        out = None
        for f in self.factors:
            v = f(t, tp)
            out = v if out is None else out * v
        return out

    @property
    def form(self):
        # the outer product of the factors' sums, less the terms that vanish
        # everywhere (hat_a hat_b of one table, |a - b| > 1); in each term a
        # constant conv factor depends on neither time, so it rides with f
        terms = []
        for parts in itertools.product(*(f.form for f in self.factors)):
            conv, f, g = (sum((term[k] for term in parts), ()) for k in range(3))
            if _disjoint(f) or _disjoint(g):
                continue
            const = tuple(fac for fac in conv if fac.kind == "constant")
            terms.append((tuple(fac for fac in conv if fac.kind != "constant"), f + const, g))
        return tuple(terms)

    def conjugate(self):
        return ProductProfile(tuple(f.conjugate() for f in self.factors))


_UNIT = SingleVarFactor("constant")  # the factor a product drops


def profile_product(a: Profile, b: Profile) -> Profile:
    """Product of two profiles, fused back into the family where possible."""
    fa, fb = (p.factor if isinstance(p, ConvProfile) else None for p in (a, b))
    if fa is not None and fb is not None and fa.kind == fb.kind:
        if fa.kind == "constant":
            return ConstantProfile(fa.value * fb.value)
        if fa.kind == "exp":
            return ExpProfile(fa.rate + fb.rate)
        inv = 1.0 / fa.tau**2 + 1.0 / fb.tau**2
        return GaussianProfile(1.0 / np.sqrt(inv))
    if fa == _UNIT:
        return b
    if fb == _UNIT:
        return a
    fa = a.factors if isinstance(a, ProductProfile) else (a,)
    fb = b.factors if isinstance(b, ProductProfile) else (b,)
    return ProductProfile(fa + fb)


# ---------------------------------------------------------------------------
# document (de)serialization


# the keys besides "kind" of each profile kind
_KIND_KEYS = {
    "constant": ("value",),
    "exponential-decay": ("kappa", "omega"),
    "oscillatory": ("omega",),
    "gaussian": ("tau",),
    "product-separable": ("f", "g"),
    "tabulated-grid": ("t_max", "values"),
    "product": ("factors",),
}
_FACTOR_KINDS = ("constant", "exponential-decay", "oscillatory", "gaussian")


def _kind_from_doc(doc, field: str, kinds: tuple) -> str:
    """The ``kind`` of a profile or factor object, one of ``kinds``; the object
    may hold no key that its kind does not use."""
    kind = _object(doc, field, ("kind",))["kind"]
    if kind not in kinds:
        raise FormatError(f"{field}.kind: unknown kind {kind!r}")
    _object(doc, field, ("kind",), _KIND_KEYS[kind])
    return kind


def _shared_kind_from_doc(doc: dict, kind, field: str) -> SingleVarFactor:
    """The factor of a document of a kind that profiles and separable factors
    share, one of ``_FACTOR_KINDS``."""
    if kind == "constant":
        return SingleVarFactor("constant", value=_cplx(doc.get("value", 1.0), f"{field}.value"))
    if kind == "exponential-decay":
        kappa = _number(doc, "kappa", field)
        return SingleVarFactor("exp", rate=complex(-kappa, _number(doc, "omega", field, 0.0)))
    if kind == "oscillatory":
        return SingleVarFactor("exp", rate=1j * _number(doc, "omega", field))
    return SingleVarFactor("gaussian", tau=float(_number(doc, "tau", field, positive=True)))


def _factor_from_doc(doc, field: str) -> SingleVarFactor:
    return _shared_kind_from_doc(doc, _kind_from_doc(doc, field, _FACTOR_KINDS), field)


def _factor_to_doc(fac: SingleVarFactor):
    if fac.kind == "constant":
        return {"kind": "constant", "value": _cplx_doc(complex(fac.value))}
    if fac.kind == "exp":
        rate = complex(fac.rate)
        doc = {"kind": "exponential-decay", "kappa": float(-rate.real)}
        if rate.imag:
            doc["omega"] = float(rate.imag)
        return doc
    return {"kind": "gaussian", "tau": float(fac.tau)}


def profile_from_doc(doc, field: str = "profile") -> Profile:
    """Parse a profile document; errors name the offending field."""
    kind = _kind_from_doc(doc, field, tuple(_KIND_KEYS))
    if kind in _FACTOR_KINDS:
        return ConvProfile(_shared_kind_from_doc(doc, kind, field))
    if kind == "product-separable":
        if "f" not in doc or "g" not in doc:
            raise FormatError(f"{field}: product-separable needs 'f' and 'g'")
        return SeparableProfile(
            _factor_from_doc(doc["f"], f"{field}.f"),
            _factor_from_doc(doc["g"], f"{field}.g"),
        )
    if kind == "product":
        raw = doc.get("factors")
        if not isinstance(raw, list):
            raise FormatError(f"{field}.factors: expected a list of profiles")
        factors = [profile_from_doc(f, f"{field}.factors[{i}]") for i, f in enumerate(raw)]
        return ProductProfile(_product_factors(factors, field))
    t_max = _number(doc, "t_max", field, positive=True)  # tabulated-grid
    raw = doc.get("values")
    if not isinstance(raw, list) or len(raw) < 2:
        raise FormatError(f"{field}.values: expected a list of >= 2 rows")
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != len(raw):
            raise FormatError(f"{field}.values[{i}]: rows must form a square matrix")
        rows.append([_cplx(v, f"{field}.values[{i}]") for v in row])
    return TabulatedProfile(float(t_max), rows)


def _product_factors(factors, field: str) -> tuple:
    """The factors of a product document: two or more, each single-factor or separable."""
    if len(factors) < 2:
        raise FormatError(f"{field}.factors: a product needs at least two factors")
    for i, f in enumerate(factors):
        if not isinstance(f, (ConvProfile, SeparableProfile)):
            raise FormatError(f"{field}.factors[{i}]: is not single-factor or separable")
    return tuple(factors)


def profile_to_doc(p: Profile, field: str = "profile"):
    if isinstance(p, ConvProfile):
        rate = complex(p.factor.rate)
        if p.factor.kind == "exp" and rate.real == 0.0 and rate.imag != 0.0:
            return {"kind": "oscillatory", "omega": rate.imag}
        return _factor_to_doc(p.factor)
    if isinstance(p, SeparableProfile):
        return {
            "kind": "product-separable",
            "f": _factor_to_doc(p.f),
            "g": _factor_to_doc(p.g),
        }
    if isinstance(p, TabulatedProfile):
        return {
            "kind": "tabulated-grid",
            "t_max": float(p.t_max),
            "values": [[_cplx_doc(complex(v)) for v in row] for row in p.values],
        }
    if isinstance(p, ProductProfile):
        factors = _product_factors(p.factors, field)
        return {
            "kind": "product",
            "factors": [profile_to_doc(f, f"{field}.factors[{i}]") for i, f in enumerate(factors)],
        }
    raise FormatError(f"{field}: profile {type(p).__name__} has no document form")
