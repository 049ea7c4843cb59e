from fractions import Fraction

import pytest

from gwa.errors import HypothesisError
from gwa.formulas import coh_dims, duality_flag, group_coh_dims, hh_dims, twisted_dims
from gwa.poly import Poly, ShiftSigma, degree_invariants

H = Poly.gen()
S1 = ShiftSigma(1)


def test_hh_dims_examples():
    assert hh_dims(H, S1, 4).dims == [0, 0, 1, 0, 0]
    singular = Poly([Fraction(-1, 4), -1, -1])  # -(h+1/2)^2
    assert hh_dims(singular, S1, 4).dims == [1, 0, 1, 1, 1]
    assert hh_dims(H ** 3 - H, S1, 4).dims == [2, 0, 1, 0, 0]
    rep = hh_dims(H ** 2 - 1, S1, 5)
    assert (rep.n, rep.d, rep.dims, rep.source, rep.kind) == \
        (2, 0, [1, 0, 1, 0, 0, 0], "formula", "homology")


def test_coh_dims_examples():
    assert coh_dims(H, S1, 4).dims == [1, 0, 0, 0, 0]
    assert coh_dims(H ** 3, S1, 4).dims == [1, 0, 2, 2, 2]
    assert coh_dims(Poly([-1, 0, 1]), S1, 4).dims == [1, 0, 1, 0, 0]


def test_twisted_dims_examples():
    assert twisted_dims(Poly([-1, 0, 1]), S1, "homology", 3).dims == [2, 0, 0, 0]
    assert twisted_dims(H ** 2, S1, "cohomology", 4).dims == [0, 0, 2, 1, 1]
    assert twisted_dims(H, S1, "homology", 3).dims == [1, 0, 0, 0]


def test_group_coh_dims_examples():
    assert group_coh_dims(2, 1, 0).dims[2] == 3  # n * #classes - 1 with two classes
    assert group_coh_dims(1, 0, 0).dims == [1, 0, 0, 0, 0, 0]
    assert group_coh_dims(2, 0, 1).dims[2] == 2  # 1 + floor(3/2)


def test_group_coh_dims_validation():
    with pytest.raises(HypothesisError):
        group_coh_dims(0, 0, 0)
    with pytest.raises(HypothesisError):
        group_coh_dims(2, -1, 0)


def test_duality_examples():
    assert duality_flag(Poly([-1, 0, 1]), S1) is True
    assert duality_flag(H ** 2, S1) is False
    assert duality_flag(H, S1) is True


def test_duality_iff_simple_roots(suite):
    for spec in suite:
        _, d = degree_invariants(spec.a, spec.sigma)
        assert duality_flag(spec.a, spec.sigma) is (d == 0)


def test_constant_rejected():
    with pytest.raises(HypothesisError):
        hh_dims(Poly([2]), S1)
    with pytest.raises(HypothesisError):
        twisted_dims(Poly([2]), S1, "homology")
    with pytest.raises(HypothesisError):
        twisted_dims(H, S1, "sideways")

