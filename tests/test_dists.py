import numpy as np
import pytest

from smoothtm.dists import (
    Dist,
    FiniteSet,
    convex_combine,
    direct_sum,
    induced_op,
    marginal,
    product_set,
    tensor,
    tensor_many,
)

AB = FiniteSet(["A", "B"])
LR = FiniteSet(["L", "R"])
QQ = FiniteSet(["q"])


def simplex_ok(d, tol=1e-12):
    return abs(d.weights.sum() - 1.0) <= tol and d.weights.min() >= -tol


def test_tensor_point_masses():
    d = tensor(Dist.point(QQ, "q"), Dist.point(AB, "A"))
    assert d.point_value() == ("q", "A")
    assert set(d.weights) <= {0.0, 1.0}


def test_tensor_identity_factor():
    d = tensor(Dist.from_pairs(AB, {"A": 0.5, "B": 0.5}), Dist.point(QQ, "q"))
    assert d[("A", "q")] == 0.5
    assert d[("B", "q")] == 0.5


def test_tensor_against_nested_loop_product():
    a = Dist.from_pairs(AB, {"A": 0.5, "B": 0.5})
    b = Dist.from_pairs(LR, {"L": 0.25, "R": 0.75})
    d = tensor(a, b)
    # independent nested-loop oracle
    expected = {}
    for x in AB:
        for y in LR:
            expected[(x, y)] = a[x] * b[y]
    assert expected == {
        ("A", "L"): 0.125,
        ("A", "R"): 0.375,
        ("B", "L"): 0.125,
        ("B", "R"): 0.375,
    }
    for k, v in expected.items():
        assert d[k] == pytest.approx(v, abs=1e-12)
    assert simplex_ok(d)


def test_tensor_flattens_factors():
    d = tensor_many([Dist.point(QQ, "q"), Dist.point(AB, "A"), Dist.point(AB, "B")])
    assert d.point_value() == ("q", "A", "B")
    assert marginal(d, 2).point_value() == "B"


def test_induced_identity_and_constant():
    d = Dist.from_pairs(AB, {"A": 0.25, "B": 0.75})
    ident = induced_op(lambda x: x, AB, AB)
    assert ident(d).allclose(d)
    const = induced_op(lambda x: "A", AB, AB)
    assert const(d).point_value() == "A"


def test_induced_parity_preimage_enumeration():
    four = FiniteSet([0, 1, 2, 3])
    par = FiniteSet(["even", "odd"])
    f = lambda x: "even" if x % 2 == 0 else "odd"
    d = induced_op(f, four, par)(Dist.uniform(four))
    # oracle: enumerate preimages
    expected = {"even": 0.0, "odd": 0.0}
    for x in four:
        expected[f(x)] += 0.25
    assert d["even"] == pytest.approx(expected["even"], abs=1e-12) == 0.5
    assert d["odd"] == pytest.approx(0.5, abs=1e-12)


def test_induced_partial_function_errors():
    def bad(x):
        if x == "B":
            raise KeyError(x)
        return x

    with pytest.raises(ValueError, match="partial"):
        induced_op(bad, AB, AB)


def test_induced_functoriality_random():
    rng = np.random.default_rng(7)
    X = FiniteSet(list(range(5)))
    Y = FiniteSet(list("abc"))
    Z = FiniteSet([0, 1])
    for _ in range(50):
        fmap = {x: Y.elements[rng.integers(3)] for x in X}
        gmap = {y: Z.elements[rng.integers(2)] for y in Y}
        f = induced_op(fmap.__getitem__, X, Y)
        g = induced_op(gmap.__getitem__, Y, Z)
        gf = induced_op(lambda x: gmap[fmap[x]], X, Z)
        d = Dist(X, rng.dirichlet(np.ones(5)))
        lhs = gf(d)
        rhs = g(f(d))
        assert np.abs(lhs.weights - rhs.weights).max() <= 1e-12


def test_induced_point_masses_stay_exact():
    rng = np.random.default_rng(11)
    X = FiniteSet(list(range(6)))
    for _ in range(50):
        fmap = {x: X.elements[rng.integers(6)] for x in X}
        op = induced_op(fmap.__getitem__, X, X)
        x = X.elements[rng.integers(6)]
        out = op(Dist.point(X, x))
        assert out.point_value() == fmap[x]
        assert set(out.weights) <= {0.0, 1.0}


def test_convex_combine_point_and_uniform():
    idx = FiniteSet([0, 1])
    a, b = Dist.point(AB, "A"), Dist.point(AB, "B")
    assert convex_combine(Dist.point(idx, 0), [a, b]).allclose(a)
    got = convex_combine(Dist.uniform(idx), [a, b])
    assert got["A"] == 0.5 and got["B"] == 0.5


def test_convex_combine_hand_expansion():
    idx = FiniteSet([0, 1])
    mixed = Dist.from_pairs(AB, {"A": 0.5, "B": 0.5})
    got = convex_combine(
        Dist.from_pairs(idx, {0: 0.5, 1: 0.5}), [mixed, Dist.point(AB, "B")]
    )
    # oracle: sum coefficient * coordinate by hand
    assert got["A"] == pytest.approx(0.5 * 0.5, abs=1e-12)
    assert got["B"] == pytest.approx(0.5 * 0.5 + 0.5, abs=1e-12)
    assert simplex_ok(got)


def test_convex_combine_base_mismatch():
    idx = FiniteSet([0, 1])
    with pytest.raises(ValueError):
        convex_combine(Dist.uniform(idx), [Dist.point(AB, "A"), Dist.point(LR, "L")])


def test_tensor_bilinearity_random():
    rng = np.random.default_rng(3)
    idx = FiniteSet([0, 1])
    for _ in range(25):
        a1 = Dist(AB, rng.dirichlet([1, 1]))
        a2 = Dist(AB, rng.dirichlet([1, 1]))
        b = Dist(LR, rng.dirichlet([1, 1]))
        c = Dist(idx, rng.dirichlet([1, 1]))
        lhs = tensor(convex_combine(c, [a1, a2]), b)
        rhs = convex_combine(c, [tensor(a1, b), tensor(a2, b)])
        assert np.abs(lhs.weights - rhs.weights).max() <= 1e-12


def test_direct_sum_embeddings():
    x, y = Dist.point(AB, "A"), Dist.point(LR, "L")
    full = direct_sum([(1.0, x), (0.0, y)])
    assert full[(0, "A")] == 1.0
    assert direct_sum([(0.0, x), (1.0, y)])[(1, "L")] == 1.0
    half = direct_sum([(0.5, x), (0.5, y)])
    assert half[(0, "A")] == 0.5 and half[(1, "L")] == 0.5


def test_direct_sum_mass_mismatch():
    with pytest.raises(ValueError, match="mass mismatch"):
        direct_sum([(0.7, Dist.point(AB, "A")), (0.7, Dist.point(LR, "L"))])


def test_dist_invariants():
    with pytest.raises(ValueError):
        Dist(AB, [0.5, 0.6])
    with pytest.raises(ValueError):
        Dist(AB, [1.1, -0.1])
    # tiny negatives are clamped and renormalized
    d = Dist(AB, [1.0 + 5e-13, -5e-13])
    assert d["B"] == 0.0 and d["A"] == 1.0


@pytest.mark.parametrize("base, weights", [(AB, [np.nan, 0.5]), (QQ, [np.nan])])
def test_dist_rejects_nan_weights(base, weights):
    with pytest.raises(ValueError, match="sum to nan"):
        Dist(base, weights)


def test_single_support_canonicalized():
    d = Dist(AB, [1.0 - 2e-16, 2e-16 - 0.0])
    # two-point support is untouched
    assert d["B"] != 0.0
    e = Dist(AB, [1.0 - 1e-13, 0.0])
    assert e["A"] == 1.0


def test_marginals_of_product():
    d = tensor(Dist.from_pairs(AB, {"A": 0.25, "B": 0.75}), Dist.uniform(LR))
    ma = marginal(d, 0)
    assert ma["A"] == pytest.approx(0.25, abs=1e-12)
    mb = marginal(d, 1)
    assert mb["L"] == pytest.approx(0.5, abs=1e-12)


def test_product_set_unique_labels():
    ps = product_set(AB, AB)
    assert len(ps) == 4
    assert ps.index(("B", "A")) == 2
