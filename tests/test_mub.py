import itertools
import math
from functools import reduce

import numpy as np
import pytest

from qracsim import (
    Basis,
    MubPair,
    fourier_mub_pair,
    pauli_mub_pair,
    product_mub_pair,
    unbiasedness_defect,
)
from conftest import unit_vector_oracle

SQRT2 = math.sqrt(2.0)


def test_pauli_pair_vectors():
    pair = pauli_mub_pair()
    assert np.allclose(pair.first[0], [1.0, 0.0])
    assert np.allclose(pair.first[1], [0.0, 1.0])
    assert np.allclose(pair.second[0], [1 / SQRT2, 1 / SQRT2])
    assert np.allclose(pair.second[1], [1 / SQRT2, -1 / SQRT2])


def test_pauli_pair_overlaps_are_half():
    pair = pauli_mub_pair()
    for e, f in itertools.product(pair.first.vectors, pair.second.vectors):
        assert abs(np.vdot(e, f)) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_product_pair_n1_is_base_pair():
    base = pauli_mub_pair()
    lifted = product_mub_pair(base, 1)
    for a, b in zip(lifted.first.vectors, base.first.vectors):
        assert np.allclose(a, b, atol=1e-12)


def test_product_pair_two_qubits():
    lifted = product_mub_pair(pauli_mub_pair(), 2)
    assert lifted.dim == 4
    assert np.allclose(lifted.second[0], [0.5, 0.5, 0.5, 0.5], atol=1e-12)
    # index 1 carries big-endian digits (0, 1)
    assert np.allclose(lifted.first[1], [0.0, 1.0, 0.0, 0.0], atol=1e-12)


def test_product_pair_left_factor_is_most_significant():
    # vector I of the product pair is the Kronecker product of the factors
    # named by I's digits, the left digit most significant
    lifted = product_mub_pair(pauli_mub_pair(), 2)
    z = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    x = [np.array([1.0, 1.0]) / SQRT2, np.array([1.0, -1.0]) / SQRT2]
    for index in range(4):
        left, right = divmod(index, 2)
        assert np.allclose(lifted.first[index], np.kron(z[left], z[right]), atol=1e-12)
        assert np.allclose(lifted.second[index], np.kron(x[left], x[right]), atol=1e-12)
    # index 1 has digits (0, 1): x0 x x1, not x1 x x0
    assert np.allclose(lifted.second[1], [0.5, -0.5, 0.5, -0.5], atol=1e-12)


def test_product_pair_three_qubits_brute_force():
    # independent oracle: expand all 64 overlaps from the qubit vectors
    lifted = product_mub_pair(pauli_mub_pair(), 3)
    z = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    x = [np.array([1.0, 1.0]) / SQRT2, np.array([1.0, -1.0]) / SQRT2]
    worst = 0.0
    for i in range(8):
        for j in range(8):
            e = lifted.first[i]
            digits = ((j >> 2) & 1, (j >> 1) & 1, j & 1)
            f = np.kron(np.kron(x[digits[0]], x[digits[1]]), x[digits[2]])
            worst = max(worst, abs(abs(np.vdot(e, f)) ** 2 - 1.0 / 8.0))
    assert worst < 1e-12
    assert unbiasedness_defect(lifted.first, lifted.second) < 1e-12


def test_fourier_pair_d2_matches_pauli():
    fourier = fourier_mub_pair(2)
    pauli = pauli_mub_pair()
    for a, b in zip(fourier.second.vectors, pauli.second.vectors):
        assert np.allclose(a, b, atol=1e-12)


def test_fourier_pair_d3_overlaps():
    pair = fourier_mub_pair(3)
    for e, f in itertools.product(pair.first.vectors, pair.second.vectors):
        assert abs(np.vdot(e, f)) ** 2 == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_fourier_d4_differs_from_product_pair():
    fourier = fourier_mub_pair(4)
    product = product_mub_pair(pauli_mub_pair(), 2)
    fourier_set = {tuple(np.round(v, 8)) for v in fourier.second.vectors}
    product_set = {tuple(np.round(v, 8)) for v in product.second.vectors}
    assert fourier_set != product_set


@pytest.mark.parametrize("d", range(2, 17))
def test_fourier_pair_defect_sweep(d):
    pair = fourier_mub_pair(d)
    assert unbiasedness_defect(pair.first, pair.second) < 1e-12


def test_defect_of_identical_bases():
    for d in (2, 3, 4):
        basis = fourier_mub_pair(d).first
        assert unbiasedness_defect(basis, basis) == pytest.approx(1 - 1 / d, abs=1e-12)


def test_defect_dimension_mismatch():
    for check in (unbiasedness_defect, MubPair):
        with pytest.raises(ValueError, match="^bases must share one dimension$"):
            check(pauli_mub_pair().first, fourier_mub_pair(3).first)


def test_product_pair_dimension_cap():
    with pytest.raises(ValueError, match="cap"):
        product_mub_pair(pauli_mub_pair(), 5)
    with pytest.raises(ValueError, match="at least 1"):
        product_mub_pair(pauli_mub_pair(), 0)


def test_fourier_dimension_range():
    with pytest.raises(ValueError):
        fourier_mub_pair(1)
    with pytest.raises(ValueError):
        fourier_mub_pair(17)


def test_mub_pair_rejects_biased_bases():
    z = Basis((np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    with pytest.raises(ValueError, match="unbiased"):
        MubPair(z, z)


@pytest.mark.parametrize("check", [MubPair, unbiasedness_defect])
def test_bases_must_be_basis_instances(check):
    with pytest.raises(TypeError, match="^first and second must be Bases, got ndarray, ndarray$"):
        check(np.eye(2), np.eye(2))
    with pytest.raises(TypeError, match="^first and second must be Bases, got Basis, ndarray$"):
        check(pauli_mub_pair().first, np.eye(2))


@pytest.mark.parametrize(
    "call, argument",
    [
        (lambda: product_mub_pair(pauli_mub_pair(), 2.5), "n"),
        (lambda: product_mub_pair(pauli_mub_pair(), "2"), "n"),
        (lambda: product_mub_pair(pauli_mub_pair(), None), "n"),
        (lambda: fourier_mub_pair(4.0), "d"),
        (lambda: fourier_mub_pair("4"), "d"),
    ],
    ids=["n-float", "n-str", "n-none", "d-float", "d-str"],
)
def test_non_integer_counts_named(call, argument):
    with pytest.raises(TypeError, match=f"^{argument} must be an integer, got "):
        call()


def test_integer_like_counts_accepted():
    assert product_mub_pair(pauli_mub_pair(), np.int64(2)).dim == 4
    assert fourier_mub_pair(np.int32(3)).dim == 3


@pytest.mark.parametrize("d", range(2, 17))
def test_fourier_vectors_match_one_vector_oracle(d):
    # each row is the unit vector the per-vector construction gives, bit for bit
    pair = fourier_mub_pair(d)
    omega = np.exp(2j * np.pi / d)
    for j in range(d):
        assert pair.first[j].tobytes() == unit_vector_oracle(np.eye(d)[j]).tobytes()
        expected = unit_vector_oracle(omega ** (j * np.arange(d)) / np.sqrt(d))
        assert pair.second[j].tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "base, n",
    [(pauli_mub_pair, n) for n in (1, 2, 3, 4)] + [(lambda: fourier_mub_pair(d), 2) for d in (3, 4)],
    ids=[f"pauli-n{n}" for n in (1, 2, 3, 4)] + ["fourier-d3-n2", "fourier-d4-n2"],
)
def test_product_vectors_match_tensor_of_states(base, n):
    # a product vector is each Kronecker product normalised as a product
    # state is, factor by factor, big-endian
    pair = base()
    lifted = product_mub_pair(pair, n)
    for basis, factors in ((lifted.first, pair.first.vectors), (lifted.second, pair.second.vectors)):
        assert basis.vectors.shape == (pair.dim**n, pair.dim**n)
        for index, rows in enumerate(itertools.product(factors, repeat=n)):
            expected = reduce(lambda a, b: unit_vector_oracle(np.kron(a, b)), rows)
            assert basis[index].tobytes() == expected.tobytes()
