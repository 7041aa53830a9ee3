import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qracsim import linalg
from qracsim.linalg import _born_probabilities
from qracsim.tolerances import TOL
from qracsim import (
    Basis,
    EncodingMap,
    Povm,
    hermitian_eig,
    operator_norm,
    partial_trace,
)
from conftest import (
    DensityMatrix,
    born_probability,
    haar_unitary,
    random_density_matrix,
    random_hermitian,
    random_povm,
    random_pvm,
    unit_vector_oracle,
)

SQRT2 = math.sqrt(2.0)
KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
PLUS = np.array([1.0, 1.0]) / SQRT2


def projector(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def two_outcome_povm(matrix):
    """A Povm with ``matrix`` as both outcomes, so its per-effect checks
    fire on ``matrix`` before completeness is tested."""
    return Povm((matrix, matrix))


# the id names the checks this case runs: a measurement's per-effect ones
EFFECT_CHECKS = pytest.param(two_outcome_povm, id="Effect")


def top_eigenvectors(h) -> np.ndarray:
    """Canonical top eigenvector rows of every matrix of a Hermitian
    (..., d, d) stack, in C order, from one ``hermitian_eig`` call."""
    w, v = hermitian_eig(h)
    d = w.shape[-1]
    return linalg._canonical_tops(w.reshape(-1, d), v.reshape(-1, d, d))


class TestUnitRows:
    """``_unit_rows`` is the one normalise-and-phase-fix rule, row by row
    bit-identical to the one-vector body of the state class it replaced."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        d=st.integers(1, 16),
        rows=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        stretch=st.floats(-5e-11, 5e-11),
    )
    def test_rows_match_one_vector_oracle(self, d, rows, seed, stretch):
        gen = np.random.default_rng(seed)
        v = gen.normal(size=(rows, d)) + 1j * gen.normal(size=(rows, d))
        # leading zeros, then components too small to fix the phase
        leads = gen.integers(0, d, size=(rows, 1))
        v[np.arange(d) < leads] = 0.0
        v[np.arange(d) == leads - 1] = 1e-13 * gen.normal(size=rows)[leads[:, 0] > 0]
        v *= np.exp(2j * np.pi * gen.uniform(size=(rows, 1)))
        v *= math.sqrt(1.0 + stretch) / np.linalg.norm(v, axis=-1, keepdims=True)
        unit = linalg._unit_rows(v)
        assert unit.shape == v.shape
        for row, vector in zip(unit, v, strict=True):
            assert row.tobytes() == unit_vector_oracle(vector).tobytes()
        assert linalg._unit_rows(v[0]).tobytes() == unit[0].tobytes()

    def test_first_failing_row_is_named(self):
        rows = np.array([[1.0, 0.0], [1.0, 1e-4], [1.0, 1.0]])
        with pytest.raises(ValueError, match=r"^state is not normalized: \|norm\^2 - 1\| = 1\.000e-08$"):
            linalg._unit_rows(rows)


class TestHermitianEig:
    def test_diagonal_case(self):
        w, v = hermitian_eig(np.diag([1.0, -1.0]))
        assert np.allclose(w, [-1.0, 1.0])
        assert np.allclose(linalg._unit_rows(v.T), [[0.0, 1.0], [1.0, 0.0]])
        for array in (w, v):
            with pytest.raises(ValueError):
                array[0] = 5.0

    def test_projector_sum(self):
        # |0><0| + |+><+| has eigenvalues 1 -/+ 1/sqrt(2)
        matrix = projector(KET0) + projector(PLUS)
        w, _ = hermitian_eig(matrix)
        assert np.allclose(w, [1 - 1 / SQRT2, 1 + 1 / SQRT2], atol=1e-12)
        top = top_eigenvectors(matrix)[0]
        assert np.allclose(top, [math.cos(math.pi / 8), math.sin(math.pi / 8)], atol=1e-12)

    def test_degenerate_identity(self):
        w, v = hermitian_eig(np.eye(4))
        assert np.allclose(w, 1.0)
        assert np.allclose(v.conj().T @ v, np.eye(4), atol=1e-12)

    def test_deterministic_output(self, rng):
        h = random_hermitian(rng, 5)
        first = hermitian_eig(h)
        second = hermitian_eig(h)
        for a, b in zip(first, second, strict=True):
            assert np.array_equal(a, b)

    def test_non_hermitian_rejected_with_deviation(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match=r"not Hermitian.*1\.000e\+00"):
            hermitian_eig(bad)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: hermitian_eig(np.eye(17)),
            lambda: operator_norm(np.eye(17)),
            lambda: two_outcome_povm(0.5 * np.eye(17)),
            lambda: DensityMatrix(np.eye(17) / 17),
        ],
        ids=["hermitian_eig", "operator_norm", "Effect", "DensityMatrix"],
    )
    def test_dimension_cap(self, build):
        with pytest.raises(ValueError, match="exceeds the exact-solver cap 16"):
            build()

    def test_top_eigenvector_of_degenerate_cluster(self):
        # the top cluster {2, 2} spans e1 and e2; the representative is its
        # unit vector with the most leading zeros, e2, whatever basis LAPACK returns
        top = top_eigenvectors(np.diag([1.0, 2.0, 2.0]))[0]
        assert np.allclose(top, [0.0, 0.0, 1.0])

    def test_top_eigenvector_ignores_cluster_basis(self):
        # {e1, e2} and {(e1 - e2)/sqrt2, (e1 + e2)/sqrt2} span one eigenspace
        w = np.array([[1.0, 2.0, 2.0]])
        second = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, -1.0, 1.0]]) / [1.0, SQRT2, SQRT2]
        first_top = linalg._canonical_tops(w, np.eye(3)[None])[0]
        second_top = linalg._canonical_tops(w, second[None])[0]
        assert np.allclose(first_top, [0.0, 0.0, 1.0], atol=1e-12)
        assert np.allclose(second_top, first_top, atol=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        d=st.integers(2, 6),
        multiplicity=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_top_eigenvector_has_most_leading_zeros(self, d, multiplicity, seed):
        multiplicity = min(multiplicity, d)
        gen = np.random.default_rng(seed)
        lam = 2.0
        low = np.sort(gen.uniform(-1.0, 1.0, d - multiplicity))
        u = haar_unitary(gen, d)
        h = u @ np.diag(np.concatenate([low, np.full(multiplicity, lam)])) @ u.conj().T
        h = (h + h.conj().T) / 2
        top = top_eigenvectors(h)[0]
        assert np.max(np.abs(h @ top - lam * top)) < 1e-9
        # a unit vector of the eigenspace vanishing on the first `lead`
        # components exists iff those rows leave the eigenspace basis rank
        # deficient; the top vector must have the largest such `lead`
        space = u[:, d - multiplicity :]
        lead = int(np.flatnonzero(np.abs(top) > 1e-9)[0])
        assert np.linalg.matrix_rank(space[:lead], tol=1e-9) < multiplicity
        assert np.linalg.matrix_rank(space[: lead + 1], tol=1e-9) == multiplicity

    def test_near_degenerate_cluster(self, rng):
        # eigenvalues separated by less than the cluster gap still give an
        # orthonormal set that reconstructs the input
        u = haar_unitary(rng, 3)
        h = u @ np.diag([1.0, 1.0 + 3e-10, 2.0]) @ u.conj().T
        h = (h + h.conj().T) / 2
        w, v = hermitian_eig(h)
        assert np.max(np.abs(v.conj().T @ v - np.eye(3))) < 1e-10
        rebuilt = (v * w) @ v.conj().T
        assert np.max(np.abs(rebuilt - h)) < 1e-9

    def test_tiny_norm_matrix(self, rng):
        h = 1e-8 * random_hermitian(rng, 4)
        w, v = hermitian_eig(h)
        rebuilt = (v * w) @ v.conj().T
        assert np.max(np.abs(rebuilt - h)) < 1e-12

    def test_zero_matrix(self):
        w, _ = hermitian_eig(np.zeros((3, 3)))
        assert np.allclose(w, 0.0)

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_random_reconstruction(self, d):
        # 250 matrices per dimension: reconstruction, orthonormality, and
        # eigenvalue agreement with an independent solver
        gen = np.random.default_rng(1000 + d)
        for _ in range(250):
            h = random_hermitian(gen, d)
            w, v = hermitian_eig(h)
            assert np.max(np.abs(v.conj().T @ v - np.eye(d))) < 1e-10
            rebuilt = (v * w) @ v.conj().T
            assert np.max(np.abs(rebuilt - h)) < 1e-9
            reference = scipy.linalg.eigvalsh(h, driver="ev")
            assert np.max(np.abs(w - reference)) < 1e-9

    @pytest.mark.parametrize("d", range(2, 7))
    def test_every_cluster_multiplicity(self, d):
        # the top vector from LAPACK's basis of the top eigenspace and from
        # a random unitary rotation of that basis agree
        for multiplicity in range(2, d + 1):
            for seed in range(5):
                w, v = _spectrum_with_top_cluster(d, multiplicity, 100 * d + 10 * multiplicity + seed)
                gen = np.random.default_rng(seed)
                rotated = v.copy()
                rotated[:, d - multiplicity :] = v[:, d - multiplicity :] @ haar_unitary(gen, multiplicity)
                from_lapack = linalg._canonical_tops(w[None], v[None])[0]
                from_rotated = linalg._canonical_tops(w[None], rotated[None])[0]
                assert np.max(np.abs(from_lapack - from_rotated)) < 1e-12


def _spectrum_with_top_cluster(d: int, multiplicity: int, seed: int):
    """Eigenvalues and LAPACK eigenvector columns of a random Hermitian
    matrix whose top eigenvalue 2 has the given multiplicity."""
    gen = np.random.default_rng(seed)
    low = np.sort(gen.uniform(-1.0, 1.0, d - multiplicity))
    u = haar_unitary(gen, d)
    h = u @ np.diag(np.concatenate([low, np.full(multiplicity, 2.0)])) @ u.conj().T
    return np.linalg.eigh((h + h.conj().T) / 2)


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_projector_sum_closed_form(self):
        matrix = projector(KET0) + projector(PLUS)
        assert operator_norm(matrix) == pytest.approx(1 + 1 / SQRT2, abs=1e-10)

    def test_zero_matrix(self):
        assert operator_norm(np.zeros((4, 4))) == 0.0

    def test_matches_max_eigenvalue(self, rng):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        psd = g @ g.conj().T
        assert operator_norm(psd) == pytest.approx(hermitian_eig(psd)[0][-1], abs=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            operator_norm(np.diag([1.0, -1.0]))


class TestStacks:
    def test_operator_norm_of_stack_is_an_array(self, rng):
        stack = np.stack([np.diag([1.0, 3.0]), np.eye(2), np.zeros((2, 2))]).reshape(3, 1, 2, 2)
        norms = operator_norm(stack)
        assert isinstance(norms, np.ndarray) and norms.shape == (3, 1)
        assert norms.ravel().tolist() == [3.0, 1.0, 0.0]
        assert type(operator_norm(stack[0, 0])) is float

    def test_stack_names_first_failing_matrix(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -2e-10]), np.diag([1.0, -3e-10])])
        with pytest.raises(ValueError, match=r"min eigenvalue -2\.000e-10$"):
            operator_norm(stack)
        skewed = np.stack([np.eye(2), np.eye(2), np.eye(2)]).astype(complex)
        skewed[1, 0, 1] = 2e-10
        skewed[2, 0, 1] = 3e-10
        for call in (operator_norm, top_eigenvectors):
            with pytest.raises(ValueError, match=r"= 2\.000e-10 exceeds"):
                call(skewed)

    def test_one_matrix_paths_reject_stacks(self):
        with pytest.raises(ValueError, match=r"square matrix, got shape \(2, 2, 2\)"):
            partial_trace(np.stack([np.eye(2), np.eye(2)]) / 2, (2, 1), 1)

    def test_hermitian_eig_of_stack_matches_each_matrix(self, rng):
        stack = np.stack([random_hermitian(rng, 4) for _ in range(6)]).reshape(2, 3, 4, 4)
        w, v = hermitian_eig(stack)
        assert w.shape == (2, 3, 4) and v.shape == (2, 3, 4, 4)
        for index in np.ndindex(2, 3):
            one_w, one_v = hermitian_eig(stack[index])
            assert np.array_equal(w[index], one_w) and np.array_equal(v[index], one_v)

    @pytest.mark.parametrize("d", [2, 3, 5, 16])
    def test_top_eigenvectors_match_one_matrix_path(self, rng, d):
        # random sums, with degenerate tops of every multiplicity among them
        stack = [random_hermitian(rng, d) for _ in range(3)]
        for multiplicity in range(1, d + 1):
            v = np.linalg.qr(random_hermitian(rng, d))[0]
            w = np.concatenate([np.sort(rng.uniform(-1, 0, d - multiplicity)), np.ones(multiplicity)])
            stack.append((v * w) @ v.conj().T)
        tops = top_eigenvectors(np.stack(stack))
        assert tops.shape == (len(stack), d)
        with pytest.raises(ValueError, match="read-only"):
            tops[0, 0] = 2.0
        for top, h in zip(tops, stack, strict=True):
            assert np.array_equal(top, top_eigenvectors(h)[0])

    def test_born_probabilities_broadcast_and_check(self):
        amplitudes = np.stack([KET0, PLUS])
        effects = np.stack([projector(KET0), projector(KET1)])[:, None]
        values = _born_probabilities(amplitudes, effects)
        assert values.shape == (2, 2)
        assert np.allclose(values, [[1.0, 0.5], [0.0, 0.5]], atol=1e-15)
        with pytest.raises(ValueError, match=r"^Born probability 2 is outside"):
            _born_probabilities(amplitudes, np.stack([np.eye(2) / 2, 2 * np.eye(2), 3 * np.eye(2)])[:, None])
        with pytest.raises(ValueError, match="dimensions differ"):
            _born_probabilities(amplitudes, np.eye(3))


class TestPartialTrace:
    def test_product_factorization(self, rng):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        joint = np.kron(a, b)
        assert np.max(np.abs(partial_trace(joint, (2, 3), 1) - np.trace(b) * a)) < 1e-12
        assert np.max(np.abs(partial_trace(joint, (2, 3), 2) - np.trace(a) * b)) < 1e-12

    def test_product_state(self):
        joint = projector(np.kron(KET0, PLUS))
        assert np.allclose(partial_trace(joint, (2, 2), 1), projector(KET0), atol=1e-12)

    def test_maximally_entangled_reduces_to_mixed(self):
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / SQRT2
        reduced = partial_trace(projector(bell), (2, 2), 1)
        assert np.allclose(reduced, np.eye(2) / 2, atol=1e-12)

    def test_preserves_trace(self, rng):
        joint = random_hermitian(rng, 6)
        for keep in (1, 2):
            reduced = partial_trace(joint, (2, 3), keep)
            assert np.trace(reduced) == pytest.approx(np.trace(joint).real, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="factor"):
            partial_trace(np.eye(6), (2, 2), 1)
        with pytest.raises(ValueError, match="keep"):
            partial_trace(np.eye(4), (2, 2), 3)
        with pytest.raises(TypeError, match=r"^dims \(2\.0, 2\.0\) must be two integers and keep 1 an"):
            partial_trace(np.eye(4), (2.0, 2.0), 1)
        with pytest.raises(TypeError, match=r"^dims \(2, 2\) must be two integers and keep 1\.0 an"):
            partial_trace(np.eye(4), (2, 2), 1.0)
        for dims in ((2, 2, 1), (4,)):
            with pytest.raises(TypeError, match=rf"^dims {re.escape(str(dims))} must be two integers"):
                partial_trace(np.eye(4), dims, 1)


class TestBornProbability:
    def test_unbiased_overlap(self):
        assert born_probability(KET0, projector(PLUS)) == pytest.approx(0.5, abs=1e-12)

    def test_eigenstate(self):
        assert born_probability(KET0, projector(KET0)) == pytest.approx(1.0, abs=1e-12)

    def test_optimal_encoding_weight(self):
        a1 = math.sqrt(2 + SQRT2) / 2
        b1 = math.sqrt(2 - SQRT2) / 2
        state = np.array([a1, b1])
        assert born_probability(state, projector(KET0)) == pytest.approx(
            0.8535533905932737, abs=1e-7
        )

    def test_density_matrix_input(self, rng):
        rho = DensityMatrix(random_density_matrix(rng, 3)).matrix
        povm = random_pvm(rng, 3)
        total = sum(born_probability(rho, e) for e in povm.matrices)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_povm_probabilities_sum_to_one(self, rng):
        for d in (2, 3, 4):
            rho = random_density_matrix(rng, d)
            povm = random_povm(rng, d)
            total = sum(born_probability(rho, e) for e in povm.matrices)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            born_probability(KET0, np.eye(3) / 3)


class TestWrapperValidation:
    def test_effect_spectrum_bounds(self):
        # complete, but both effects' spectra leave [0, 1]
        with pytest.raises(ValueError, match="leaves"):
            Povm((np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])))

    def test_povm_completeness(self):
        with pytest.raises(ValueError, match="resolve the identity"):
            Povm((projector(KET0), projector(KET0)))

    def test_basis_orthonormality(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Basis((KET0, PLUS))

    @pytest.mark.parametrize("build", [EFFECT_CHECKS, DensityMatrix, hermitian_eig, top_eigenvectors, operator_norm])
    def test_empty_matrix_rejected(self, build):
        with pytest.raises(ValueError, match=r"square matrix, got shape \(0, 0\)$"):
            build(np.zeros((0, 0)))

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError, match="exactly dim vectors"):
            Basis(())

    def test_basis_to_povm(self):
        povm = Basis((KET0, KET1)).to_povm()
        assert np.allclose(povm[0], projector(KET0))


class TestBasisStack:
    """A basis is one checked, read-only (d, d) stack of unit rows."""

    def test_vectors_are_one_read_only_stack(self, rng):
        u = haar_unitary(rng, 4)
        basis = Basis(tuple(u[:, k] for k in range(4)))
        assert basis.vectors.shape == (4, 4) and basis.dim == 4
        assert np.array_equal(basis[2], basis.vectors[2])
        with pytest.raises(ValueError, match="read-only"):
            basis.vectors[0, 0] = 2.0

    def test_raw_rows_are_fixed_and_states_kept(self, rng):
        u = haar_unitary(rng, 3) * np.exp(0.3j)
        raw = Basis(tuple(u[:, k] for k in range(3)))
        for k in range(3):
            assert raw[k].tobytes() == unit_vector_oracle(u[:, k]).tobytes()
        # one stack gives the rows that d vectors give, and leaves its input as it was
        given = u.T.copy()
        assert Basis(given).vectors.tobytes() == raw.vectors.tobytes()
        assert np.array_equal(given, u.T)
        # fixed rows stay fixed, up to the rounding of a second normalisation
        assert np.max(np.abs(Basis(raw.vectors).vectors - raw.vectors)) < 1e-15

    @pytest.mark.parametrize(
        "vectors",
        [(np.array([1.0, 0.0]), np.array([0.0, 1.0, 0.0])), (np.array([1.0, 0.0]),), (np.eye(2), np.eye(2)), 5],
        ids=["ragged", "too-few", "matrices", "scalar"],
    )
    def test_ragged_input_rejected(self, vectors):
        with pytest.raises(ValueError, match="^a basis needs exactly dim vectors of matching dimension$"):
            Basis(vectors)

    def test_unnormalized_row_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            Basis((np.array([1.0, 0.0]), np.array([0.0, 2.0])))


class TestPovmStack:
    """A measurement is one checked, read-only (outcome, d, d) stack."""

    def test_stack_is_the_only_field(self):
        # the only constructor field; ``rows`` is set by ``Basis.to_povm`` alone
        assert [f.name for f in dataclasses.fields(Povm)] == ["matrices", "rows"]
        assert [f.name for f in dataclasses.fields(Povm) if f.init] == ["matrices"]

    def test_sequence_and_stack_give_equal_matrices(self, rng):
        for povm in (random_pvm(rng, 3), random_povm(rng, 4)):
            effects = tuple(np.array(e) for e in povm.matrices)
            from_tuple, from_stack = Povm(effects), Povm(np.stack(effects))
            assert np.array_equal(from_tuple.matrices, from_stack.matrices)
            assert np.array_equal(from_tuple.matrices, povm.matrices)
            assert from_tuple.outcomes == len(effects) and from_tuple.dim == povm.dim

    def test_stack_is_copied(self):
        stack = np.stack([projector(KET0), projector(KET1)])
        povm = Povm(stack)
        stack[0] = 0.0
        assert np.array_equal(povm[0], projector(KET0))

    def test_basis_to_povm_stacks_outer_projectors(self, rng):
        u = haar_unitary(rng, 5)
        basis = Basis(tuple(u[:, k] for k in range(5)))
        expected = np.stack([np.outer(v, v.conj()) for v in basis.vectors])
        assert np.array_equal(basis.to_povm().matrices, expected)

    def test_spectrum_error_names_the_failing_outcome(self):
        effects = (np.diag([1.0, 0.0]), np.diag([0.0, 1.5]), np.diag([0.0, -0.5]))
        with pytest.raises(ValueError, match=r"^effect 1 spectrum \[0\.000e\+00, 1\.5\] leaves \[0, 1\]$"):
            Povm(effects)

    def test_hermitian_error_names_the_failing_outcome(self):
        shear = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match=r"^effect 1 is not Hermitian: deviation 1\.000e\+00$"):
            Povm((np.eye(2), shear))
        with pytest.raises(ValueError, match=r"^effect 1 is not Hermitian: deviation 1\.000e\+00$"):
            Povm((np.eye(2), shear, 2 * shear.T))

    def test_ragged_effects_rejected(self):
        with pytest.raises(ValueError, match="^all effects must share one dimension$"):
            Povm((np.eye(2) / 2, np.eye(2) / 2, np.eye(3)))

    def test_effect_shapes_named(self):
        with pytest.raises(ValueError, match=r"^effect must be a square matrix, got shape \(2,\)$"):
            Povm(np.eye(2))
        with pytest.raises(ValueError, match=r"^effect must be a square matrix, got shape \(2, 3\)$"):
            Povm(np.zeros((2, 2, 3)))

    def test_one_outcome_rejected(self):
        with pytest.raises(ValueError, match="^a POVM needs at least two outcomes$"):
            Povm((np.eye(2),))

    def test_one_eigvalsh_call(self, rng, monkeypatch):
        effects = random_povm(rng, 16).matrices
        calls = []
        solver = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or solver(m))
        Povm(effects)
        assert calls == [(16, 16, 16)]


class TestNonFiniteInput:
    """NaN and +-inf fail every check instead of slipping past a ``>``."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    @pytest.mark.parametrize("build", [EFFECT_CHECKS, DensityMatrix, hermitian_eig, operator_norm])
    def test_matrix_rejected(self, build, entry, bad):
        matrix = np.diag([0.0, 1.0]).astype(complex)
        matrix[entry] = matrix[entry[::-1]] = bad
        with pytest.raises(ValueError, match="not Hermitian.*nan"):
            build(matrix)

    @pytest.mark.parametrize("amplitudes", [[math.nan, 1.0], [math.inf, 1.0], [1.0, -math.inf]])
    def test_state_rejected(self, amplitudes):
        with pytest.raises(ValueError, match="not normalized"):
            Basis((amplitudes, [0.0, 1.0]))
        with pytest.raises(ValueError, match="not normalized"):
            linalg._unit_rows(np.array(amplitudes, dtype=complex))


# The kernels' bodies before they read ties off the top gap and pivots by one
# flat index, kept as bitwise oracles for the rewritten kernels.
def unit_rows_oracle(v):
    """``_unit_rows`` with ``take_along_axis`` pivots."""
    v = v / np.sqrt(np.sum(np.abs(v) ** 2, axis=-1, keepdims=True))
    first = np.argmax(np.abs(v) > TOL.phase_pivot, axis=-1)[..., None]
    pivot = np.take_along_axis(v, first, axis=-1)
    return v * (pivot.conj() / np.hypot(pivot.real, pivot.imag))


def canonical_tops_oracle(w, v):
    """``_canonical_tops`` with every row's cluster start from ``diff`` and ``cumprod``."""
    k = w.shape[-1]
    close = np.diff(w, axis=-1) < TOL.cluster_gap
    starts = k - 1 - np.cumprod(close[:, ::-1], axis=-1).sum(axis=-1)
    tops = v[..., -1].copy()
    for row in np.flatnonzero(starts < k - 1).tolist():
        basis = np.asfortranarray(v[row, :, starts[row] :])
        for i in range(v.shape[1]):
            if basis.shape[1] == 1:
                break
            if np.linalg.norm(basis[i]) > TOL.phase_pivot:
                basis = basis @ np.linalg.svd(basis[i : i + 1])[2][1:].conj().T
        tops[row] = basis[:, 0]
    return unit_rows_oracle(tops)


# gaps between consecutive eigenvalues: exact ties, ties inside the cluster
# gap (one just below it), and clear gaps
PLANTED_GAPS = (0.0, 0.25 * TOL.cluster_gap, 0.9 * TOL.cluster_gap, 1e-3, 0.5)


class TestKernelOracles:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        shape=st.sampled_from([(), (1,), (5,), (2, 3), (3, 1), (1, 4)]),
        d=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_unit_rows_match_take_along_axis(self, shape, d, seed):
        gen = np.random.default_rng(seed)
        v = gen.normal(size=(*shape, d)) + 1j * gen.normal(size=(*shape, d))
        # leading zeros, then a component too small to fix the phase
        leads = gen.integers(0, d, size=(*shape, 1))
        v[np.arange(d) < leads] = 0.0
        small = np.arange(d) == leads - 1
        v[small] = 1e-13 * gen.normal(size=np.count_nonzero(small))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        assert linalg._unit_rows(v).tobytes() == unit_rows_oracle(v).tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        d=st.integers(2, 8),
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_canonical_tops_match_cumprod_clusters(self, data, d, n, seed):
        """Rows with a tied top, ties below the top only, several clusters
        or none; eigenvector columns are the last k of a Haar unitary."""
        k = data.draw(st.integers(2, d), label="k")
        gaps = data.draw(st.lists(st.lists(st.sampled_from(PLANTED_GAPS), min_size=k - 1, max_size=k - 1),
                                  min_size=n, max_size=n), label="gaps")
        gen = np.random.default_rng(seed)
        w = gen.uniform(-1.0, 0.0, size=(n, 1)) + np.concatenate([np.zeros((n, 1)), np.cumsum(gaps, axis=1)], axis=1)
        v = np.stack([haar_unitary(gen, d)[:, d - k :] for _ in range(n)])
        tops = linalg._canonical_tops(w, v)
        assert tops.tobytes() == canonical_tops_oracle(w, v).tobytes()
        assert not tops.flags.writeable


def _eye_with(index, entries, d=2):
    """A stack of identities, ``entries`` (position -> value) set in matrix ``index``."""
    stack = np.stack([np.eye(d, dtype=complex)] * 3)
    for position, value in entries.items():
        stack[(index, *position)] = value
    return stack


def _shear_stack(first, second):
    """Three 2 x 2 effects: the identity, then two shears whose (0, 1) entries are given."""
    stack = np.zeros((3, 2, 2), dtype=complex)
    stack[0] = np.eye(2)
    stack[1, 0, 1], stack[2, 0, 1] = first, second
    return stack


class TestFirstFailureNamed:
    """With several failing entries in one stack, each check names the first
    in C order; NaN and inf are rejected or let through as each predicate says."""

    @pytest.mark.parametrize(
        "first, second, defect",
        [(1.0, 2.0, "1.000e+00"), (2.0, 1.0, "2.000e+00"), (math.nan, 1.0, "nan"), (1.0, math.nan, "1.000e+00"),
         (math.inf, 1.0, "inf"), (-math.inf, math.nan, "inf")],
    )
    def test_hermitian(self, first, second, defect):
        stack = _shear_stack(first, second)
        with pytest.raises(ValueError, match=f"^effect 1 is not Hermitian: deviation {re.escape(defect)}$"):
            Povm(stack)
        with pytest.raises(ValueError, match=rf"^matrix is not Hermitian: max \|H - H\^dag\| = {re.escape(defect)} exceeds"):
            hermitian_eig(stack)

    @pytest.mark.parametrize(
        "first, second, defect",
        [(2.0, 3.0, "3.000e+00"), (3.0, 2.0, "8.000e+00"), (math.nan, 2.0, "nan"), (2.0, math.nan, "3.000e+00"),
         (math.inf, 2.0, "inf")],
    )
    def test_norms(self, first, second, defect):
        rows = np.eye(3, dtype=complex)
        rows[1, 1], rows[2, 2] = first, second
        message = rf"^state is not normalized: \|norm\^2 - 1\| = {re.escape(defect)}$"
        with pytest.raises(ValueError, match=message):
            Basis(rows)
        amplitudes = np.zeros((2, 2, 3), dtype=complex)
        amplitudes[..., 0] = 1.0
        amplitudes[0, 1], amplitudes[1, 0] = rows[1], rows[2]
        with pytest.raises(ValueError, match=message):
            EncodingMap(amplitudes)

    @pytest.mark.parametrize(
        "effects, message",
        [
            ((np.diag([-0.5, 0.25]), np.diag([0.25, 1.5]), np.diag([1.0, -0.75])), r"effect 0 spectrum \[-5\.000e-01, 0\.25\]"),
            ((np.diag([1.0, 0.0]), np.diag([0.0, 1.5]), np.diag([-0.25, 0.0])), r"effect 1 spectrum \[0\.000e\+00, 1\.5\]"),
            ((np.diag([1.0, 0.5]), np.diag([-0.25, 0.5]), np.diag([0.0, 1.5])), r"effect 1 spectrum \[-2\.500e-01, 0\.5\]"),
        ],
        ids=["first-low", "high-then-low", "low-then-high"],
    )
    def test_effect_spectrum(self, effects, message):
        with pytest.raises(ValueError, match=f"^{message} leaves \\[0, 1\\]$"):
            Povm(effects)

    def test_psd(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -2e-10]), np.diag([-3e-10, 1.0]), np.eye(2)]).reshape(2, 2, 2, 2)
        with pytest.raises(ValueError, match=r"^matrix is not positive semidefinite: min eigenvalue -2\.000e-10$"):
            operator_norm(stack)
        eigs = np.array([[[math.nan, 1.0], [-1e-9, 1.0]], [[-2e-9, 1.0], [0.0, math.nan]]])
        with pytest.raises(ValueError, match=r"min eigenvalue -1\.000e-09$"):
            linalg._psd_norms(eigs)
        # NaN is not below -TOL.psd: a NaN row passes, and its top stays NaN
        norms = linalg._psd_norms(np.array([[[math.nan, 1.0]], [[0.0, math.nan]]]))
        assert norms.shape == (2, 1) and norms[0, 0] == 1.0 and math.isnan(norms[1, 0])

    def test_born_values(self):
        amplitudes = np.stack([KET0, PLUS])
        effects = np.stack([np.eye(2) / 2, 2.0 * np.eye(2), -np.eye(2)])[:, None]
        with pytest.raises(ValueError, match=r"^Born probability 2 is outside \[0, 1\] beyond tolerance$"):
            _born_probabilities(amplitudes, effects)
        values = np.array([[0.5, math.nan], [-0.5, 1.5]])
        with pytest.raises(ValueError, match=r"^Born probability -0\.5 is outside"):
            linalg._clipped_probabilities(values)
        # NaN is neither below 0 nor above 1 and is let through; -0.0 keeps its sign
        clipped = linalg._clipped_probabilities(np.array([math.nan, -0.0, 1.0 + 1e-11, -1e-11]))
        assert math.isnan(clipped[0]) and math.copysign(1.0, clipped[1]) == -1.0
        assert clipped[2:].tolist() == [1.0, 0.0]
