import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qracsim import (
    Basis,
    DensityMatrix,
    Effect,
    Povm,
    PureState,
    Spectrum,
    born_probability,
    hermitian_eig,
    operator_norm,
    partial_trace,
    tensor,
)
from conftest import random_density_matrix, random_hermitian, random_povm, random_pvm

SQRT2 = math.sqrt(2.0)
KET0 = PureState(np.array([1.0, 0.0]))
KET1 = PureState(np.array([0.0, 1.0]))
PLUS = PureState(np.array([1.0, 1.0]) / SQRT2)


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState(np.array([1.0, 1.0]))

    def test_phase_convention_first_visible_component(self):
        state = PureState(np.array([0.0, 1.0j]))
        assert np.allclose(state.amplitudes, [0.0, 1.0])

    def test_global_phase_removed(self):
        phase = np.exp(0.7j)
        state = PureState(phase * np.array([1.0, 1.0]) / SQRT2)
        assert np.allclose(state.amplitudes, [1 / SQRT2, 1 / SQRT2])

    def test_amplitudes_read_only(self):
        with pytest.raises(ValueError):
            KET0.amplitudes[0] = 5.0


class TestTensor:
    def test_identity_times_identity(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_product_state_expansion(self):
        result = tensor(KET0, PLUS)
        assert np.allclose(result.amplitudes, [1 / SQRT2, 1 / SQRT2, 0.0, 0.0])

    def test_left_factor_is_most_significant(self):
        # index 1 has big-endian digits (0, 1)
        product = tensor(KET0, KET1)
        expected = np.zeros(4)
        expected[1] = 1.0
        assert np.allclose(product.amplitudes, expected)

    def test_associativity(self, rng):
        mats = [random_hermitian(rng, d) for d in (2, 2, 3)]
        left = tensor(tensor(mats[0], mats[1]), mats[2])
        right = tensor(mats[0], tensor(mats[1], mats[2]))
        assert np.max(np.abs(left - right)) < 1e-12

    def test_kind_mismatch_rejected(self):
        with pytest.raises(TypeError, match="state with an operator"):
            tensor(KET0, np.eye(2))


class TestHermitianEig:
    def test_diagonal_case(self):
        spectrum = hermitian_eig(np.diag([1.0, -1.0]))
        assert np.allclose(spectrum.eigenvalues, [-1.0, 1.0])
        assert np.allclose(spectrum.eigenvectors[0].amplitudes, [0.0, 1.0])
        assert np.allclose(spectrum.eigenvectors[1].amplitudes, [1.0, 0.0])

    def test_projector_sum(self):
        # |0><0| + |+><+| has eigenvalues 1 -/+ 1/sqrt(2)
        matrix = KET0.projector() + PLUS.projector()
        spectrum = hermitian_eig(matrix)
        assert np.allclose(spectrum.eigenvalues, [1 - 1 / SQRT2, 1 + 1 / SQRT2], atol=1e-12)
        top = spectrum.top_eigenvector()
        assert np.allclose(top.amplitudes, [math.cos(math.pi / 8), math.sin(math.pi / 8)], atol=1e-12)

    def test_degenerate_identity(self):
        spectrum = hermitian_eig(np.eye(4))
        assert np.allclose(spectrum.eigenvalues, 1.0)
        stack = np.stack([v.amplitudes for v in spectrum.eigenvectors])
        assert np.allclose(stack @ stack.conj().T, np.eye(4), atol=1e-12)

    def test_deterministic_output(self, rng):
        h = random_hermitian(rng, 5)
        first = hermitian_eig(h)
        second = hermitian_eig(h)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        for a, b in zip(first.eigenvectors, second.eigenvectors):
            assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_non_hermitian_rejected_with_deviation(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match=r"not Hermitian.*1\.000e\+00"):
            hermitian_eig(bad)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: hermitian_eig(np.eye(17)),
            lambda: operator_norm(np.eye(17)),
            lambda: Effect(0.5 * np.eye(17)),
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
        spectrum = hermitian_eig(np.diag([1.0, 2.0, 2.0]))
        assert np.allclose(spectrum.top_eigenvector().amplitudes, [0.0, 0.0, 1.0])

    def test_top_eigenvector_ignores_cluster_basis(self):
        # {e1, e2} and {(e1 - e2)/sqrt2, (e1 + e2)/sqrt2} span one eigenspace
        e0, e1, e2 = (PureState(row) for row in np.eye(3))
        minus = PureState(np.array([0.0, 1.0, -1.0]) / SQRT2)
        plus = PureState(np.array([0.0, 1.0, 1.0]) / SQRT2)
        first = Spectrum(np.array([1.0, 2.0, 2.0]), (e0, e1, e2))
        second = Spectrum(np.array([1.0, 2.0, 2.0]), (e0, minus, plus))
        assert np.allclose(first.top_eigenvector().amplitudes, [0.0, 0.0, 1.0], atol=1e-12)
        assert np.allclose(
            second.top_eigenvector().amplitudes, first.top_eigenvector().amplitudes, atol=1e-12
        )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        d=st.integers(2, 6),
        multiplicity=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_top_eigenvector_has_most_leading_zeros(self, d, multiplicity, seed):
        from conftest import haar_unitary

        multiplicity = min(multiplicity, d)
        gen = np.random.default_rng(seed)
        lam = 2.0
        low = np.sort(gen.uniform(-1.0, 1.0, d - multiplicity))
        u = haar_unitary(gen, d)
        h = u @ np.diag(np.concatenate([low, np.full(multiplicity, lam)])) @ u.conj().T
        h = (h + h.conj().T) / 2
        top = hermitian_eig(h).top_eigenvector().amplitudes
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
        from conftest import haar_unitary

        u = haar_unitary(rng, 3)
        h = u @ np.diag([1.0, 1.0 + 3e-10, 2.0]) @ u.conj().T
        h = (h + h.conj().T) / 2
        spectrum = hermitian_eig(h)
        stack = np.stack([v.amplitudes for v in spectrum.eigenvectors])
        assert np.max(np.abs(stack @ stack.conj().T - np.eye(3))) < 1e-10
        rebuilt = (stack.T * spectrum.eigenvalues) @ stack.conj()
        assert np.max(np.abs(rebuilt - h)) < 1e-9

    def test_tiny_norm_matrix(self, rng):
        h = 1e-8 * random_hermitian(rng, 4)
        spectrum = hermitian_eig(h)
        stack = np.stack([v.amplitudes for v in spectrum.eigenvectors])
        rebuilt = (stack.T * spectrum.eigenvalues) @ stack.conj()
        assert np.max(np.abs(rebuilt - h)) < 1e-12

    def test_zero_matrix(self):
        spectrum = hermitian_eig(np.zeros((3, 3)))
        assert np.allclose(spectrum.eigenvalues, 0.0)

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_random_reconstruction(self, d):
        # 250 matrices per dimension: reconstruction, orthonormality, and
        # eigenvalue agreement with an independent solver
        gen = np.random.default_rng(1000 + d)
        for _ in range(250):
            h = random_hermitian(gen, d)
            spectrum = hermitian_eig(h)
            stack = np.stack([v.amplitudes for v in spectrum.eigenvectors])
            assert np.max(np.abs(stack @ stack.conj().T - np.eye(d))) < 1e-10
            rebuilt = (stack.T * spectrum.eigenvalues) @ stack.conj()
            assert np.max(np.abs(rebuilt - h)) < 1e-9
            reference = scipy.linalg.eigvalsh(h, driver="ev")
            assert np.max(np.abs(spectrum.eigenvalues - reference)) < 1e-9


def _spectrum_with_top_cluster(d: int, multiplicity: int, seed: int):
    """Eigenvalues and LAPACK eigenvector columns of a random Hermitian
    matrix whose top eigenvalue 2 has the given multiplicity."""
    from conftest import haar_unitary

    gen = np.random.default_rng(seed)
    low = np.sort(gen.uniform(-1.0, 1.0, d - multiplicity))
    u = haar_unitary(gen, d)
    h = u @ np.diag(np.concatenate([low, np.full(multiplicity, 2.0)])) @ u.conj().T
    return np.linalg.eigh((h + h.conj().T) / 2)


class TestSpectrum:
    def test_built_from_raw_vectors(self):
        spectrum = Spectrum(np.array([-1.0, 1.0]), (np.array([0.0, 1.0j]), np.array([1.0, 0.0])))
        assert np.array_equal(spectrum.eigenvector_matrix, np.array([[0.0, 1.0], [1.0j, 0.0]]))
        assert np.array_equal(spectrum.eigenvectors[0].amplitudes, [0.0, 1.0])
        assert np.array_equal(spectrum.top_eigenvector().amplitudes, [1.0, 0.0])
        with pytest.raises(ValueError):
            spectrum.eigenvector_matrix[0, 0] = 5.0

    def test_rejects_non_orthonormal_raw_vectors(self):
        with pytest.raises(ValueError, match="not orthonormal"):
            Spectrum(np.array([0.0, 1.0]), (np.array([1.0, 0.0]), np.array([1.0, 1.0]) / SQRT2))
        with pytest.raises(ValueError, match="not orthonormal"):
            Spectrum(np.array([0.0, 1.0]), (np.array([1.0, 0.0]), np.array([0.0, 2.0])))

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValueError, match="count mismatch"):
            Spectrum(np.array([0.0, 1.0, 2.0]), (KET0, KET1))
        with pytest.raises(ValueError, match="count mismatch"):
            Spectrum(np.array([1.0]), (KET0,))

    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    def test_eigenvectors_match_eager_wrapping(self, d):
        gen = np.random.default_rng(2000 + d)
        for _ in range(20):
            h = random_hermitian(gen, d)
            _, v = np.linalg.eigh((h + h.conj().T) / 2.0)
            spectrum = hermitian_eig(h)
            assert np.array_equal(spectrum.eigenvector_matrix, v)
            eager = tuple(PureState(v[:, i]) for i in range(d))
            assert len(spectrum.eigenvectors) == d
            for lazy, wrapped in zip(spectrum.eigenvectors, eager):
                assert np.array_equal(lazy.amplitudes, wrapped.amplitudes)
            assert spectrum.eigenvectors is spectrum.eigenvectors

    def test_states_are_handed_back(self):
        states = (KET1, KET0)
        spectrum = Spectrum(np.array([0.0, 1.0]), states)
        assert spectrum.eigenvectors is states
        assert spectrum.top_eigenvector() is KET0

    def test_wraps_only_what_is_read(self, monkeypatch):
        built = []
        wrap = PureState.__post_init__
        monkeypatch.setattr(PureState, "__post_init__", lambda self: built.append(wrap(self)))
        spectrum = hermitian_eig(np.diag([3.0, 1.0, 2.0, 0.0]))
        assert len(built) == 0
        spectrum.top_eigenvector()
        assert len(built) == 1
        spectrum.eigenvectors
        spectrum.eigenvectors
        assert len(built) == 5

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        d=st.integers(1, 6),
        multiplicity=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_top_eigenvector_same_from_columns_and_states(self, d, multiplicity, seed):
        multiplicity = min(multiplicity, d)
        w, v = _spectrum_with_top_cluster(d, multiplicity, seed)
        from_columns = Spectrum(w, v.T).top_eigenvector().amplitudes
        from_states = Spectrum(w, tuple(PureState(v[:, i]) for i in range(d))).top_eigenvector().amplitudes
        if multiplicity == 1:
            assert np.array_equal(from_columns, from_states)
        else:
            assert np.max(np.abs(from_columns - from_states)) < 1e-12

    @pytest.mark.parametrize("d", range(2, 7))
    def test_every_cluster_multiplicity(self, d):
        for multiplicity in range(2, d + 1):
            for seed in range(5):
                w, v = _spectrum_with_top_cluster(d, multiplicity, 100 * d + 10 * multiplicity + seed)
                from_columns = Spectrum(w, v.T).top_eigenvector().amplitudes
                states = tuple(PureState(v[:, i]) for i in range(d))
                from_states = Spectrum(w, states).top_eigenvector().amplitudes
                assert np.max(np.abs(from_columns - from_states)) < 1e-12


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_projector_sum_closed_form(self):
        matrix = KET0.projector() + PLUS.projector()
        assert operator_norm(matrix) == pytest.approx(1 + 1 / SQRT2, abs=1e-10)

    def test_zero_matrix(self):
        assert operator_norm(np.zeros((4, 4))) == 0.0

    def test_matches_max_eigenvalue(self, rng):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        psd = g @ g.conj().T
        assert operator_norm(psd) == pytest.approx(hermitian_eig(psd).max_eigenvalue, abs=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            operator_norm(np.diag([1.0, -1.0]))


class TestPartialTrace:
    def test_product_factorization(self, rng):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        joint = tensor(a, b)
        assert np.max(np.abs(partial_trace(joint, (2, 3), 1) - np.trace(b) * a)) < 1e-12
        assert np.max(np.abs(partial_trace(joint, (2, 3), 2) - np.trace(a) * b)) < 1e-12

    def test_product_state(self):
        joint = tensor(KET0, PLUS).projector()
        assert np.allclose(partial_trace(joint, (2, 2), 1), KET0.projector(), atol=1e-12)

    def test_maximally_entangled_reduces_to_mixed(self):
        bell = PureState(np.array([1.0, 0.0, 0.0, 1.0]) / SQRT2)
        reduced = partial_trace(bell.projector(), (2, 2), 1)
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


class TestBornProbability:
    def test_unbiased_overlap(self):
        assert born_probability(KET0, Effect(PLUS.projector())) == pytest.approx(0.5, abs=1e-12)

    def test_eigenstate(self):
        assert born_probability(KET0, Effect(KET0.projector())) == pytest.approx(1.0, abs=1e-12)

    def test_optimal_encoding_weight(self):
        a1 = math.sqrt(2 + SQRT2) / 2
        b1 = math.sqrt(2 - SQRT2) / 2
        state = PureState(np.array([a1, b1]))
        assert born_probability(state, Effect(KET0.projector())) == pytest.approx(
            0.8535533905932737, abs=1e-7
        )

    def test_density_matrix_input(self, rng):
        rho = DensityMatrix(random_density_matrix(rng, 3))
        povm = random_pvm(rng, 3)
        total = sum(born_probability(rho, e) for e in povm.effects)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_povm_probabilities_sum_to_one(self, rng):
        for d in (2, 3, 4):
            rho = DensityMatrix(random_density_matrix(rng, d))
            povm = random_povm(rng, d)
            total = sum(born_probability(rho, e) for e in povm.effects)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            born_probability(KET0, Effect(np.eye(3) / 3))


class TestWrapperValidation:
    def test_density_matrix_requires_unit_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_density_matrix_requires_psd(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_effect_spectrum_bounds(self):
        with pytest.raises(ValueError, match="leaves"):
            Effect(np.diag([1.5, 0.0]))

    def test_povm_completeness(self):
        with pytest.raises(ValueError, match="resolve the identity"):
            Povm((Effect(KET0.projector()), Effect(KET0.projector())))

    def test_basis_orthonormality(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Basis((KET0, PLUS))

    def test_basis_to_povm(self):
        povm = Basis((KET0, KET1)).to_povm()
        assert np.allclose(povm[0].matrix, KET0.projector())
