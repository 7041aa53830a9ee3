"""Numerical tolerances, collected in one record so tests have a single knob."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    norm: float = 1e-10               # pure-state normalization defect
    hermitian: float = 1e-10          # entrywise Hermiticity deviation
    psd: float = 1e-10                # eigenvalue floor for positive operators
    effect_upper: float = 1e-10       # slack above 1 for effect eigenvalues
    completeness: float = 1e-10       # POVM resolution of identity, entrywise
    orthonormal: float = 1e-10        # modulus of off-diagonal basis overlaps
    phase_pivot: float = 1e-12        # smallest component that may fix the global phase
    cluster_gap: float = 1e-9         # eigenvalue gap that delimits a degenerate cluster
    reconstruction: float = 1e-9      # eigendecomposition reconstruction error
    mub_defect: float = 1e-9          # accepted unbiasedness defect for a MUB pair
    projective: float = 1e-9          # idempotency tolerance for PVM effects
    commutator: float = 1e-9          # Frobenius norm below which projectors commute
    probability_slack: float = 1e-10  # Born values may stray outside [0, 1] by this much
    dim_cap: int = 16                 # largest dimension handled by the exact solvers


TOL = Tolerances()
