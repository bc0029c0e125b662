"""Parameter containers and quantum-number transformations."""
import numpy as np
import pytest

from kgyukawa import (
    DomainError,
    OutOfDomain,
    ParticleParams,
    PotentialParams,
    QuantumNumbers,
    degeneracy_partner,
)


def test_potential_validation():
    with pytest.raises(DomainError):
        PotentialParams(v0=0.2, s0=0.1, a=0.0)
    with pytest.raises(DomainError):
        PotentialParams(v0=0.2, s0=0.1, a=-0.1)
    with pytest.raises(DomainError):
        PotentialParams(v0=float("nan"), s0=0.1, a=0.05)


def test_beta_roundtrip():
    pp = PotentialParams.from_beta(v0=0.2, beta=0.5, a=0.05)
    assert pp.s0 == pytest.approx(0.1)


def test_particle_validation():
    with pytest.raises(DomainError):
        ParticleParams(mass=0.0)
    with pytest.raises(DomainError):
        ParticleParams(mass=-1.0)


def test_quantum_number_bounds():
    with pytest.raises(DomainError):
        QuantumNumbers(n=0, l=0, d=3)
    with pytest.raises(DomainError):
        QuantumNumbers(n=1, l=-1, d=3)
    with pytest.raises(DomainError):
        QuantumNumbers(n=1, l=0, d=1)


@pytest.mark.parametrize("n, l, d", [(1.5, 0, 3), (1, 0.5, 3), (1, 0, 3.0), (1.0, 0, 3)])
def test_quantum_numbers_must_be_integers(n, l, d):
    # the quantization condition would solve a half-integer n or l to an
    # energy between the table's
    with pytest.raises(DomainError, match="must be an integer"):
        QuantumNumbers(n=n, l=l, d=d)


def test_quantum_numbers_accept_numpy_integers():
    qn = QuantumNumbers(n=np.int64(2), l=np.int32(1), d=np.uint8(3))
    assert qn.kappa() == 3
    assert qn.centrifugal_constant() == 2.0


def test_centrifugal_constant_reduces_to_l_l_plus_one():
    for l in range(4):
        qn = QuantumNumbers(n=1, l=l, d=3)
        assert qn.centrifugal_constant() == pytest.approx(l * (l + 1))
    assert QuantumNumbers(n=1, l=0, d=2).centrifugal_constant() == pytest.approx(-0.25)


def test_partner_preserves_kappa():
    qn = QuantumNumbers(n=2, l=1, d=3)
    down = degeneracy_partner(qn, "down")
    assert (down.n, down.l, down.d) == (2, 0, 5)
    assert down.kappa() == qn.kappa()
    up = degeneracy_partner(down, "up")
    assert (up.n, up.l, up.d) == (2, 1, 3)


def test_partner_out_of_domain():
    with pytest.raises(OutOfDomain):
        degeneracy_partner(QuantumNumbers(n=1, l=0, d=3), "down")
    with pytest.raises(OutOfDomain):
        degeneracy_partner(QuantumNumbers(n=1, l=0, d=3), "up")  # d would drop to 1
    with pytest.raises(DomainError):
        degeneracy_partner(QuantumNumbers(n=1, l=1, d=3), "sideways")
