"""Parameter containers and the interdimensional partner shift."""
import numpy as np
import pytest

from kgyukawa import DomainError, ParticleParams, PotentialParams, QuantumNumbers
from kgyukawa.params import PARTNER_SHIFT


def test_potential_validation():
    with pytest.raises(DomainError):
        PotentialParams(v0=0.2, s0=0.1, a=0.0)
    with pytest.raises(DomainError):
        PotentialParams(v0=0.2, s0=0.1, a=-0.1)
    for v0, s0, a in ((float("nan"), 0.1, 0.05), (0.2, float("inf"), 0.05),
                      (0.2, 0.1, float("inf")), (0.2, 0.1, float("nan"))):
        with pytest.raises(DomainError):
            PotentialParams(v0=v0, s0=s0, a=a)


def test_beta_roundtrip():
    pp = PotentialParams.from_beta(v0=0.2, beta=0.5, a=0.05)
    assert pp.s0 == pytest.approx(0.1)


def test_particle_validation():
    with pytest.raises(DomainError):
        ParticleParams(mass=0.0)
    for mass in (-1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError, match="mass must be > 0"):
            ParticleParams(mass=mass)


@pytest.mark.parametrize("mass", [1e-320, 1e-300, 1.49e-154, 1.35e154, 1e160, 1.7e308])
def test_mass_square_must_be_a_normal_float(mass):
    # M^2 underflowed to a subnormal or zero, or overflowed to inf, in the solver
    with pytest.raises(DomainError, match="mass must lie in about"):
        ParticleParams(mass=mass)


@pytest.mark.parametrize("mass", [1.5e-154, 1e-150, 1e150, 1.34e154])
def test_mass_at_the_edges_of_its_range(mass):
    assert ParticleParams(mass=mass).mass == mass


def test_quantum_number_bounds():
    with pytest.raises(DomainError):
        QuantumNumbers(n=0, l=0, d=3)
    with pytest.raises(DomainError):
        QuantumNumbers(n=1, l=-1, d=3)
    with pytest.raises(DomainError):
        QuantumNumbers(n=1, l=0, d=1)


@pytest.mark.parametrize("n, l, d, name", [
    (2**53 + 1, 0, 3, "n"), (1, 2**53 + 1, 3, "l"), (1, 0, 10**200, "d"), (10**400, 0, 3, "n"),
], ids=["n-2**53+1", "l-2**53+1", "d-10**200", "n-10**400"])
def test_quantum_numbers_are_at_most_two_to_the_53(n, l, d, name):
    # a larger one escaped as an OverflowError, or was rounded, where the
    # energy reads it as a float
    with pytest.raises(DomainError, match=rf"{name} must be <= 2\*\*53"):
        QuantumNumbers(n=n, l=l, d=d)
    assert QuantumNumbers(n=2**53, l=2**53, d=2**53).kappa() == 3 * 2**53 - 2


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


def test_partner_shift_keeps_kappa():
    qn = QuantumNumbers(n=1, l=3, d=6)
    assert PARTNER_SHIFT == {"up": (1, -2), "down": (-1, 2)}
    for dl, dd in PARTNER_SHIFT.values():
        partner = QuantumNumbers(n=qn.n, l=qn.l + dl, d=qn.d + dd)
        assert partner.kappa() == qn.kappa()
