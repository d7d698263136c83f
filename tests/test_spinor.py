import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edges import EDGE_COMPLEX, EDGE_FLOATS, NEAR_SPHERE
from urtetrad.spinor import (
    ADMISSION_TOL,
    EPSILON,
    LOWER,
    UPPER,
    Dyad,
    GroupElement,
    NonUnitError,
    QuaternionPoint,
    Spinor,
    VarianceMismatchError,
    contract,
    dyad_from_element,
    from_quaternion,
    lower_index,
    raise_index,
    random_group_element,
    random_s3_point,
    to_quaternion,
)

complexes = st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)
spinors = st.builds(Spinor, complexes, complexes)


def test_identity_element():
    g = GroupElement(1.0, 0.0, 0.0)
    assert g.a == 1.0 and g.b == 0.0 and g.phi == 0.0
    np.testing.assert_array_equal(g.su2_matrix(), np.eye(2))


def test_unit_norm_complex_a():
    a = (1 + 1j) / math.sqrt(2)
    g = GroupElement(a, 0.0)
    assert abs(abs(g.a) ** 2 - 1.0) < 1e-12


def test_non_unit_rejected():
    with pytest.raises(NonUnitError):
        GroupElement(1.0, 1.0, 0.0)


NONFINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("slot", range(5))
def test_group_element_nonfinite_rejected(bad, slot):
    # slots: Re a, Im a, Re b, Im b, phi
    args = [1.0, 0.0, 0.0, 0.0, 0.0]
    args[slot] = bad
    with pytest.raises(ValueError):
        GroupElement(complex(args[0], args[1]), complex(args[2], args[3]), args[4])


@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("slot", range(4))
def test_quaternion_nonfinite_rejected(bad, slot):
    comps = [1.0, 0.0, 0.0, 0.0]
    comps[slot] = bad
    with pytest.raises(NonUnitError):
        QuaternionPoint(*comps)


def test_admission_renormalizes():
    s = 1.0 + 4e-10
    g = GroupElement(0.6 * s, 0.8j * s)
    assert abs(abs(g.a) ** 2 + abs(g.b) ** 2 - 1.0) < 1e-12


def test_quaternion_norm_on_the_admission_edge():
    """Points within 2e-9 of the sphere: admission, snapping and the
    refusal message all follow the norm summed as w^2 + x^2 + y^2 + z^2."""
    rng = np.random.default_rng(67)
    admitted = refused = 0
    for _ in range(2000):
        v = rng.standard_normal(4)
        v *= math.sqrt(1.0 + rng.uniform(-2 * ADMISSION_TOL, 2 * ADMISSION_TOL)) / np.linalg.norm(v)
        comps = [float(c) for c in v]
        norm = 0
        for c in comps:
            norm += c * c
        if abs(norm - 1.0) <= ADMISSION_TOL:
            q = QuaternionPoint(*comps)
            s = math.sqrt(norm)
            want = comps if abs(norm - 1.0) <= 1e-13 else [c / s for c in comps]
            assert np.array([q.w, q.x, q.y, q.z]).tobytes() == np.array(want).tobytes()
            admitted += 1
        else:
            with pytest.raises(NonUnitError, match=re.escape(repr(norm))):
                QuaternionPoint(*comps)
            refused += 1
    assert admitted > 500 and refused > 500


def _gate_norm(w, x, y, z):
    """The norm the admission gate measures, summed in its order."""
    return w * w + x * x + y * y + z * z


def test_group_element_norm_on_the_admission_edge():
    """The GroupElement twin: admission, snapping and the refusal message
    follow the norm of the chart coordinates (Re a, Im b, Re b, Im a)
    summed as w^2 + x^2 + y^2 + z^2."""
    rng = np.random.default_rng(67)
    admitted = refused = 0
    for _ in range(2000):
        v = rng.standard_normal(4)
        v *= math.sqrt(1.0 + rng.uniform(-2 * ADMISSION_TOL, 2 * ADMISSION_TOL)) / np.linalg.norm(v)
        w, x, y, z = comps = [float(c) for c in v]
        norm = _gate_norm(*comps)
        if abs(norm - 1.0) <= ADMISSION_TOL:
            g = GroupElement(complex(w, z), complex(y, x))
            s = math.sqrt(norm)
            want = comps if abs(norm - 1.0) <= 1e-13 else [c / s for c in comps]
            got = [g.a.real, g.b.imag, g.b.real, g.a.imag]
            assert np.array(got).tobytes() == np.array(want).tobytes()
            admitted += 1
        else:
            with pytest.raises(NonUnitError, match=re.escape(f"|a|^2 + |b|^2 = {norm!r}")):
                GroupElement(complex(w, z), complex(y, x))
            refused += 1
    assert admitted > 500 and refused > 500


def test_determinant_is_one():
    rng = np.random.default_rng(3)
    for _ in range(100):
        g = random_group_element(rng)
        assert abs(np.linalg.det(g.su2_matrix()) - 1.0) < 1e-12


def test_full_matrix_unitary_with_phase_determinant():
    rng = np.random.default_rng(5)
    for _ in range(100):
        g = random_group_element(rng)
        m = g.matrix()
        assert np.abs(m.conj().T @ m - np.eye(2)).max() < 1e-12
        assert abs(np.linalg.det(m) - np.exp(2j * g.phi)) < 1e-12


def test_phase_wrapping():
    assert GroupElement(1, 0, -1.0).phi == pytest.approx(2 * math.pi - 1.0)
    assert GroupElement(1, 0, 7.0).phi == pytest.approx(7.0 - 2 * math.pi)
    phi = GroupElement(1, 0, -1e-20).phi
    assert 0.0 <= phi < 2 * math.pi
    # one spelling of the zero phase
    assert math.copysign(1, GroupElement(1, 0, -0.0).phi) == 1


def test_to_quaternion_identity():
    q = to_quaternion(GroupElement(1, 0))
    assert (q.w, q.x, q.y, q.z) == (1.0, 0.0, 0.0, 0.0)


def test_to_quaternion_substitution():
    # a = w + i z, b = y + i x
    q = to_quaternion(GroupElement(0, 1j))
    assert (q.w, q.x, q.y, q.z) == (0.0, 1.0, 0.0, 0.0)


def test_from_quaternion_cases():
    assert from_quaternion(QuaternionPoint(1, 0, 0, 0)).a == 1.0
    g = from_quaternion(QuaternionPoint(0, 0, 1, 0))
    assert g.a == 0.0 and g.b == 1.0
    with pytest.raises(NonUnitError):
        QuaternionPoint(2, 0, 0, 0)


# chart coordinates (w, x, y, z) whose norm, summed as w^2 + x^2 + y^2 + z^2
# and as |a|^2 + |b|^2, falls on opposite sides of the 1e-13 snap edge
EDGE_G = (-0.7728874398340511, 0.2918485252865531, -0.22942897773105045, 0.5146180989940167)
EDGE_Q = (0.43374010462988455, -0.35845405741884506, -0.444055570385729, -0.6972767461812627)


def _element_bytes(g):
    return np.array([g.a.real, g.a.imag, g.b.real, g.b.imag, g.phi]).tobytes()


def test_chart_roundtrip_exact():
    rng = np.random.default_rng(11)
    for _ in range(300):
        g = random_group_element(rng)
        assert from_quaternion(to_quaternion(g), g.phi) == g
    for w, x, y, z in (EDGE_G, EDGE_Q):
        g = GroupElement(complex(w, z), complex(y, x))
        back = from_quaternion(to_quaternion(g), g.phi)
        assert back == g and _element_bytes(back) == _element_bytes(g)
        q = QuaternionPoint(w, x, y, z)
        back = to_quaternion(from_quaternion(q))
        assert back == q and back.as_array().tobytes() == q.as_array().tobytes()


def test_s3_sampling_on_sphere():
    rng = np.random.default_rng(5)
    for _ in range(100):
        q = random_s3_point(rng)
        assert abs(q.w**2 + q.x**2 + q.y**2 + q.z**2 - 1.0) < 1e-12


def test_identity_dyad():
    d = dyad_from_element(GroupElement(1, 0))
    assert (d.u.c1, d.u.c2) == (1.0, 0.0)
    assert (d.v.c1, d.v.c2) == (0.0, 1.0)


def test_dyad_relations_random():
    rng = np.random.default_rng(19)
    for _ in range(300):
        d = dyad_from_element(random_group_element(rng))
        assert d.max_defect() < 1e-12


def test_lower_components():
    rng = np.random.default_rng(23)
    g = random_group_element(rng)
    a, b = g.a, g.b
    u_low = lower_index(Spinor(a, -b.conjugate()))
    assert u_low.variance == LOWER
    assert u_low.c1 == -b.conjugate() and u_low.c2 == -a
    v_low = lower_index(Spinor(b, a.conjugate()))
    assert v_low.c1 == a.conjugate() and v_low.c2 == -b


def test_variance_errors():
    up = Spinor(1, 2)
    low = Spinor(1, 2, LOWER)
    with pytest.raises(VarianceMismatchError):
        lower_index(low)
    with pytest.raises(VarianceMismatchError):
        raise_index(up)
    with pytest.raises(VarianceMismatchError):
        contract(up, low)
    with pytest.raises(ValueError):
        Spinor(1, 2, "sideways")


@settings(max_examples=100, deadline=None)
@given(spinors)
def test_raise_lower_roundtrip(s):
    back = raise_index(lower_index(s))
    assert back.variance == UPPER
    assert back.c1 == s.c1 and back.c2 == s.c2


@settings(max_examples=100, deadline=None)
@given(spinors)
def test_double_lowering_negates(s):
    once = lower_index(s)
    twice = lower_index(Spinor(once.c1, once.c2, UPPER))
    assert twice.c1 == -s.c1 and twice.c2 == -s.c2


@settings(max_examples=100, deadline=None)
@given(spinors)
def test_self_contraction_vanishes(s):
    assert contract(s, s) == 0.0


@settings(max_examples=100, deadline=None)
@given(spinors, spinors)
def test_contraction_antisymmetric(p, q):
    assert contract(p, q) == -contract(q, p)


@settings(max_examples=100, deadline=None)
@given(spinors, spinors, spinors, complexes, complexes)
def test_contraction_bilinear(p, p2, q, al, be):
    combo = Spinor(al * p.c1 + be * p2.c1, al * p.c2 + be * p2.c2)
    lhs = contract(combo, q)
    rhs = al * contract(p, q) + be * contract(p2, q)
    assert abs(lhs - rhs) < 1e-9


def test_contract_dyad_values():
    rng = np.random.default_rng(29)
    for _ in range(100):
        d = dyad_from_element(random_group_element(rng))
        assert abs(contract(d.v, d.u) - 1.0) < 1e-12
        assert abs(contract(d.u, d.v) + 1.0) < 1e-12
        assert contract(d.u, d.u) == 0.0
        # mixed-variance input contracts the same way
        assert contract(lower_index(d.v), d.u) == contract(d.v, d.u)


# signed zeros, products that underflow and products that overflow
EDGE_PARTS = (0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300)


@pytest.mark.parametrize("variance", [UPPER, LOWER])
def test_contract_matches_the_lower_index_route_bit_for_bit(variance):
    rng = np.random.default_rng(71)
    parts = np.concatenate([EDGE_PARTS, rng.standard_normal(6)])
    for _ in range(3000):
        p1, p2, q1, q2 = (complex(*rng.choice(parts, 2)) for _ in range(4))
        p, q = Spinor(p1, p2, variance), Spinor(q1, q2)
        low = lower_index(p) if variance == UPPER else p
        want = low.c1 * q.c1 + low.c2 * q.c2
        assert np.array(contract(p, q)).tobytes() == np.array(want).tobytes(), (p, q)


def test_dyad_requires_upper():
    with pytest.raises(VarianceMismatchError):
        Dyad(Spinor(1, 0, LOWER), Spinor(0, 1))


def test_epsilon_identities():
    assert np.array_equal(EPSILON, -EPSILON.T)
    np.testing.assert_array_equal(EPSILON @ EPSILON.T, np.eye(2))
    np.testing.assert_array_equal(EPSILON @ EPSILON, -np.eye(2))


# the renormalisation leaves a point within _RENORM_SKIP of the sphere
_SNAPPED = 1e-13


@settings(max_examples=300, deadline=None)
@given(a=EDGE_COMPLEX, b=EDGE_COMPLEX, phi=EDGE_FLOATS)
@example(a=complex(EDGE_Q[0], EDGE_Q[3]), b=complex(EDGE_Q[2], EDGE_Q[1]), phi=0.0)
def test_group_element_refuses_or_lands_on_the_sphere(a, b, phi):
    try:
        g = GroupElement(a, b, phi)
    except ValueError as exc:
        assert type(exc) in (ValueError, NonUnitError)
        return
    parts = (g.a.real, g.a.imag, g.b.real, g.b.imag, g.phi)
    assert all(math.isfinite(part) for part in parts) and 0.0 <= g.phi < 2.0 * math.pi
    assert abs(_gate_norm(g.a.real, g.b.imag, g.b.real, g.a.imag) - 1.0) <= _SNAPPED


@settings(max_examples=300, deadline=None)
@given(w=EDGE_FLOATS, x=EDGE_FLOATS, y=EDGE_FLOATS, z=EDGE_FLOATS)
def test_quaternion_point_refuses_or_lands_on_the_sphere(w, x, y, z):
    try:
        q = QuaternionPoint(w, x, y, z)
    except ValueError as exc:
        assert type(exc) in (ValueError, NonUnitError)
        return
    parts = q.as_array()
    assert np.isfinite(parts).all()
    assert abs(_gate_norm(*parts.tolist()) - 1.0) <= _SNAPPED


@settings(max_examples=300, deadline=None)
@given(p=NEAR_SPHERE, phi=EDGE_FLOATS)
def test_readmission_is_bit_identical(p, phi):
    """What either constructor admits passes the gate again untouched, and
    both constructors store the same point for the same chart coordinates."""
    try:
        q = QuaternionPoint(*p)
    except NonUnitError:
        return
    assert QuaternionPoint(q.w, q.x, q.y, q.z).as_array().tobytes() == q.as_array().tobytes()
    w, x, y, z = p
    try:
        g = GroupElement(complex(w, z), complex(y, x), phi)
    except ValueError:  # a non-finite phase
        return
    assert _element_bytes(GroupElement(g.a, g.b, g.phi)) == _element_bytes(g)
    assert to_quaternion(g).as_array().tobytes() == q.as_array().tobytes()
    assert _element_bytes(from_quaternion(q, g.phi)) == _element_bytes(g)
