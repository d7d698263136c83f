"""The benchmark's oracle against hand-derived values and broken outputs."""

import math
import random

import pytest

import oracle


def test_real_tetrad_identity_point():
    frame = oracle.real_tetrad(1 + 0j, 0j)
    assert frame == {
        "t": (1.0, 0.0, 0.0, 0.0),
        "z": (0.0, 0.0, 0.0, -1.0),
        "x": (0.0, 1.0, 0.0, 0.0),
        "y": (0.0, 0.0, -1.0, 0.0),
    }


def test_real_tetrad_is_even_proper_rotation():
    rng = random.Random(5)
    for _ in range(50):
        q = oracle.unit_quaternion(rng)
        a, b = oracle.pair_from_quaternion(q)
        frame = oracle.real_tetrad(a, b)
        rows = [frame[k][1:] for k in ("x", "y", "z")]
        for i in range(3):
            for j in range(3):
                dot = sum(p * r for p, r in zip(rows[i], rows[j]))
                assert abs(dot - (i == j)) < 1e-12
        (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = rows
        det = a1 * (b2 * c3 - b3 * c2) - a2 * (b1 * c3 - b3 * c1) + a3 * (b1 * c2 - b2 * c1)
        assert abs(det - 1.0) < 1e-12
        assert oracle.real_tetrad(-a, -b) == frame


@pytest.mark.parametrize("cutoff", [0, 1, 4, 12, 30])
def test_fock_basis_dimension_and_order(cutoff):
    basis = oracle.fock_basis(cutoff)
    assert len(basis) == oracle.fock_dimension(cutoff) == math.comb(cutoff + 4, 4)
    keys = [(sum(s), s) for s in basis]
    assert keys == sorted(keys)
    assert len(set(basis)) == len(basis)


def test_admission_gate():
    # the package README's example: scale 0.5 is refused at cutoff 6, fine at 12
    assert oracle.truncation_deficit(0.5, 6) > oracle.DEFICIT_BOUND
    with pytest.raises(ValueError, match="benchmark bug"):
        oracle.admit_coherent(0.5, 6)
    oracle.admit_coherent(0.5, 12)
    oracle.admit_coherent(0.5, 30)
    oracle.admit_coherent(0.1, 4)


def test_coherent_predictions():
    a, b = complex(0.6, 0.0), complex(0.0, 0.8)
    want = oracle.coherent_predictions(a, b, 0.5)
    assert tuple(want) == oracle.TETRAD_LABELS
    assert want["t0"] == 2.5
    assert want["z0"] == want["t3"] == 0.0
    z3 = abs(b) ** 2 - abs(a) ** 2
    assert want["z3"] == pytest.approx(0.25 * z3, abs=1e-15)


def test_expectation_check_uses_classical_tolerance():
    a, b = complex(0.6, 0.0), complex(0.0, 0.8)
    want = oracle.coherent_predictions(a, b, 0.5)
    labels = oracle.TETRAD_LABELS
    values = [complex(want[label]) for label in labels]
    assert oracle.check_expectations(a, b, 0.5, labels, values) is None
    values[5] += 5e-7
    assert oracle.check_expectations(a, b, 0.5, labels, values) is None
    values[5] += 1e-6
    assert "classical limit" in oracle.check_expectations(a, b, 0.5, labels, values)
    values[5] = complex(want[labels[5]], 2e-6)
    assert "classical limit" in oracle.check_expectations(a, b, 0.5, labels, values)
    shuffled = labels[1:] + labels[:1]
    assert "order" in oracle.check_expectations(a, b, 0.5, shuffled, values)


def test_chart_check_is_exact():
    q = oracle.unit_quaternion(random.Random(2))
    assert oracle.check_chart(q, 1.25, q, 1.25) is None
    nudged = (math.nextafter(q[0], 2.0),) + q[1:]
    assert "round trip" in oracle.check_chart(q, 1.25, nudged, 1.25)
    assert "phase" in oracle.check_chart(q, 1.25, q, 0.0)


def test_dyad_check():
    a, b = complex(0.6, 0.0), complex(0.0, 0.8)
    u, v = (a, -b.conjugate()), (b, a.conjugate())
    assert oracle.check_dyad(a, b, u, v, (0j, 0j, 1 + 0j, -1 + 0j)) is None
    assert "dyad" in oracle.check_dyad(a, b, v, u, (0j, 0j, 1 + 0j, -1 + 0j))
    assert "v.u" in oracle.check_dyad(a, b, u, v, (0j, 0j, 1 + 2e-12j, -1 + 0j))
    assert "u.v" in oracle.check_dyad(a, b, u, v, (0j, 0j, 1 + 0j, 1 + 0j))
