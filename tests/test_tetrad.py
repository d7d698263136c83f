import math

import numpy as np
import pytest

from urtetrad import tetrad
from urtetrad.spinor import (
    Dyad,
    GroupElement,
    QuaternionPoint,
    Spinor,
    dyad_from_element,
    from_quaternion,
    random_group_element,
    random_s3_point,
)
from urtetrad.tetrad import (
    ETA,
    NULL_FRAME_METRIC,
    SIGMA,
    DyadInvalidError,
    SingularFrameMetricError,
    minkowski_inner,
    null_tetrad,
    pauli_bilinear,
    real_tetrad,
    real_tetrad_polynomials,
    reconstruct_metric,
    reconstruct_metric_general,
    tangent_frame_at,
)

SQRT2 = math.sqrt(2.0)


def identity_tetrad():
    return null_tetrad(dyad_from_element(GroupElement(1, 0)))


def test_pauli_basis():
    for mu in range(4):
        np.testing.assert_array_equal(SIGMA[mu], SIGMA[mu].conj().T)
        np.testing.assert_array_equal(SIGMA[mu] @ SIGMA[mu], np.eye(2))


def test_identity_null_tetrad_values():
    # frozen from the hand contraction of the Pauli matrix entries
    nt = identity_tetrad()
    np.testing.assert_allclose(nt.l, np.array([0, 1, 1j, 0]) / SQRT2, atol=1e-15)
    np.testing.assert_allclose(nt.l_star, np.array([0, 1, -1j, 0]) / SQRT2, atol=1e-15)
    np.testing.assert_allclose(nt.m, np.array([1, 0, 0, -1]) / SQRT2, atol=1e-15)
    np.testing.assert_allclose(nt.n, np.array([1, 0, 0, 1]) / SQRT2, atol=1e-15)


def test_conjugation_and_reality():
    rng = np.random.default_rng(31)
    for _ in range(200):
        nt = null_tetrad(dyad_from_element(random_group_element(rng)))
        np.testing.assert_array_equal(nt.l_star, nt.l.conj())
        assert np.abs(nt.m.imag).max() < 1e-12
        assert np.abs(nt.n.imag).max() < 1e-12


def test_nullity_and_inner_product_table():
    rng = np.random.default_rng(37)
    for _ in range(200):
        nt = null_tetrad(dyad_from_element(random_group_element(rng)))
        vecs = nt.vectors()
        table = np.array([[minkowski_inner(p, q) for q in vecs] for p in vecs])
        assert np.abs(table - NULL_FRAME_METRIC).max() < 1e-12


def test_minkowski_inner_examples():
    assert minkowski_inner([1, 0, 0, 0], [1, 0, 0, 0]) == -1.0
    nt = identity_tetrad()
    assert abs(minkowski_inner(nt.m, nt.n) + 1.0) < 1e-12
    assert abs(minkowski_inner(nt.l, nt.l)) < 1e-12


def test_m_n_componentwise_relation():
    rng = np.random.default_rng(41)
    for _ in range(200):
        nt = null_tetrad(dyad_from_element(random_group_element(rng)))
        assert abs(nt.m[0] - nt.n[0]) < 1e-12
        assert np.abs(nt.m[1:] + nt.n[1:]).max() < 1e-12


def test_reconstruct_metric_identity_dyad():
    g = reconstruct_metric(identity_tetrad())
    np.testing.assert_allclose(g.real, ETA, atol=1e-15)
    assert np.abs(g.imag).max() < 1e-15


def test_reconstruct_metric_random_sweep():
    rng = np.random.default_rng(43)
    for _ in range(300):
        g = reconstruct_metric(null_tetrad(dyad_from_element(random_group_element(rng))))
        assert np.abs(g.real - ETA).max() < 1e-12
        assert np.abs(g.imag).max() < 1e-12


def test_general_reconstruction_routes():
    rng = np.random.default_rng(47)
    for _ in range(100):
        d = dyad_from_element(random_group_element(rng))
        nt = null_tetrad(d)
        direct = reconstruct_metric(nt)
        general = reconstruct_metric_general(nt.vectors(), NULL_FRAME_METRIC)
        assert np.abs(general - direct).max() < 1e-12
        rt = real_tetrad(d)
        real_route = reconstruct_metric_general(rt.vectors(), ETA)
        assert np.abs(real_route.real - ETA).max() < 1e-12
        assert np.abs(real_route.imag).max() < 1e-12


def test_frame_metric_rejections():
    nt = identity_tetrad()
    with pytest.raises(SingularFrameMetricError):
        reconstruct_metric_general(nt.vectors(), np.zeros((4, 4)))
    with pytest.raises(ValueError):
        reconstruct_metric_general(nt.vectors(), np.eye(3))


def test_frame_metric_is_self_inverse():
    np.testing.assert_array_equal(NULL_FRAME_METRIC @ NULL_FRAME_METRIC, np.eye(4))


def test_null_tetrad_carries_shared_frame_metric():
    assert not NULL_FRAME_METRIC.flags.writeable


def test_dyad_gate():
    bad = Dyad(Spinor(1, 0), Spinor(0, 1.1))
    with pytest.raises(DyadInvalidError):
        null_tetrad(bad)


def test_dyad_defect_keeps_nan():
    # v_A v^A is NaN, but it is not the first of the four conditions
    bad = Dyad(Spinor(1, 0), Spinor(0, math.nan))
    assert math.isnan(bad.max_defect())
    with pytest.raises(DyadInvalidError):
        null_tetrad(bad)


def test_dyad_gate_refuses_nan_defect():
    bad = Dyad(Spinor(math.nan, 0), Spinor(0, 1))
    with pytest.raises(DyadInvalidError):
        null_tetrad(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_frame_metric_not_finite_rejected(bad):
    fm = np.array(NULL_FRAME_METRIC)
    fm[0, 0] = bad
    with pytest.raises(SingularFrameMetricError):
        reconstruct_metric_general(identity_tetrad().vectors(), fm)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan)])
def test_frame_vector_not_finite_rejected(bad):
    frame = np.eye(4, dtype=complex)
    frame[0, 0] = bad
    with pytest.raises(ValueError, match="frame vectors are not finite"):
        reconstruct_metric_general(frame, ETA)


def test_real_tetrad_identity_point():
    # frozen from the quaternion polynomials at (1, 0, 0, 0)
    expected = {
        "t": [1.0, 0.0, 0.0, 0.0],
        "z": [0.0, 0.0, 0.0, -1.0],
        "x": [0.0, 1.0, 0.0, 0.0],
        "y": [0.0, 0.0, -1.0, 0.0],
    }
    rt = real_tetrad(dyad_from_element(GroupElement(1, 0)))
    rp = real_tetrad_polynomials(QuaternionPoint(1, 0, 0, 0))
    for key, vec, pvec in zip(expected, rt.vectors(), rp.vectors()):
        np.testing.assert_allclose(vec, expected[key], atol=1e-15)
        np.testing.assert_array_equal(pvec, expected[key])


def test_real_tetrad_second_point():
    # frozen from the polynomials at (w, x, y, z) = (0, 1, 0, 0)
    rt = real_tetrad(dyad_from_element(from_quaternion(QuaternionPoint(0, 1, 0, 0))))
    np.testing.assert_allclose(rt.z, [0, 0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(rt.x, [0, 1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(rt.y, [0, 0, 1, 0], atol=1e-15)


def test_bilinear_route_matches_polynomial_oracle():
    rng = np.random.default_rng(53)
    for _ in range(300):
        q = random_s3_point(rng)
        rt = real_tetrad(dyad_from_element(from_quaternion(q)))
        rp = real_tetrad_polynomials(q)
        for a, b in zip(rt.vectors(), rp.vectors()):
            assert np.abs(a - b).max() < 1e-12


def test_double_cover():
    rng = np.random.default_rng(59)
    for _ in range(100):
        q = random_s3_point(rng)
        rt = real_tetrad(dyad_from_element(from_quaternion(q)))
        rt_neg = real_tetrad(dyad_from_element(from_quaternion(-q)))
        for a, b in zip(rt.vectors(), rt_neg.vectors()):
            np.testing.assert_array_equal(a, b)


def test_dreibein_is_proper_rotation():
    rng = np.random.default_rng(61)
    for _ in range(200):
        rot = real_tetrad(dyad_from_element(random_group_element(rng))).dreibein()
        assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(rot) - 1.0) < 1e-12


def test_bilinears_phase_invariant():
    rng = np.random.default_rng(67)
    for _ in range(100):
        d = dyad_from_element(random_group_element(rng))
        u, v = d.u.components(), d.v.components()
        ph = np.exp(1j * rng.uniform(0, 2 * math.pi))
        for p, q in ((v, u), (u, v), (v, v), (u, u)):
            assert np.abs(pauli_bilinear(ph * p, ph * q) - pauli_bilinear(p, q)).max() < 1e-12


def bits(value):
    """dtype, shape and bytes: equal bits, the sign of every zero included."""
    value = np.asarray(value)
    return value.dtype, value.shape, value.tobytes()


def test_stacked_bilinear_matches_scalar_calls():
    rng = np.random.default_rng(79)
    p = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
    q = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
    stacked = pauli_bilinear(p, q)
    assert stacked.shape == (50, 4)
    for row, a, b in zip(stacked, p, q):
        single = pauli_bilinear(a, b)
        assert single.shape == (4,)
        assert row.tobytes() == single.tobytes()

    # every tetrad function over a stack equals its per-point calls bit for
    # bit; the axis points give entries that are zero
    axes = [QuaternionPoint(*row) for row in np.eye(4)] + [QuaternionPoint(0.5, -0.5, 0.5, -0.5)]
    points = axes + [-pt for pt in axes] + [random_s3_point(rng) for _ in range(40)]
    quats = np.array([pt.as_array() for pt in points])
    dyads = [dyad_from_element(from_quaternion(pt)) for pt in points]
    nt = tetrad._null_tetrad(
        np.array([d.u.components() for d in dyads]), np.array([d.v.components() for d in dyads])
    )
    rt = tetrad._real_tetrad(nt)
    rp = real_tetrad_polynomials(quats)
    frames = tangent_frame_at(quats)
    metric = reconstruct_metric(nt)
    general = reconstruct_metric_general(nt.vectors(), NULL_FRAME_METRIC)
    general_real = reconstruct_metric_general(rt.vectors(), ETA)
    # complex and real frames, in all four pairings
    tables = [
        minkowski_inner(np.stack(f.vectors(), 1)[:, :, None], np.stack(g.vectors(), 1)[:, None, :])
        for f in (nt, rt) for g in (nt, rt)
    ]
    assert {table.shape for table in tables} == {(len(points), 4, 4)}
    for i, (pt, d) in enumerate(zip(points, dyads)):
        nt_i, rt_i, rp_i = null_tetrad(d), real_tetrad(d), real_tetrad_polynomials(pt)
        for whole, one in ((nt, nt_i), (rt, rt_i), (rp, rp_i)):
            for vec, vec_i in zip(whole.vectors(), one.vectors()):
                assert bits(vec[i]) == bits(vec_i)
                assert not vec.flags.writeable and not vec_i.flags.writeable
        assert bits(rt.dreibein()[i]) == bits(rt_i.dreibein())
        assert bits(rp.dreibein()[i]) == bits(rp_i.dreibein())
        for vec, vec_i in zip(frames, tangent_frame_at(pt)):
            assert bits(vec[i]) == bits(vec_i)
        assert bits(metric[i]) == bits(reconstruct_metric(nt_i))
        assert bits(general[i]) == bits(reconstruct_metric_general(nt_i.vectors(), NULL_FRAME_METRIC))
        assert bits(general_real[i]) == bits(reconstruct_metric_general(rt_i.vectors(), ETA))
        for (f, g), table in zip([(f, g) for f in (nt_i, rt_i) for g in (nt_i, rt_i)], tables):
            for a, row in zip(f.vectors(), table[i]):
                for b, entry in zip(g.vectors(), row):
                    value = minkowski_inner(a, b)
                    assert type(value) is complex
                    assert bits(entry) == bits(value)
    # a real pair keeps the +0 imaginary part even where every product has -0
    assert bits(minkowski_inner([[1.0, -1, -1, -1]], [-1.0, -1, -1, -1])) == bits([4 + 0j])


def quaternion_left_product(p, q):
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return [
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    ]


def test_tangent_frame_is_left_translated_dreibein():
    rng = np.random.default_rng(83)
    dreibein = ((0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1))  # i, -j, -k
    for _ in range(500):
        q = random_s3_point(rng)
        frame = tangent_frame_at(q)
        for vec, e in zip(frame, dreibein):
            # equal by value; the sign of a zero entry may differ
            assert vec.tolist() == quaternion_left_product(q.as_array().tolist(), e)
            assert not vec.flags.writeable


def test_tangent_frame_at_identity():
    frame = tangent_frame_at(QuaternionPoint(1, 0, 0, 0))
    np.testing.assert_array_equal(frame[0], [0, 1, 0, 0])
    np.testing.assert_array_equal(frame[1], [0, 0, -1, 0])
    np.testing.assert_array_equal(frame[2], [0, 0, 0, -1])
    for vec in frame:
        assert vec @ np.array([1.0, 0, 0, 0]) == 0.0


def test_tangent_frames_random():
    rng = np.random.default_rng(71)
    for _ in range(200):
        q = random_s3_point(rng)
        frame = np.array(tangent_frame_at(q))
        assert np.abs(frame @ q.as_array()).max() < 1e-12
        assert np.abs(frame @ frame.T - np.eye(3)).max() < 1e-12
