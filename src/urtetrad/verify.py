"""Seeded randomized verification sweeps over the package invariants.

Each suite draws its inputs from one shared generator, so a report is a
pure function of (suite, samples, seed, tolerance, cutoff) and two runs
with the same flags agree byte for byte.  Records carry the worst observed
deviation; exact identities (ones that hold in floating point, not merely
in algebra) carry tolerance 0.  A non-finite deviation fails its record
and is reported as null.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from . import fock, spinor, tetrad

__all__ = ["SUITES", "run_verification"]

SUITES = ("spinor", "tetrad", "fock", "all")

_MODES = (1, 2, 3, 4)

# Tolerance classes: the --tol value or a fixed number (1e-6 for the
# classical limit of the truncated Fock space, 0.0 for identities that are
# exact in floating point).
_TOL, _CLASSICAL, _EXACT = "tol", 1e-6, 0.0

# suite -> {record name: tolerance class}, in report order
_RECORDS = {
    "spinor": {
        "unitarity_norm": _TOL,
        "chart_roundtrip": _EXACT,
        "dyad_self_contraction": _TOL,
        "dyad_cross_contraction": _TOL,
        "contraction_antisymmetry": _TOL,
        "contraction_bilinearity": _TOL,
        "lowering_twice_negates": _EXACT,
        "raise_lower_roundtrip": _EXACT,
        "epsilon_metric_identities": _TOL,
    },
    "tetrad": {
        "null_vector_nullity": _TOL,
        "frame_inner_product_table": _TOL,
        "metric_reconstruction": _TOL,
        "metric_reconstruction_imaginary": _TOL,
        "general_vs_direct_reconstruction": _TOL,
        "real_frame_reconstruction": _TOL,
        "m_n_component_symmetry": _TOL,
        "frame_metric_self_inverse": _TOL,
        "bilinear_phase_invariance": _TOL,
        "real_tetrad_vs_polynomials": _TOL,
        "rotation_orthonormality": _TOL,
        "rotation_determinant": _TOL,
        "rotation_double_cover": _EXACT,
        "tangent_radial_orthogonality": _TOL,
        "tangent_orthonormality": _TOL,
        "real_tetrad_identity_point": 1e-15,
    },
    "fock": {
        "canonical_commutators_safe_subspace": _TOL,
        "lowering_commutators_vanish": _TOL,
        "raising_commutators_vanish": _TOL,
        "bilinear_adjoint_symmetry": _TOL,
        "bilinear_vs_anticommutator": _TOL,
        "tetrad_components_hermitian": _TOL,
        "time_component_zero_point": _EXACT,
        "spatial_zero_point_cancellation": _TOL,
        "classical_limit_spatial": _CLASSICAL,
        "classical_limit_time": _CLASSICAL,
        "coherent_phase_covariance": _TOL,
    },
}


def _record(name, devs, tol):
    """One report record; `devs` holds one deviation per sample."""
    worst = float(np.max(devs))  # np.max keeps a NaN, where max() would drop it
    finite = math.isfinite(worst)
    return {
        "name": name,
        "samples": len(devs),
        "max_deviation": worst if finite else None,
        "tolerance": float(tol),
        "pass": finite and worst <= tol,
    }


def _worst(values):
    """Largest magnitude among the values, NaN if any is NaN."""
    return np.abs(values).max()


def _worst_part(values):
    """Largest magnitude among the real and imaginary parts of the values."""
    values = np.asarray(values, dtype=complex)
    return _worst([values.real, values.imag])


def _random_spinor(rng):
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return spinor.Spinor(c[0], c[1])


# ---------------------------------------------------------------- spinor


def _spinor_fixed():
    eps, eye = spinor.EPSILON, np.eye(2)
    yield "epsilon_metric_identities", _worst([eps + eps.T, eps @ eps.T - eye, eps @ eps + eye])


def _spinor_draw(rng):
    contract = spinor.contract
    g = spinor.random_group_element(rng)
    yield "unitarity_norm", abs(abs(g.a) ** 2 + abs(g.b) ** 2 - 1.0)
    g2 = spinor.from_quaternion(spinor.to_quaternion(g), g.phi)
    yield "chart_roundtrip", _worst([g2.a - g.a, g2.b - g.b, g2.phi - g.phi])
    d = spinor.dyad_from_element(g)
    yield "dyad_self_contraction", _worst([contract(d.u, d.u), contract(d.v, d.v)])
    yield "dyad_cross_contraction", _worst([contract(d.v, d.u) - 1.0, contract(d.u, d.v) + 1.0])

    p, p2, q = _random_spinor(rng), _random_spinor(rng), _random_spinor(rng)
    yield "contraction_antisymmetry", abs(contract(p, q) + contract(q, p))
    al, be = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    combo = spinor.Spinor(al * p.c1 + be * p2.c1, al * p.c2 + be * p2.c2)
    yield "contraction_bilinearity", abs(
        contract(combo, q) - al * contract(p, q) - be * contract(p2, q)
    )
    once = spinor.lower_index(p)
    twice = spinor.lower_index(spinor.Spinor(once.c1, once.c2))
    yield "lowering_twice_negates", _worst(twice.components() + p.components())
    back = spinor.raise_index(once)
    yield "raise_lower_roundtrip", _worst(back.components() - p.components())


# ---------------------------------------------------------------- tetrad


_IDENTITY_FRAME = ([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.0], [0.0, 1.0, 0.0, 0.0],
                   [0.0, 0.0, -1.0, 0.0])


def _tetrad_fixed():
    fm = tetrad.NULL_FRAME_METRIC
    yield "frame_metric_self_inverse", _worst(fm @ fm - np.eye(4))
    ident = tetrad.real_tetrad(spinor.dyad_from_element(spinor.GroupElement(1.0, 0.0)))
    yield "real_tetrad_identity_point", _worst(np.subtract(ident.vectors(), _IDENTITY_FRAME))


def _tetrad_draw(rng):
    eta = tetrad.ETA
    q = spinor.random_s3_point(rng)
    d = spinor.dyad_from_element(spinor.from_quaternion(q))
    nt = tetrad.null_tetrad(d)
    vecs = nt.vectors()
    table = np.array([[tetrad.minkowski_inner(a, b) for b in vecs] for a in vecs])
    yield "null_vector_nullity", _worst(np.diagonal(table))
    yield "frame_inner_product_table", _worst(table - tetrad.NULL_FRAME_METRIC)
    g = tetrad.reconstruct_metric(nt)
    yield "metric_reconstruction", _worst(g.real - eta)
    yield "metric_reconstruction_imaginary", _worst(g.imag)
    g2 = tetrad.reconstruct_metric_general(vecs, tetrad.NULL_FRAME_METRIC)
    yield "general_vs_direct_reconstruction", _worst(g2 - g)
    rt = tetrad.real_tetrad(d)
    yield "real_frame_reconstruction", _worst_part(
        tetrad.reconstruct_metric_general(rt.vectors(), eta) - eta
    )
    # m^0 = n^0 and m^i = -n^i
    yield "m_n_component_symmetry", _worst(nt.m + eta @ nt.n)

    u, v = d.u.components(), d.v.components()
    ph = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    # (l, l*, m, n) are the bilinears of (v, u), (u, v), (v, v) and (u, u)
    phased = tetrad.pauli_bilinear(ph * np.array([v, u, v, u]), ph * np.array([u, v, v, u]))
    yield "bilinear_phase_invariance", _worst(np.subtract(phased, vecs))

    yield "real_tetrad_vs_polynomials", _worst(
        np.subtract(rt.vectors(), tetrad.real_tetrad_polynomials(q).vectors())
    )
    rot = rt.dreibein()
    yield "rotation_orthonormality", _worst(rot.T @ rot - np.eye(3))
    yield "rotation_determinant", abs(np.linalg.det(rot) - 1.0)
    rt_neg = tetrad.real_tetrad(spinor.dyad_from_element(spinor.from_quaternion(-q)))
    yield "rotation_double_cover", _worst(np.subtract(rt.vectors(), rt_neg.vectors()))
    frame = np.array(tetrad.tangent_frame_at(q))
    yield "tangent_radial_orthogonality", _worst(frame @ q.as_array())
    yield "tangent_orthonormality", _worst(frame @ frame.T - np.eye(3))


# ------------------------------------------------------------------ fock


def _poisson_tail(intensity, cutoff):
    term = 1.0
    acc = 1.0
    for n in range(1, cutoff + 1):
        term *= intensity / n
        acc += term
    return 1.0 - math.exp(-intensity) * acc


_DEFICIT_BOUND = 1e-10  # a hundredth of fock.MAX_DEFICIT
_SCALE_CAP = 0.5


def _coherent_scale_for_cutoff(cutoff):
    """Largest scale <= _SCALE_CAP whose truncation deficit stays below _DEFICIT_BOUND.

    Unit group elements have total bispinor intensity 2 * scale^2; the
    deficit is the Poisson tail of that intensity above the cutoff.
    """
    s_hi = 2.0 * _SCALE_CAP * _SCALE_CAP
    if _poisson_tail(s_hi, cutoff) <= _DEFICIT_BOUND:
        return _SCALE_CAP
    lo, hi = 0.0, s_hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _poisson_tail(mid, cutoff) <= _DEFICIT_BOUND:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo / 2.0)


def _fock_checks(cutoff):
    """The fixed operator checks at this cutoff, and the per-draw check."""
    space = fock.FockSpace(cutoff)
    eye = space.identity()
    ann = {r: space.annihilator(r) for r in _MODES}
    cre = {r: ann[r].dagger() for r in _MODES}
    safe = space.safe_indices()
    taus = {(r, s): space.tau(r, s) for r in _MODES for s in _MODES}
    comps = {name: fock.tetrad_component(space, name) for name in fock.TETRAD_BILINEARS}
    scale = _coherent_scale_for_cutoff(cutoff)

    def fixed():
        for (r, s), tau in taus.items():
            comm = ann[r] @ cre[s] - cre[s] @ ann[r]
            if r == s:
                comm = comm - eye
            yield "canonical_commutators_safe_subspace", comm.max_abs(columns=safe)
            yield "lowering_commutators_vanish", (ann[r] @ ann[s] - ann[s] @ ann[r]).max_abs()
            yield "raising_commutators_vanish", (cre[r] @ cre[s] - cre[s] @ cre[r]).max_abs()
            yield "bilinear_adjoint_symmetry", (tau.dagger() - taus[s, r]).max_abs()
            anticomm = 0.5 * (cre[r] @ ann[s] + ann[s] @ cre[r])
            yield "bilinear_vs_anticommutator", (tau - anticomm).max_abs(columns=safe)
        for name, op in comps.items():
            yield "tetrad_components_hermitian", op.hermiticity_defect()
            if name == "t0":
                shifted = space.total_quanta() + 2.0 * eye
                yield "time_component_zero_point", (op - shifted).max_abs()
            else:
                terms = [(cre[r] @ ann[s]) * coeff for coeff, r, s in fock.TETRAD_BILINEARS[name]]
                normal_ordered = sum(terms[1:], terms[0])
                yield "spatial_zero_point_cancellation", (op - normal_ordered).max_abs()

    def draw(rng):
        g = spinor.random_group_element(rng)
        amps = fock.BispinorAmplitudes.from_element(g)
        state = fock.coherent_state(space, amps, scale)
        values = {name: fock.expectation(op, state) for name, op in comps.items()}
        rt = tetrad.real_tetrad(spinor.dyad_from_element(g))
        axes = {"z": rt.z, "x": rt.x, "y": rt.y}
        s2 = scale * scale
        spatial = [val - s2 * axes[name[0]][int(name[1])]
                   for name, val in values.items() if name != "t0"]
        yield "classical_limit_spatial", _worst_part(spatial)
        yield "classical_limit_time", _worst_part([values["t0"] - (2.0 + 2.0 * s2)])
        ph = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        phased = fock.BispinorAmplitudes(*(ph * amps.as_array()))
        state_ph = fock.coherent_state(space, phased, scale)
        yield "coherent_phase_covariance", _worst(
            [val - fock.expectation(comps[name], state_ph) for name, val in values.items()]
        )

    return fixed(), draw


def _suite_checks(suite, cutoff):
    """(fixed checks, per-draw check) of one suite."""
    if suite == "spinor":
        return _spinor_fixed(), _spinor_draw
    if suite == "tetrad":
        return _tetrad_fixed(), _tetrad_draw
    return _fock_checks(cutoff)


def run_verification(
    suite: str = "all",
    samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-12,
    cutoff: int = 4,
) -> dict:
    """Run the selected invariant sweeps and return the report as a dict.

    The report is deterministic for fixed arguments; the overall pass flag
    is the conjunction of the per-record flags.  Raises ValueError for an
    unknown suite, samples < 1, a cutoff that is not a nonnegative integer
    or a tolerance that is negative or not finite.
    """
    if suite not in SUITES:
        raise ValueError(f"suite must be one of {SUITES}")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if not (0 <= cutoff < math.inf and cutoff % 1 == 0):
        raise ValueError(f"cutoff must be a nonnegative integer, got {cutoff!r}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    rng = np.random.default_rng(seed)
    tols = {_TOL: float(tol)}
    records = []
    for name, table in _RECORDS.items():
        if suite not in (name, "all"):
            continue
        fixed, draw = _suite_checks(name, cutoff)
        draws = itertools.chain.from_iterable(draw(rng) for _ in range(samples))
        devs = {record: [] for record in table}
        for record, dev in itertools.chain(fixed, draws):
            devs[record].append(dev)
        records += [_record(rec, devs[rec], tols.get(cls, cls)) for rec, cls in table.items()]
    return {
        "command": "verify",
        "suite": suite,
        "samples": int(samples),
        "seed": int(seed),
        "tolerance": float(tol),
        "classical_tolerance": _CLASSICAL,
        "cutoff": int(cutoff),
        "records": records,
        "pass": all(r["pass"] for r in records),
    }
