"""Seeded randomized verification sweeps over the package invariants.

Each suite draws its inputs from one shared generator, so a report is a
pure function of (suite, samples, seed, tolerance, cutoff) and two runs
with the same flags agree byte for byte.  A suite is one function that
returns each record's deviations, one per sample, in report order; the
tetrad suite evaluates each record once per stacked block of its draws.
Records carry the worst observed deviation; exact identities (ones that
hold in floating point, not merely in algebra) carry tolerance 0.  A
non-finite deviation fails its record and is reported as null.
"""

from __future__ import annotations

import cmath
import collections
import math

import numpy as np

from . import fock, spinor, tetrad

__all__ = ["run_verification"]

_MODES = (1, 2, 3, 4)

_CLASSICAL = 1e-6  # the classical limit of the truncated Fock space, whatever --tol

# the records not judged at --tol: 0.0 for identities that are exact in
# floating point
_TOLERANCES = {
    "chart_roundtrip": 0.0,
    "lowering_twice_negates": 0.0,
    "raise_lower_roundtrip": 0.0,
    "rotation_double_cover": 0.0,
    "real_tetrad_identity_point": 1e-15,
    "time_component_zero_point": 0.0,
    "classical_limit_spatial": _CLASSICAL,
    "classical_limit_time": _CLASSICAL,
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
    """Each sample's largest magnitude, samples on the first axis; NaN if any is NaN."""
    values = np.abs(values)
    return values.reshape(len(values), -1).max(axis=1)


def _worst_part(values):
    """Largest magnitude among the real and imaginary parts of each sample's values."""
    values = np.asarray(values, dtype=complex)
    return _worst(np.stack([values.real, values.imag], axis=-1))


def _frame(t):
    """The four vectors of a tetrad stack as one (..., 4, 4) array."""
    return np.stack(t.vectors(), axis=-2)


def _spinor(rng, samples, cutoff):
    contract = spinor.contract
    res = collections.defaultdict(list)  # record -> one residual per sample
    for _ in range(samples):
        g = spinor.random_group_element(rng)
        res["unitarity_norm"].append(abs(g.a) ** 2 + abs(g.b) ** 2 - 1.0)
        g2 = spinor.from_quaternion(spinor.to_quaternion(g), g.phi)
        res["chart_roundtrip"].append([g2.a - g.a, g2.b - g.b, g2.phi - g.phi])
        d = spinor.dyad_from_element(g)
        res["dyad_self_contraction"].append([contract(d.u, d.u), contract(d.v, d.v)])
        res["dyad_cross_contraction"].append([contract(d.v, d.u) - 1.0, contract(d.u, d.v) + 1.0])
        p, p2, q = (spinor.Spinor(*rng.standard_normal(2) + 1j * rng.standard_normal(2))
                    for _ in range(3))
        res["contraction_antisymmetry"].append(contract(p, q) + contract(q, p))
        al, be = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lhs = contract(spinor.Spinor(al * p.c1 + be * p2.c1, al * p.c2 + be * p2.c2), q)
        res["contraction_bilinearity"].append(lhs - al * contract(p, q) - be * contract(p2, q))
        once = spinor.lower_index(p)
        twice = spinor.lower_index(spinor.Spinor(once.c1, once.c2))
        res["lowering_twice_negates"].append(twice.components() + p.components())
        back = spinor.raise_index(once)
        res["raise_lower_roundtrip"].append(back.components() - p.components())
    eps, eye = spinor.EPSILON, np.eye(2)
    res["epsilon_metric_identities"] = [[eps + eps.T, eps @ eps.T - eye, eps @ eps + eye]]
    return {name: _worst(values) for name, values in res.items()}


_IDENTITY_FRAME = ((1, 0, 0, 0), (0, 0, 0, -1), (0, 1, 0, 0), (0, 0, -1, 0))
# draws per block of the tetrad suite, so its (N, 4, 4, 4) temporaries stay
# near 2 MB whatever the sample count
_TETRAD_BLOCK = 4096


def _tetrad(rng, samples, cutoff):
    """The tetrad records over blocks of draws, in their draw order."""
    blocks = [_tetrad_block(rng, min(_TETRAD_BLOCK, samples - start), not start)
              for start in range(0, samples, _TETRAD_BLOCK)]
    return {name: np.concatenate([b[name] for b in blocks if name in b]) for name in blocks[0]}


def _tetrad_block(rng, samples, first):
    """Each record evaluated once over a stack of `samples` draws; the two
    that draw nothing come with the first block only."""
    eta, fm, general = tetrad.ETA, tetrad.NULL_FRAME_METRIC, tetrad.reconstruct_metric_general
    points, spinors, phases = [], [], []
    for _ in range(samples):
        q = spinor.random_s3_point(rng)
        d = spinor.dyad_from_element(spinor.from_quaternion(q))
        d_neg = spinor.dyad_from_element(spinor.from_quaternion(-q))
        points.append(q.as_array())
        spinors.append([s.components() for s in (d.u, d.v, d_neg.u, d_neg.v)])
        phases.append(cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    q = np.array(points)
    u, v, u_neg, v_neg = np.moveaxis(np.array(spinors), 1, 0)
    nt = tetrad._null_tetrad(u, v)
    vecs = _frame(nt)
    table = tetrad.minkowski_inner(vecs[:, :, None], vecs[:, None, :])
    g = tetrad.reconstruct_metric(nt)
    rt = tetrad._real_tetrad(nt)
    rt_neg = tetrad._real_tetrad(tetrad._null_tetrad(u_neg, v_neg))
    polynomials = tetrad.real_tetrad_polynomials(q)
    rot = rt.dreibein()
    ph = np.array(phases)[:, None]
    phased = _frame(tetrad._null_tetrad(ph * u, ph * v))
    tangent = np.stack(tetrad.tangent_frame_at(q), axis=-2)
    ident = tetrad.real_tetrad(spinor.dyad_from_element(spinor.GroupElement(1.0, 0.0))) if first else None
    return {
        "null_vector_nullity": _worst(np.diagonal(table, axis1=1, axis2=2)),
        "frame_inner_product_table": _worst(table - fm),
        "metric_reconstruction": _worst(g.real - eta),
        "metric_reconstruction_imaginary": _worst(g.imag),
        "general_vs_direct_reconstruction": _worst(general(nt.vectors(), fm) - g),
        "real_frame_reconstruction": _worst_part(general(rt.vectors(), eta) - eta),
        # m^0 = n^0 and m^i = -n^i
        "m_n_component_symmetry": _worst(nt.m + tetrad._lower(nt.n)),
        **({"frame_metric_self_inverse": _worst([fm @ fm - np.eye(4)])} if first else {}),
        "bilinear_phase_invariance": _worst(phased - vecs),
        "real_tetrad_vs_polynomials": _worst(_frame(rt) - _frame(polynomials)),
        "rotation_orthonormality": _worst(rot.mT @ rot - np.eye(3)),
        "rotation_determinant": _worst(np.linalg.det(rot) - 1.0),
        "rotation_double_cover": _worst(_frame(rt) - _frame(rt_neg)),
        "tangent_radial_orthogonality": _worst(tangent @ q[..., None]),
        "tangent_orthonormality": _worst(tangent @ tangent.mT - np.eye(3)),
        **({"real_tetrad_identity_point": _worst([np.subtract(ident.vectors(), _IDENTITY_FRAME)])}
           if first else {}),
    }


def _poisson_tail(intensity, cutoff):
    term = acc = 1.0
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


def _fock(rng, samples, cutoff):
    space = fock.FockSpace(cutoff)
    eye = space.identity()
    ann = {r: space.annihilator(r) for r in _MODES}
    cre = {r: space.creator(r) for r in _MODES}
    safe = space.safe_indices()
    taus = {(r, s): space.tau(r, s) for r in _MODES for s in _MODES}
    # the components operator_tetrad serves, in TETRAD_BILINEARS order
    comps = {name: op for name, op in fock.operator_tetrad(space).components() if name in fock.TETRAD_BILINEARS}
    devs = collections.defaultdict(list)  # record -> one deviation per operator or draw
    for (r, s), tau in taus.items():
        comm = ann[r] @ cre[s] - cre[s] @ ann[r]
        if r == s:
            comm = comm - eye
        devs["canonical_commutators_safe_subspace"].append(comm.max_abs(columns=safe))
        devs["lowering_commutators_vanish"].append((ann[r] @ ann[s] - ann[s] @ ann[r]).max_abs())
        devs["raising_commutators_vanish"].append((cre[r] @ cre[s] - cre[s] @ cre[r]).max_abs())
        devs["bilinear_adjoint_symmetry"].append((tau.dagger() - taus[s, r]).max_abs())
        anticomm = 0.5 * (cre[r] @ ann[s] + ann[s] @ cre[r])
        devs["bilinear_vs_anticommutator"].append((tau - anticomm).max_abs(columns=safe))
    for name, op in comps.items():
        devs["tetrad_components_hermitian"].append(op.hermiticity_defect())
        if name == "t0":
            shifted = space.total_quanta() + 2.0 * eye
            devs["time_component_zero_point"].append((op - shifted).max_abs())
        else:
            terms = [(cre[r] @ ann[s]) * coeff for coeff, r, s in fock.TETRAD_BILINEARS[name]]
            normal_ordered = sum(terms[1:], terms[0])
            devs["spatial_zero_point_cancellation"].append((op - normal_ordered).max_abs())

    scale = _coherent_scale_for_cutoff(cutoff)
    spinors, values, gathered, values_ph = [], [], [], []
    for _ in range(samples):
        g = spinor.random_group_element(rng)
        d = spinor.dyad_from_element(g)
        spinors.append([d.u.components(), d.v.components()])
        amps = fock.BispinorAmplitudes.from_element(g)
        state = fock.coherent_state(space, amps, scale)
        # the kept values, closed form, and a copy's, gathered over the basis
        values.append(fock.tetrad_expectations(space, state))
        gathered.append(fock.tetrad_expectations(space, np.array(state)))
        ph = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        phased = fock.BispinorAmplitudes(*(ph * amps.as_array()))
        values_ph.append(fock.tetrad_expectations(space, fock.coherent_state(space, phased, scale)))
    u, v = np.moveaxis(np.array(spinors), 1, 0)
    frame = _frame(tetrad._real_tetrad(tetrad._null_tetrad(u, v)))
    values, values_ph = np.array(values), np.array(values_ph)
    s2 = scale * scale
    # TETRAD_BILINEARS lists t0, then the frame's (z, x, y) rows times columns 1..3
    devs["classical_limit_spatial"] = _worst_part(values[:, 1:] - s2 * frame[:, 1:, 1:].reshape(samples, 9))
    devs["classical_limit_time"] = _worst_part(values[:, 0] - (2.0 + 2.0 * s2))
    devs["coherent_phase_covariance"] = _worst(values - values_ph)
    devs["coherent_entry_matches_gather"] = _worst(values - np.array(gathered))
    return devs


_SUITES = {"spinor": _spinor, "tetrad": _tetrad, "fock": _fock}


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
    unknown suite, samples below 1, a seed or cutoff below 0, any of the
    three not an integer, or a tolerance that is negative or not finite.
    """
    if suite not in (*_SUITES, "all"):
        raise ValueError(f"suite must be one of {(*_SUITES, 'all')}")
    for name, count, least in (("samples", samples, 1), ("seed", seed, 0), ("cutoff", cutoff, 0)):
        if not (least <= count < math.inf and count % 1 == 0):
            raise ValueError(f"{name} must be an integer of at least {least}, got {count!r}")
    samples, seed, cutoff = int(samples), int(seed), int(cutoff)
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    rng = np.random.default_rng(seed)
    records = [
        _record(record, devs, _TOLERANCES.get(record, tol))
        for name, run in _SUITES.items() if suite in (name, "all")
        for record, devs in run(rng, samples, cutoff).items()
    ]
    return {
        "command": "verify",
        "suite": suite,
        "samples": samples,
        "seed": seed,
        "tolerance": float(tol),
        "classical_tolerance": _CLASSICAL,
        "cutoff": cutoff,
        "records": records,
        "pass": all(r["pass"] for r in records),
    }
