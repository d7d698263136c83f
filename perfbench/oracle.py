"""Independent correctness oracle for the benchmark.

Nothing here imports urtetrad or numpy: every expected value is derived
from the closed forms of the paper's chain, written out in plain Python, so
a defect in the package cannot hide in a shared helper.  Each check returns
``None`` when the output is right and a one-line reason when it is not.

Tolerances are the package's stated ones and are never loosened: 1e-12 for
algebraic identities, 0 for identities exact in floating point, 1e-6 for
the classical limit of truncated coherent states, 1e-8 for the truncation
deficit an admissible input may have.
"""

from __future__ import annotations

import math

ALGEBRAIC_TOL = 1e-12
EXACT_TOL = 0.0
CLASSICAL_TOL = 1e-6
DEFICIT_BOUND = 1e-8

N_MODES = 4
# components of the operator tetrad that are combinations of bilinears;
# the other six are zero operators
COMPONENTS = ("t0", "z1", "z2", "z3", "x1", "x2", "x3", "y1", "y2", "y3")
# all 16 labels of the operator tetrad, in (t, z, x, y) x (0..3) order
TETRAD_LABELS = tuple(f"{v}{mu}" for v in "tzxy" for mu in range(4))

# ---------------------------------------------------------------- inputs


def unit_quaternion(rng):
    """Uniform point (w, x, y, z) of S^3 from four normals."""
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(4)]
        norm = math.sqrt(sum(c * c for c in v))
        if norm > 1e-3:
            return tuple(c / norm for c in v)


def pair_from_quaternion(q):
    """The chart a = w + i z, b = y + i x."""
    w, x, y, z = q
    return complex(w, z), complex(y, x)


def truncation_deficit(intensity, cutoff):
    """Weight a coherent state of total intensity loses above the cutoff.

    The total quanta of a 4-mode coherent state are Poisson distributed
    with mean equal to the summed intensity, so the deficit is the Poisson
    tail above the cutoff.
    """
    term = acc = 1.0
    for n in range(1, cutoff + 1):
        term *= intensity / n
        acc += term
    return max(0.0, 1.0 - math.exp(-intensity) * acc)


def admit_coherent(scale, cutoff):
    """Raise if (scale, cutoff) is outside the package's admission gate.

    A unit group element has bispinor intensity 2 (|a|^2 + |b|^2 counted
    twice), so the state intensity is 2 scale^2.  An input the package must
    refuse would be a benchmark bug, so it stops the run instead of being
    counted as a program failure.
    """
    deficit = truncation_deficit(2.0 * scale * scale, cutoff)
    if deficit > DEFICIT_BOUND:
        raise ValueError(
            f"benchmark bug: scale {scale} at cutoff {cutoff} has deficit {deficit:.3e}"
        )


# ------------------------------------------------------------ closed forms


def real_tetrad(a, b):
    """Real tetrad (t, z, x, y) of the SU(2) point (a, b), closed form.

    From u = (a, -b*), v = (b, a*): t = (1, 0, 0, 0); z carries
    (2 Re ab, -2 Im ab, |b|^2 - |a|^2); x and y are the real and negated
    imaginary parts of v^dagger sigma u, whose spatial entries are
    a^2 - b*^2, i (a^2 + b*^2) and 2 a b*.
    """
    ab = a * b
    a2 = a * a
    bc2 = b.conjugate() * b.conjugate()
    abc = a * b.conjugate()
    lx = a2 - bc2
    ly = 1j * (a2 + bc2)
    lz = 2.0 * abc
    return {
        "t": (1.0, 0.0, 0.0, 0.0),
        "z": (0.0, 2.0 * ab.real, -2.0 * ab.imag, abs(b) ** 2 - abs(a) ** 2),
        "x": (0.0, lx.real, ly.real, lz.real),
        "y": (0.0, -lx.imag, -ly.imag, -lz.imag),
    }


def coherent_predictions(a, b, scale):
    """Untruncated coherent-state expectations of all 16 components.

    t0 is the zero-point-shifted number operator: total intensity 2 scale^2
    plus 2.  Spatial components are scale^2 times the classical real
    tetrad; the remaining six components are zero operators.
    """
    frame = real_tetrad(a, b)
    out = {}
    for label in TETRAD_LABELS:
        vec, mu = label[0], int(label[1])
        if label == "t0":
            out[label] = 2.0 + 2.0 * scale * scale
        elif vec == "t" or mu == 0:
            out[label] = 0.0
        else:
            out[label] = scale * scale * frame[vec][mu]
    return out


def fock_basis(cutoff):
    """Occupations (n1..n4), total-quanta-major then lexicographic."""
    return [
        (n1, n2, n3, total - n1 - n2 - n3)
        for total in range(cutoff + 1)
        for n1 in range(total + 1)
        for n2 in range(total - n1 + 1)
        for n3 in range(total - n1 - n2 + 1)
    ]


def fock_totals(cutoff):
    """Total quanta of each basis state, in basis order."""
    return [sum(state) for state in fock_basis(cutoff)]


def fock_dimension(cutoff):
    return math.comb(cutoff + N_MODES, N_MODES)


# ------------------------------------------------------------------ checks


def check_chart(q, phi, got_q, got_phi):
    """The quaternion chart round trip of a unit point is bit-exact, and a
    phase already in [0, 2 pi) is kept as given."""
    if tuple(got_q) != tuple(q):
        return f"chart round trip of {q!r} gave {tuple(got_q)!r}"
    if got_phi != phi:
        return f"phase {phi!r} came back as {got_phi!r}"
    return None


def check_dyad(a, b, u, v, contractions):
    """Dyad columns u = (a, -b*), v = (b, a*) exactly, and the contractions
    (u.u, v.v, v.u, u.v) equal (0, 0, 1, -1) to 1e-12."""
    if tuple(u) != (a, -b.conjugate()) or tuple(v) != (b, a.conjugate()):
        return f"dyad of ({a!r}, {b!r}) is u={tuple(u)!r}, v={tuple(v)!r}"
    for name, got, want in zip(("u.u", "v.v", "v.u", "u.v"), contractions, (0, 0, 1, -1)):
        dev = abs(got - want)
        if not dev <= ALGEBRAIC_TOL:
            return f"contraction {name} off by {dev:.3e}"
    return None


def check_expectations(a, b, scale, labels, values):
    """Coherent expectations within 1e-6 of the classical limit, with no
    imaginary part beyond 1e-6."""
    if tuple(labels) != TETRAD_LABELS:
        return f"operator tetrad components {tuple(labels)!r} out of (t, z, x, y) order"
    want = coherent_predictions(a, b, scale)
    for label, value in zip(labels, values):
        dev = max(abs(value.real - want[label]), abs(value.imag))
        if not dev <= CLASSICAL_TOL:
            return f"<{label}> off the classical limit by {dev:.3e} at a={a!r}, b={b!r}"
    return None
