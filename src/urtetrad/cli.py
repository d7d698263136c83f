"""Command-line front end: tetrad emission, verification sweeps, Fock
operator queries, and the expansion law.  All results go to stdout as
JSON with a fixed key order and floats printed to 17 significant digits,
so identical flags give byte-identical output; diagnostics go to stderr.

Each subcommand imports the modules it uses when it runs, so `cosmos` and
`--help` load no numpy, and `fock` loads no scipy: `--expect-coherent`
reads its value from the state's moments, and only `--matrix` builds an
operator, whose triplets it lists from the operator's own arrays.

Exit codes: 0 success, 1 verification or physics failure, 2 usage error,
141 (128 + SIGPIPE) when the reader closes stdout before all of it is
written; that case writes nothing to stderr.  A refused value's message
names its flag ("error: --cutoff: ...").
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

__all__ = ["main", "build_parser", "dumps17"]

_CONVENTION = (
    "signature diag(-1,1,1,1); sigma^mu = (1, sigma_x, sigma_y, sigma_z) "
    "with the first spinor slot conjugated; null vectors carry 1/sqrt(2)"
)


def dumps17(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, 17-significant-digit floats.

    Floats, ints, dicts, lists and tuples are written here, a key as the
    JSON string of its str().  Everything else goes to json.dumps: bool,
    None and str, and any other type, which it refuses with TypeError.
    Raises ValueError for a NaN or infinite float, which JSON cannot hold.
    """
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"cannot write the non-finite float {float(obj)!r} as JSON")
        return format(float(obj), ".17g")
    if isinstance(obj, int) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(key))}:{dumps17(val)}" for key, val in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(dumps17, obj)) + "]"
    return json.dumps(obj)


def _pair(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _complex_vector(vec) -> list:
    return [_pair(z) for z in vec]


@contextlib.contextmanager
def _flag(name):
    """Name the flag whose value a ValueError raised inside refuses: its
    message gains the prefix "name: "."""
    try:
        yield
    except ValueError as exc:
        exc.args = (f"{name}: {exc}",)
        raise


def _element_from_args(args):
    from . import spinor

    if args.quat is not None:
        if args.a is not None or args.b is not None:
            raise ValueError("give either --quat or the pair --a/--b, not both")
        with _flag("--quat"):
            q = spinor.QuaternionPoint(*args.quat)
        with _flag("--phi"):
            return spinor.from_quaternion(q, args.phi)
    if args.a is None or args.b is None:
        raise ValueError("need --quat W X Y Z or both --a RE IM and --b RE IM")
    # GroupElement checks the phase before the pair
    with _flag("--a/--b" if math.isfinite(args.phi) else "--phi"):
        return spinor.GroupElement(complex(*args.a), complex(*args.b), args.phi)


def _cmd_tetrad(args) -> int:
    from . import spinor, tetrad

    g = _element_from_args(args)
    q = spinor.to_quaternion(g)
    doc = {
        "command": "tetrad",
        "frame": "real" if args.real else "null",
        "input": {
            "a": _pair(g.a),
            "b": _pair(g.b),
            "phi": g.phi,
            "quaternion": q.as_array().tolist(),
        },
        "convention": _CONVENTION,
    }
    d = spinor.dyad_from_element(g)
    if args.real:
        doc.update(zip("tzxy", (vec.tolist() for vec in tetrad.real_tetrad(d).vectors())))
    else:
        doc.update(zip(("l", "l_star", "m", "n"), map(_complex_vector, tetrad.null_tetrad(d).vectors())))
    print(dumps17(doc))
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_verification

    try:
        report = run_verification(
            suite=args.suite,
            samples=args.samples,
            seed=args.seed,
            tol=args.tol,
            cutoff=args.cutoff,
        )
    except ValueError as exc:
        # each refusal opens with the name of the argument, which its flag shares
        name = str(exc).split(" ", 1)[0]
        if name in ("suite", "samples", "seed", "tol", "cutoff"):
            exc.args = (f"--{name}: {exc}",)
        raise
    print(dumps17(report))
    if not report["pass"]:
        failed = [r["name"] for r in report["records"] if not r["pass"]]
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


_TAU_ARITY = 3


def _parse_op(tokens):
    """(name, terms) of an --op value: its name and the (coeff, r, s) terms
    of the tau combination it names."""
    from . import fock

    name = tokens[0]
    if name == "tau":
        if len(tokens) != _TAU_ARITY:
            raise ValueError("operator tau needs two mode indices, e.g. --op tau 1 2")
        try:
            r, s = int(tokens[1]), int(tokens[2])
        except ValueError:
            raise ValueError("tau mode indices must be integers 1..4") from None
        return name, ((1.0, r, s),)
    if len(tokens) == 1 and name in fock.TETRAD_BILINEARS:
        return name, fock.TETRAD_BILINEARS[name]
    known = ", ".join(sorted(fock.TETRAD_BILINEARS)) + ", tau R S"
    raise ValueError(f"unknown operator {' '.join(tokens)!r}; known: {known}")


def _classical_expectation(name, terms, g, scale):
    """Analytic prediction for the coherent-state expectation of the operator.

    Spatial tetrad components compare against scale^2 times the classical
    real-tetrad component; the time component keeps its zero-point shift 2;
    tau components use the coherent moment conj(alpha_r) alpha_s plus the
    diagonal half.
    """
    from . import fock, spinor, tetrad

    if name in ("tau", "t0"):
        return fock.coherent_bilinear_value(fock.BispinorAmplitudes.from_element(g), scale, terms)
    vec = getattr(tetrad.real_tetrad(spinor.dyad_from_element(g)), name[0])
    return complex(scale * scale * vec[int(name[1])])


def _cmd_fock(args) -> int:
    from . import fock, spinor

    with _flag("--op"):
        name, terms = _parse_op(args.op)
        # a bad tau mode is refused here, before the basis is built
        coefficients = fock._coefficient_matrix(terms)
    with _flag("--cutoff"):
        space = fock.FockSpace(args.cutoff)
    doc = {
        "command": "fock",
        "cutoff": space.cutoff,
        "dimension": space.dimension,
        "op": " ".join(args.op),
    }
    if args.matrix:
        op = fock.BilinearOperator(space, coefficients)
        doc["triplets"] = [{"row": r, "col": c, "re": v.real, "im": v.imag} for r, c, v in op.triplets()]
    else:
        a_re, a_im, b_re, b_im, phi, scale = args.expect_coherent
        try:
            with _flag("--expect-coherent"):
                g = spinor.GroupElement(complex(a_re, a_im), complex(b_re, b_im), phi)
                state = fock.coherent_state(space, fock.BispinorAmplitudes.from_element(g), scale)
        except fock.TruncationTooLossyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        # sum_rs C_rs M_rs over the state's moments, bit for bit fock.expectation, no operator built
        value = complex((coefficients * space.moments(state)).sum())
        classical = _classical_expectation(name, terms, g, scale)
        doc["input"] = {"a": _pair(g.a), "b": _pair(g.b), "phi": g.phi, "scale": float(scale)}
        doc["expectation"] = _pair(value)
        doc["classical"] = _pair(classical)
        doc["abs_diff"] = abs(value - classical)
    print(dumps17(doc))
    return 0


def _cmd_cosmos(args) -> int:
    from . import cosmos

    with _flag("--r0/--c"):
        model = cosmos.ExpansionModel(args.r0, args.c)
    with _flag("--epoch"):
        radius = cosmos.radius_at(model, args.epoch)
    doc = {
        "command": "cosmos",
        "r0": model.r0,
        "c": model.c,
        "epoch": float(args.epoch),
        "radius": radius,
        "ur_count_reference": cosmos.UR_COUNT_REFERENCE,
    }
    print(dumps17(doc))
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser that reads every token float() accepts as a value.

    argparse itself takes only plain negatives such as -1 and -.5 for
    values, so -1e-3, -inf and -nan would otherwise read as unknown option
    names.  No option of this CLI looks like a number.  Subparsers inherit
    the class.
    """

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="urtetrad",
        description="Spinor dyads, null/real tetrads, metric reconstruction, "
        "and the second-quantized tetrad on a truncated Fock space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tetrad", help="emit the null or real tetrad of a group element")
    p.add_argument("--a", nargs=2, type=float, metavar=("RE", "IM"), help="complex a")
    p.add_argument("--b", nargs=2, type=float, metavar=("RE", "IM"), help="complex b")
    p.add_argument("--quat", nargs=4, type=float, metavar=("W", "X", "Y", "Z"),
                   help="S^3 point, alternative to --a/--b")
    p.add_argument("--phi", type=float, default=0.0, help="phase, default 0")
    frame = p.add_mutually_exclusive_group(required=True)
    frame.add_argument("--null", action="store_true", help="null tetrad (l, l*, m, n)")
    frame.add_argument("--real", action="store_true", help="real tetrad (t, z, x, y)")
    p.set_defaults(func=_cmd_tetrad)

    p = sub.add_parser("verify", help="run seeded invariant sweeps, report as JSON")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-12,
                   help="tolerance for algebraic identities (default 1e-12)")
    p.add_argument("--suite", choices=("spinor", "tetrad", "fock", "all"), default="all")
    p.add_argument("--cutoff", type=int, default=4, help="Fock cutoff for the fock suite")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("fock", help="emit a Fock operator matrix or a coherent expectation")
    p.add_argument("--cutoff", type=int, required=True)
    p.add_argument("--op", nargs="+", required=True, metavar="NAME",
                   help="t0 | z1..z3 | x1..x3 | y1..y3 | tau R S")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--matrix", action="store_true", help="emit sparse triplets")
    mode.add_argument("--expect-coherent", nargs=6, type=float,
                      metavar=("A_RE", "A_IM", "B_RE", "B_IM", "PHI", "SCALE"),
                      help="coherent-state expectation with classical comparison")
    p.set_defaults(func=_cmd_fock)

    p = sub.add_parser("cosmos", help="evaluate the linear expansion law")
    p.add_argument("--r0", type=float, required=True, help="radius at epoch 0")
    p.add_argument("--c", type=float, required=True, help="limiting velocity")
    p.add_argument("--epoch", type=float, required=True)
    p.set_defaults(func=_cmd_cosmos)

    return parser


_EXIT_BROKEN_PIPE = 128 + 13  # 128 + SIGPIPE, as a shell reports a pipe writer it killed


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    try:
        code = _run(argv)
        # flushed here, so a reader that is gone is met below and not at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the recipe of the Python signal docs: the interpreter flushes
        # stdout again at exit, so point it at devnull to keep that quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
