"""Command-line surface: seeded, file-based estimation workflows.

Every command is a pure function of its flags, input files, and seed; repeated
invocations produce byte-identical outputs. Exit codes: 0 on success, 2 for
usage errors (bad flags, unreadable or malformed files, mismatched inputs), 3
for numeric-precondition failures (truncation, rank deficiency, a kernel the
proposal disk cuts off or that is not finite, a --k-max the homodyne k rule
cannot resolve, out of memory). With --json-errors the failure is also written
to stderr as a one-line JSON object. File formats are frozen in
docs/formats.md; QTOMO_THREADS, an integer >= 1, caps the samplers' pool, and
every command refuses another value with exit 2 before it reads any input.

Each route (a command's --kind, --method or --family, or quorum's action)
reads its own flags, and _ROUTE_FLAGS names them. A flag its route does not
read, a flag it needs left out, and a value that does not parse each exit 2
with one error line; a flag set to its default counts as unset. What
changes only roundoff is not a flag: the nonunitary phase grid, and how
quorum dual builds a dual.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Tuple

import numpy as np

from . import __version__
from ._parallel import max_workers
from .errors import NumericPreconditionError, UsageError
from .frames import check_biorthogonality, irreducibility_rank
from .dualbasis import gram_schmidt_dual, pseudoinverse_dual
from .operators import Operator, fock_matrix_unit, identity, number, quadrature
from .states import DensityMatrix, StateSpec, make_state
from .estimators import EstimatorConfig, SqueezeParams
from .estimators.homodyne import homodyne_kernel_matrix
from .estimators.kerr import kerr_kernel, kerr_kernel_regularized
from .estimators.nonunitary import nonunitary_reconstruct, phase_shift_ladder
from .estimators.parity import displaced_parity_kernel
from .estimators.spin import spin_kernel
from .sampler import RngStream
from .recon import (
    METHODS,
    EstimationResult,
    ReconstructedMatrix,
    assemble_matrix,
    estimate_observable,
    fixed_n_max,
    method_params,
    reconstruct_matrix,
)
from .serialize import (
    load_quorum,
    load_state,
    records_from_csv,
    records_to_csv,
    save_estimation,
    save_quorum,
    save_reconstruction,
    save_state,
)

__all__ = ["main", "build_parser"]


# flag parsing helpers -------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_c(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise UsageError(f"cannot parse {text!r} as a complex number") from None


def _finite_float(flag: str):
    """argparse type: a finite float, else a usage error that names the flag."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise UsageError(f"{flag} must be a finite number, got {text!r}")
        return value
    return parse


def _positive_float(flag: str):
    """argparse type: a finite float > 0, else a usage error that names the flag."""
    def parse(text: str) -> float:
        value = _finite_float(flag)(text)
        if not value > 0:
            raise UsageError(f"{flag} must be > 0, got {text!r}")
        return value
    return parse


def _count(flag: str):
    """argparse type: an integer >= 1, else a usage error that names the flag."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = 0
        if value < 1:
            raise UsageError(f"{flag} must be an integer >= 1, got {text!r}")
        return value
    return parse


def _parse_direction(text: str) -> Tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"direction must be three comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError:
        raise UsageError(f"cannot parse direction {text!r}") from None


def _twice_s(text: str) -> int:
    """argparse type of --s: the spin magnitude s, returned as the integer 2s."""
    try:
        s = float(text)
    except ValueError:
        s = math.nan
    t = round(2 * s) if math.isfinite(s) else 0
    if abs(2 * s - t) > 1e-9 or t < 1:
        raise UsageError(f"spin s must be a positive half-integer, got {text}")
    return int(t)


def _parse_squeeze(text: str) -> SqueezeParams:
    return SqueezeParams(_parse_complex(text))


def _parse_observable(text: str, dim: int) -> Tuple[str, Operator]:
    """Named built-ins: identity, number, quadrature:PHI, matrix_unit:K,N.

    matrix_unit:K,N estimates the element <K|rho|N>, i.e. the observable
    is |N><K|.
    """
    if text == "identity":
        return text, identity(dim)
    if text == "number":
        return text, number(dim)
    if text.startswith("quadrature:"):
        try:
            phi = float(text.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"cannot parse quadrature phase in {text!r}") from None
        if not math.isfinite(phi):
            raise UsageError(f"quadrature phase must be finite in {text!r}")
        return text, quadrature(phi, dim)
    if text.startswith("matrix_unit:"):
        try:
            k_s, n_s = text.split(":", 1)[1].split(",")
            k, n = int(k_s), int(n_s)
        except ValueError:
            raise UsageError(f"matrix_unit needs two integer indices, got {text!r}") from None
        if not (0 <= k < dim and 0 <= n < dim):
            raise UsageError(f"matrix_unit indices must lie in [0,{dim}), got {k},{n}")
        return text, fock_matrix_unit(n, k, dim)
    raise UsageError(
        f"unknown observable {text!r}; use identity, number, quadrature:PHI "
        "or matrix_unit:K,N"
    )


def _make_cfg(args, dim: int) -> EstimatorConfig:
    """The config of the estimator flags this command has and the user set."""
    fields = ("k_max", "reg_eps", "proposal_radius")
    return EstimatorConfig(dim=dim, **{f: getattr(args, f) for f in fields
                                       if getattr(args, f, None) is not None})


# subcommands ----------------------------------------------------------------

# The StateSpec field that --param sets for each kind that takes it, and its parser.
_STATE_PARAMS = {
    "fock": ("n", int),
    "coherent": ("beta", _parse_complex),
    "squeezed_vacuum": ("zeta", _parse_complex),
    "thermal": ("mean_n", float),
}

# The flags each route reads ("!" = needs), beyond those that every route of its
# command reads: --out, except on quorum; sample's --shots, --seed, --substream
# and --state; and reconstruct's --observable. A route refuses every other flag
# listed for its command, unless it is left at its default; _check_route goes in
# table order. The keys are the choices of each command's route argument.
_ROUTE_FLAGS = {
    "state": {**dict.fromkeys(_STATE_PARAMS, "!dim param"),
              "random_mixed": "!dim seed",
              "spin_pure": "!s !direction"},
    "sample": {"homodyne": "dim squeeze", "parity": "dim proposal_radius", "kerr": "dim",
               "spin": "!s", "pauli": ""},
    "reconstruct": {"homodyne": "!records !n_max k_max reg_eps squeeze",
                    "parity": "!records !n_max proposal_radius",
                    "kerr": "!records !n_max",
                    "spin": "!records !s",
                    "pauli": "!records",
                    "nonunitary": "!state n_max"},
    "kernels": {"homodyne": "!observable !dim phi k_max reg_eps grid_max points",
                "parity": "n d grid_max points",
                "kerr": "n d psi eps points",
                "spin": "!s !observable direction",
                "nonunitary": "!observable !dim n points"},
    "quorum": {"verify": "", "dual": "out"},
}


def _check_route(args, route: str) -> None:
    """Refuse a flag the route does not read that is set, or a flag it needs that is not."""
    routes = _ROUTE_FLAGS[args.command]
    needs = {f.lstrip("!"): f.startswith("!") for f in routes[route].split()}
    for flag in dict.fromkeys(f.lstrip("!") for spec in routes.values() for f in spec.split()):
        is_set = getattr(args, flag) != args.parser.get_default(flag)
        name = "--" + flag.replace("_", "-")
        if is_set and flag not in needs:
            raise UsageError(f"{name} does not apply to {route}")
        if not is_set and needs.get(flag):
            raise UsageError(f"{name} is required for {route}")


def cmd_state(args) -> None:
    kind = args.kind
    _check_route(args, kind)
    if kind == "spin_pure":
        spec = StateSpec(kind=kind, dim=args.s + 1, twice_s=args.s, direction=args.direction)
    else:
        fields = {"seed": args.seed} if args.seed is not None else {}
        if args.param is not None:
            field, parse = _STATE_PARAMS[kind]
            try:
                fields[field] = parse(args.param)
            except ValueError:
                raise UsageError(f"cannot parse --param {args.param!r} as {kind} {field}") from None
        spec = StateSpec(kind=kind, dim=args.dim, **fields)

    rho = make_state(spec)
    save_state(args.out, rho)
    print(f"wrote {args.out}")
    print(f"dim = {rho.dim}")
    print(f"trace = {_fmt(np.trace(rho.mat).real)}")
    print(f"purity = {_fmt(np.trace(rho.mat @ rho.mat).real)}")
    print(f"rho_00 = {_fmt(rho.mat[0, 0].real)}")


def _sample_input_state(args, method: str) -> DensityMatrix:
    """Without --state: maximally mixed where the family fixes the dimension, vacuum otherwise."""
    if args.state:
        return load_state(args.state)
    n_max = args.s if args.s is not None else fixed_n_max(method)
    if n_max is not None:
        return DensityMatrix(np.eye(n_max + 1, dtype=complex) / (n_max + 1))
    return make_state(StateSpec(kind="fock", dim=args.dim, n=0))


def cmd_sample(args) -> None:
    method = args.method
    _check_route(args, method)
    if args.state and args.dim != args.parser.get_default("dim"):
        raise UsageError("--dim does not apply with --state")
    rho = _sample_input_state(args, method)
    if args.s is not None and args.s + 1 != rho.dim:
        raise UsageError(f"--s gives 2s+1 = {args.s + 1}, but the state has dim {rho.dim}")
    params = method_params(method, rho.dim - 1, cfg=_make_cfg(args, rho.dim),
                           squeeze=args.squeeze)
    rng = RngStream(seed=args.seed, substream=args.substream)
    records = METHODS[method].sample(rho, shots=args.shots, rng=rng, **params)

    records_to_csv(args.out, records)
    print(f"method = {method}")
    print(f"shots = {args.shots}")
    print(f"wrote {args.out} ({len(records)} records)")


def _write_matrix(args, rec: ReconstructedMatrix) -> None:
    """Save a reconstruction and print its trace and comparison lines."""
    save_reconstruction(args.out, rec)
    print(f"method = {rec.method}, dim = {rec.dim}, "
          f"records = {rec.diagnostics['n_records']}")
    if "trace" in rec.diagnostics:
        print(f"trace = {_fmt(rec.diagnostics['trace'])} "
              f"(se {_fmt(rec.diagnostics['trace_std_error'])})")
    if "diagonal" in rec.diagnostics:
        print(f"diagonal: {rec.diagnostics['diagonal']}")
    comparison = rec.diagnostics.get("comparison")
    if comparison:
        print(f"fidelity = {_fmt(comparison['fidelity'])}")
        print(f"trace_distance = {_fmt(comparison['trace_distance'])}")
    if "nearest_physical_distance" in rec.diagnostics:
        print(f"nearest_physical_distance = "
              f"{_fmt(rec.diagnostics['nearest_physical_distance'])}")
    print(f"wrote {args.out}")


def _write_estimate(args, name: str, result: EstimationResult, extra: dict) -> None:
    """Save an observable's estimate and print its lines."""
    save_estimation(args.out, name, result, extra=extra)
    print(f"observable = {name}")
    print(f"mean = {_fmt_c(result.mean)}")
    print(f"std_error = {_fmt(result.std_error)}")
    print(f"n_samples = {result.n_samples}")
    print(f"wrote {args.out}")


def _reconstruct_nonunitary(args, reference: Optional[DensityMatrix]) -> None:
    if args.observable and args.n_max is not None:
        raise UsageError("--n-max does not apply to nonunitary with --observable")
    rho = load_state(args.state)

    if args.observable:
        name, a = _parse_observable(args.observable, rho.dim)
        _write_estimate(args, name, EstimationResult(nonunitary_reconstruct(a, rho), 0.0, 0),
                        {"method": "nonunitary", "exact": True})
        return

    if args.n_max is None:
        raise UsageError("--n-max is required for a full matrix")
    if args.n_max < 0:
        raise UsageError(f"n_max must be >= 0, got {args.n_max}")
    dim = args.n_max + 1
    results = {
        (k, n): EstimationResult(
            mean=nonunitary_reconstruct(fock_matrix_unit(n, k, rho.dim), rho),
            std_error=0.0, n_samples=0)
        for k in range(dim) for n in range(dim)
    }
    _write_matrix(args, assemble_matrix(
        "nonunitary", dim, results, {"method": "nonunitary", "n_records": 0, "exact": True},
        reference, args.nearest_physical))


def cmd_reconstruct(args) -> None:
    method = args.method
    _check_route(args, method)
    if args.observable and (args.reference or args.nearest_physical):
        flag = "--reference" if args.reference else "--nearest-physical"
        raise UsageError(f"{flag} does not apply with --observable")
    reference = load_state(args.reference) if args.reference else None
    if method == "nonunitary":
        _reconstruct_nonunitary(args, reference)
        return

    records = records_from_csv(args.records)
    # The route reads --n-max, or --s (spin's n_max is 2s), or neither (Pauli fixes 1).
    n_max = next(n for n in (args.n_max, args.s, fixed_n_max(method)) if n is not None)
    cfg = _make_cfg(args, n_max + 1)

    if args.observable:
        name, a = _parse_observable(args.observable, n_max + 1)
        result = estimate_observable(records, method, a, cfg=cfg, squeeze=args.squeeze)
        _write_estimate(args, name, result, {"method": method})
        return

    _write_matrix(args, reconstruct_matrix(
        records, method, n_max, cfg=cfg, squeeze=args.squeeze,
        reference=reference, nearest_physical=args.nearest_physical,
    ))


def cmd_quorum(args) -> None:
    _check_route(args, args.action)
    frame = load_quorum(args.quorum)
    rank = irreducibility_rank(frame)
    d2 = frame.dim ** 2
    print(f"elements = {len(frame)}, dim = {frame.dim}")
    print(f"rank = {rank.rank} / {d2}: "
          f"{'irreducible' if rank.irreducible else 'reducible'}")

    if args.action == "verify" and not rank.irreducible:
        print("verdict = reducible")
        return
    dual = gram_schmidt_dual(frame)[0] if len(frame) == d2 else pseudoinverse_dual(frame)
    report = check_biorthogonality(frame, dual)
    print(f"bi-orthogonality max violation = {report.max_violation:.3e}")
    if args.action == "verify":
        print(f"verdict = {'pass' if report.passed else 'fail'}")
        return
    save_quorum(args.out, dual)
    print(f"wrote {args.out}")


def _write_kernel_csv(path, column: str, grid, values) -> None:
    """The kernel table; refused before the file is opened if a value is not finite."""
    values = np.asarray(values, dtype=complex)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NumericPreconditionError(
            f"kernel value at {column} = {float(grid[bad[0]]):.17g} is not finite")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{column},re,im\n")
        for x, v in zip(grid, values):
            fh.write("%.17g,%.17g,%.17g\n" % (float(x), v.real, v.imag))


@np.errstate(all="ignore")  # _write_kernel_csv refuses what overflows
def cmd_kernels(args) -> None:
    family = args.family
    _check_route(args, family)
    points = args.points

    if family == "homodyne":
        cfg = _make_cfg(args, args.dim)
        _, a = _parse_observable(args.observable, args.dim)
        q_max = args.grid_max if args.grid_max is not None else float(np.sqrt(args.dim) + 4.0)
        qs = np.linspace(-q_max, q_max, points)
        vals = [np.trace(a.mat @ homodyne_kernel_matrix(q, args.phi, cfg).mat) for q in qs]
        _write_kernel_csv(args.out, "q", qs, vals)
    elif family == "parity":
        d = args.d if args.d is not None else 0
        a_max = args.grid_max if args.grid_max is not None else 2.0
        alphas = np.linspace(0.0, a_max, points)
        vals = displaced_parity_kernel(args.n, d, alphas)
        _write_kernel_csv(args.out, "alpha", alphas, vals)
    elif family == "kerr":
        d = args.d if args.d is not None else 1
        phis = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
        if d != 0 and args.eps is not None:
            raise UsageError("--eps does not apply to an off-diagonal kernel (--d not 0)")
        if d == 0:
            if not args.eps:
                raise UsageError("the diagonal kernel needs --eps > 0")
            vals = kerr_kernel_regularized(args.n, args.eps, phis, args.psi)
        else:
            vals = kerr_kernel(args.n, d, phis, args.psi)
        _write_kernel_csv(args.out, "phi", phis, vals)
    elif family == "spin":
        twice_s = args.s
        _, a = _parse_observable(args.observable, twice_s + 1)
        ms = [j - twice_s / 2.0 for j in range(twice_s + 1)]
        vals = [spin_kernel(a, m, args.direction, twice_s) for m in ms]
        _write_kernel_csv(args.out, "m", ms, vals)
    else:  # nonunitary
        _, a = _parse_observable(args.observable, args.dim)
        phis = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
        vals = [np.trace(a.mat @ phase_shift_ladder(args.n, phi, args.dim).mat.conj().T)
                for phi in phis]
        _write_kernel_csv(args.out, "phi", phis, vals)

    print(f"family = {family}")
    print(f"wrote {args.out}")


# parser ---------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises a parse error as UsageError, so that main reports it like any other."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json-errors", action="store_true",
                        help="write failures to stderr as one-line JSON")

    # the commands that build a homodyne kernel
    kernelp = argparse.ArgumentParser(add_help=False)
    kernelp.add_argument("--k-max", type=float, help="frequency cutoff of the quadrature kernel")
    kernelp.add_argument("--reg-eps", type=float, help="kernel regularization strength")

    # the commands that draw or weight parity displacements
    diskp = argparse.ArgumentParser(add_help=False)
    diskp.add_argument("--proposal-radius", type=float, help="displacement proposal disk radius")

    parser = _Parser(
        prog="qtomo",
        description="Measurement-driven state and observable estimation.",
        epilog="QTOMO_THREADS caps internal parallelism. Formats: docs/formats.md.",
    )
    parser.add_argument("--version", action="version", version=f"qtomo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", parents=[common],
                             help="build a state file from a named recipe")
    p_state.add_argument("--kind", required=True, choices=list(_ROUTE_FLAGS["state"]))
    p_state.add_argument("--dim", type=int)
    p_state.add_argument("--param", help="kind-specific parameter (level, amplitude, ...)")
    p_state.add_argument("--seed", type=int, help="seed for random_mixed (default 0)")
    p_state.add_argument("--s", type=_twice_s, help="spin magnitude for spin_pure")
    p_state.add_argument("--direction", type=_parse_direction, help="x,y,z axis for spin_pure")
    p_state.add_argument("--out", default="state.json")
    p_state.set_defaults(func=cmd_state, parser=p_state)

    p_sample = sub.add_parser("sample", parents=[common, diskp],
                              help="draw synthetic measurement records")
    p_sample.add_argument("--method", required=True, choices=list(_ROUTE_FLAGS["sample"]))
    p_sample.add_argument("--state", help="state file; default is maximally mixed (spin, "
                          "pauli) or the vacuum of dimension --dim")
    p_sample.add_argument("--dim", type=int, default=8, help="dimension without --state")
    p_sample.add_argument("--s", type=_twice_s, help="spin magnitude (method spin)")
    p_sample.add_argument("--shots", type=int, required=True)
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--substream", type=int, default=0)
    p_sample.add_argument("--squeeze", type=_parse_squeeze, help="squeeze parameter (homodyne)")
    p_sample.add_argument("--out", default="records.csv")
    p_sample.set_defaults(func=cmd_sample, parser=p_sample)

    p_rec = sub.add_parser("reconstruct", parents=[common, kernelp, diskp],
                           help="estimate a matrix or a single observable from records")
    p_rec.add_argument("--method", required=True, choices=list(_ROUTE_FLAGS["reconstruct"]))
    p_rec.add_argument("--records", help="record CSV (sampled methods)")
    p_rec.add_argument("--state", help="state file (method nonunitary)")
    p_rec.add_argument("--n-max", type=int, help="largest level index to estimate")
    p_rec.add_argument("--s", type=_twice_s, help="spin magnitude (method spin)")
    p_rec.add_argument("--observable",
                       help="identity | number | quadrature:PHI | matrix_unit:K,N")
    p_rec.add_argument("--squeeze", type=_parse_squeeze, help="squeeze parameter (homodyne)")
    p_rec.add_argument("--reference", help="state file to compare against")
    p_rec.add_argument("--nearest-physical", action="store_true",
                       help="report the distance to the nearest physical state")
    p_rec.add_argument("--out", default="result.json")
    p_rec.set_defaults(func=cmd_reconstruct, parser=p_rec)

    p_q = sub.add_parser("quorum", parents=[common],
                         help="verify a spanning set or write its dual")
    p_q.add_argument("action", choices=list(_ROUTE_FLAGS["quorum"]))
    p_q.add_argument("--quorum", required=True, help="quorum JSON file")
    p_q.add_argument("--out", default="dual.json")
    p_q.set_defaults(func=cmd_quorum, parser=p_q)

    p_k = sub.add_parser("kernels", parents=[common, kernelp],
                         help="tabulate an estimation kernel to CSV")
    p_k.add_argument("action", choices=["eval"])
    p_k.add_argument("--family", required=True, choices=list(_ROUTE_FLAGS["kernels"]))
    p_k.add_argument("--observable")
    p_k.add_argument("--dim", type=int)
    p_k.add_argument("--n", type=int, default=0, help="level index")
    p_k.add_argument("--d", type=int, help="level offset")
    p_k.add_argument("--phi", type=_finite_float("--phi"), default=0.0, help="fixed phase")
    p_k.add_argument("--psi", type=_finite_float("--psi"), default=0.0,
                     help="fixed nonlinear shift")
    p_k.add_argument("--eps", type=_finite_float("--eps"), help="diagonal regularization")
    p_k.add_argument("--s", type=_twice_s, help="spin magnitude")
    p_k.add_argument("--direction", type=_parse_direction, default=(0.0, 0.0, 1.0),
                     help="x,y,z axis (spin)")
    p_k.add_argument("--grid-max", type=_positive_float("--grid-max"),
                     help="grid upper edge (q or alpha)")
    p_k.add_argument("--points", type=_count("--points"), default=101)
    p_k.add_argument("--out", default="kernel.csv")
    p_k.set_defaults(func=cmd_kernels, parser=p_k)

    return parser


# numpy's ValueErrors for a shape whose size in bytes its index type cannot hold
_UNREPRESENTABLE = ("array is too big", "Maximum allowed dimension exceeded")


def _report_failure(args, exc: Exception, code: int) -> int:
    if getattr(args, "json_errors", False):
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    # a parse error raises UsageError before the namespace exists
    argv = sys.argv[1:] if argv is None else argv
    args = argparse.Namespace(json_errors="--json-errors" in argv)
    try:
        args = parser.parse_args(argv)
        max_workers()  # refuses a bad QTOMO_THREADS on every command, not only where a pool runs
        args.func(args)
    except UsageError as exc:
        return _report_failure(args, exc, 2)
    except NumericPreconditionError as exc:
        return _report_failure(args, exc, 3)
    except OSError as exc:
        return _report_failure(args, UsageError(f"cannot open {exc.filename}: {exc.strerror}"), 2)
    except (MemoryError, ValueError) as exc:
        if isinstance(exc, ValueError) and not str(exc).startswith(_UNREPRESENTABLE):
            raise
        return _report_failure(args, NumericPreconditionError(
            f"out of memory: {str(exc) or 'an allocation failed'}"), 3)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
