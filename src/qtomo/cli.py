"""Command-line surface: seeded, file-based estimation workflows.

Every command is a pure function of its flags, input files, and seed;
repeated invocations produce byte-identical outputs. Exit codes: 0 on
success, 2 for usage errors (bad flags, unreadable or malformed files,
mismatched inputs), 3 for numeric-precondition failures (truncation, rank
deficiency, a kernel the proposal disk cuts off). With --json-errors the
failure is also written to stderr as a one-line JSON object. File formats
are frozen in docs/formats.md; QTOMO_THREADS caps internal parallelism.

An estimator flag is offered only by the commands that read it:
--k-max and --reg-eps by reconstruct and kernels, which build the
homodyne kernel, and --proposal-radius by sample and reconstruct, which
draw and weight the parity displacements. What changes only roundoff is
not a flag: the nonunitary phase grid, and how quorum dual builds a dual.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Tuple

import numpy as np

from . import __version__
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


def _twice_s(s: Optional[float]) -> int:
    if s is None:
        raise UsageError("--s (spin magnitude) is required here")
    t = round(2 * s) if math.isfinite(s) else 0
    if abs(2 * s - t) > 1e-9 or t < 1:
        raise UsageError(f"spin s must be a positive half-integer, got {s}")
    return int(t)


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


def _maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


def _squeeze_params(args) -> Optional[SqueezeParams]:
    text = getattr(args, "squeeze", None)
    if text is None:
        return None
    return SqueezeParams(_parse_complex(text))


# subcommands ----------------------------------------------------------------

# The StateSpec field that --param sets for each kind that takes it, and its parser.
_STATE_PARAMS = {
    "fock": ("n", int),
    "coherent": ("beta", _parse_complex),
    "squeezed_vacuum": ("zeta", _parse_complex),
    "thermal": ("mean_n", float),
}
# The optional flags each kind reads (the kinds above read --param); the others must be unset.
_STATE_FLAGS = {"random_mixed": ("seed",), "spin_pure": ("s", "direction")}


def cmd_state(args) -> None:
    kind = args.kind
    for flag in ("param", "seed", "s", "direction"):
        if getattr(args, flag) is not None and flag not in _STATE_FLAGS.get(kind, ("param",)):
            raise UsageError(f"--{flag} does not apply to --kind {kind}")
    if kind == "spin_pure":
        twice_s = _twice_s(args.s)
        dim = args.dim if args.dim is not None else twice_s + 1
        if args.direction is None:
            raise UsageError("spin_pure needs --direction x,y,z")
        spec = StateSpec(kind=kind, dim=dim, twice_s=twice_s,
                         direction=_parse_direction(args.direction))
    else:
        if args.dim is None:
            raise UsageError("--dim is required")
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


def _sample_input_state(args, method: str) -> Tuple[DensityMatrix, Optional[int]]:
    """Without --state: maximally mixed for finite spins, vacuum otherwise."""
    twice_s = _twice_s(args.s) if method == "spin" else None
    if args.state:
        rho = load_state(args.state)
    elif method == "spin":
        rho = _maximally_mixed(twice_s + 1)
    elif method == "pauli":
        rho = _maximally_mixed(2)
    else:
        rho = make_state(StateSpec(kind="fock", dim=args.dim, n=0))
    return rho, twice_s


def cmd_sample(args) -> None:
    method = args.method
    rho, twice_s = _sample_input_state(args, method)
    params = method_params(method, rho.dim - 1, cfg=_make_cfg(args, rho.dim),
                           twice_s=twice_s, squeeze=_squeeze_params(args))
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
    if args.records:
        raise UsageError("method nonunitary is an exact route from a state file; "
                         "it takes --state, not --records")
    if not args.state:
        raise UsageError("method nonunitary needs --state")
    rho = load_state(args.state)

    if args.observable:
        name, a = _parse_observable(args.observable, rho.dim)
        _write_estimate(args, name, EstimationResult(nonunitary_reconstruct(a, rho), 0.0, 0),
                        {"method": "nonunitary", "exact": True})
        return

    if args.n_max is None:
        raise UsageError("--n-max is required for a full matrix")
    method_params("nonunitary", args.n_max)
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
    reference = load_state(args.reference) if args.reference else None
    if method == "nonunitary":
        _reconstruct_nonunitary(args, reference)
        return

    if not args.records:
        raise UsageError("--records is required for sampled methods")
    records = records_from_csv(args.records)

    # Spin and Pauli fix n_max (2s and 1); the other methods need --n-max.
    twice_s = _twice_s(args.s) if method == "spin" else None
    n_max = args.n_max if args.n_max is not None else {"spin": twice_s, "pauli": 1}.get(method)
    if n_max is None:
        raise UsageError("--n-max is required for this method")
    cfg = _make_cfg(args, n_max + 1)
    squeeze = _squeeze_params(args)

    if args.observable:
        name, a = _parse_observable(args.observable, n_max + 1)
        result = estimate_observable(records, method, a, cfg=cfg, twice_s=twice_s,
                                     squeeze=squeeze)
        _write_estimate(args, name, result, {"method": method})
        return

    _write_matrix(args, reconstruct_matrix(
        records, method, n_max, cfg=cfg, twice_s=twice_s, squeeze=squeeze,
        reference=reference, nearest_physical=args.nearest_physical,
    ))


def cmd_quorum(args) -> None:
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{column},re,im\n")
        for x, v in zip(grid, values):
            v = complex(v)
            fh.write("%.17g,%.17g,%.17g\n" % (float(x), v.real, v.imag))


def cmd_kernels(args) -> None:
    family = args.family
    points = args.points

    if family == "homodyne":
        if args.observable is None or args.dim is None:
            raise UsageError("homodyne kernel needs --observable and --dim")
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
        if d == 0:
            if not args.eps:
                raise UsageError("the diagonal kernel needs --eps > 0")
            vals = kerr_kernel_regularized(args.n, args.eps, phis, args.psi)
        else:
            vals = kerr_kernel(args.n, d, phis, args.psi)
        _write_kernel_csv(args.out, "phi", phis, vals)
    elif family == "spin":
        twice_s = _twice_s(args.s)
        if args.observable is None:
            raise UsageError("spin kernel needs --observable")
        _, a = _parse_observable(args.observable, twice_s + 1)
        direction = _parse_direction(args.direction)
        ms = [j - twice_s / 2.0 for j in range(twice_s + 1)]
        vals = [spin_kernel(a, m, direction, twice_s) for m in ms]
        _write_kernel_csv(args.out, "m", ms, vals)
    else:  # nonunitary
        if args.observable is None or args.dim is None:
            raise UsageError("nonunitary kernel needs --observable and --dim")
        _, a = _parse_observable(args.observable, args.dim)
        phis = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
        vals = [np.trace(a.mat @ phase_shift_ladder(args.n, phi, args.dim).mat.conj().T)
                for phi in phis]
        _write_kernel_csv(args.out, "phi", phis, vals)

    print(f"family = {family}")
    print(f"wrote {args.out}")


# parser ---------------------------------------------------------------------

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

    parser = argparse.ArgumentParser(
        prog="qtomo",
        description="Measurement-driven state and observable estimation.",
        epilog="QTOMO_THREADS caps internal parallelism. Formats: docs/formats.md.",
    )
    parser.add_argument("--version", action="version", version=f"qtomo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", parents=[common],
                             help="build a state file from a named recipe")
    p_state.add_argument("--kind", required=True,
                         choices=["fock", "coherent", "squeezed_vacuum", "thermal",
                                  "random_mixed", "spin_pure"])
    p_state.add_argument("--dim", type=int)
    p_state.add_argument("--param", help="kind-specific parameter (level, amplitude, ...)")
    p_state.add_argument("--seed", type=int, help="seed for random_mixed (default 0)")
    p_state.add_argument("--s", type=float, help="spin magnitude for spin_pure")
    p_state.add_argument("--direction", help="x,y,z axis for spin_pure")
    p_state.add_argument("--out", default="state.json")
    p_state.set_defaults(func=cmd_state)

    p_sample = sub.add_parser("sample", parents=[common, diskp],
                              help="draw synthetic measurement records")
    p_sample.add_argument("--method", required=True, choices=list(METHODS))
    p_sample.add_argument("--state", help="state file; default is maximally mixed (spin, "
                          "pauli) or the vacuum of dimension --dim")
    p_sample.add_argument("--dim", type=int, default=8, help="dimension without --state")
    p_sample.add_argument("--s", type=float, help="spin magnitude (method spin)")
    p_sample.add_argument("--shots", type=int, required=True)
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--substream", type=int, default=0)
    p_sample.add_argument("--squeeze", help="squeeze parameter (homodyne)")
    p_sample.add_argument("--out", default="records.csv")
    p_sample.set_defaults(func=cmd_sample)

    p_rec = sub.add_parser("reconstruct", parents=[common, kernelp, diskp],
                           help="estimate a matrix or a single observable from records")
    p_rec.add_argument("--method", required=True,
                       choices=list(METHODS) + ["nonunitary"])
    p_rec.add_argument("--records", help="record CSV (sampled methods)")
    p_rec.add_argument("--state", help="state file (method nonunitary)")
    p_rec.add_argument("--n-max", type=int, help="largest level index to estimate")
    p_rec.add_argument("--s", type=float, help="spin magnitude (method spin)")
    p_rec.add_argument("--observable",
                       help="identity | number | quadrature:PHI | matrix_unit:K,N")
    p_rec.add_argument("--squeeze", help="squeeze parameter (homodyne)")
    p_rec.add_argument("--reference", help="state file to compare against")
    p_rec.add_argument("--nearest-physical", action="store_true",
                       help="report the distance to the nearest physical state")
    p_rec.add_argument("--out", default="result.json")
    p_rec.set_defaults(func=cmd_reconstruct)

    p_q = sub.add_parser("quorum", parents=[common],
                         help="verify a spanning set or write its dual")
    p_q.add_argument("action", choices=["verify", "dual"])
    p_q.add_argument("--quorum", required=True, help="quorum JSON file")
    p_q.add_argument("--out", default="dual.json")
    p_q.set_defaults(func=cmd_quorum)

    p_k = sub.add_parser("kernels", parents=[common, kernelp],
                         help="tabulate an estimation kernel to CSV")
    p_k.add_argument("action", choices=["eval"])
    p_k.add_argument("--family", required=True,
                     choices=["homodyne", "parity", "spin", "kerr", "nonunitary"])
    p_k.add_argument("--observable")
    p_k.add_argument("--dim", type=int)
    p_k.add_argument("--n", type=int, default=0, help="level index")
    p_k.add_argument("--d", type=int, help="level offset")
    p_k.add_argument("--phi", type=_finite_float("--phi"), default=0.0, help="fixed phase")
    p_k.add_argument("--psi", type=_finite_float("--psi"), default=0.0,
                     help="fixed nonlinear shift")
    p_k.add_argument("--eps", type=_finite_float("--eps"), help="diagonal regularization")
    p_k.add_argument("--s", type=float, help="spin magnitude")
    p_k.add_argument("--direction", default="0,0,1", help="x,y,z axis (spin)")
    p_k.add_argument("--grid-max", type=_positive_float("--grid-max"),
                     help="grid upper edge (q or alpha)")
    p_k.add_argument("--points", type=_count("--points"), default=101)
    p_k.add_argument("--out", default="kernel.csv")
    p_k.set_defaults(func=cmd_kernels)

    return parser


def _report_failure(args, exc: Exception, code: int) -> int:
    if getattr(args, "json_errors", False):
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    # a flag's type check raises UsageError before the namespace exists
    argv = sys.argv[1:] if argv is None else argv
    args = argparse.Namespace(json_errors="--json-errors" in argv)
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except UsageError as exc:
        return _report_failure(args, exc, 2)
    except NumericPreconditionError as exc:
        return _report_failure(args, exc, 3)
    except OSError as exc:
        return _report_failure(args, UsageError(f"cannot open {exc.filename}: {exc.strerror}"), 2)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
