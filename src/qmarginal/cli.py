"""Command-line front end.

One subcommand per library operation; results are single JSON documents
on stdout (floats at 17 significant digits), diagnostics are
machine-readable error objects on stderr. Exit codes: 0 success or
feasible-true, 1 feasible-false or infeasible input, 2 usage error
(including a request too large to allocate), 3 numerical validation
failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import fileio
from .constructors import construct_23, construct_rank_k, construct_with_spectra, optimal_low_rank, purify
from .errors import (
    DimensionError,
    DomainError,
    InfeasibleError,
    InternalInvariantError,
    InvalidCertificateError,
    PreconditionError,
    UnsupportedRegimeError,
    ValidationError,
)
from .extremality import is_extreme, split_nonextreme
from .feasibility import (
    compat_2x2,
    compat_2x3,
    element_rank_range,
    extreme_rank_range,
    necessary_spectra_compat,
)
from .linalg import (
    HERMIT_TOL,
    PSD_TOL,
    RANK_TOL_FACTOR,
    TRACE_TOL,
    factor_dims,
    partial_trace_first,
    partial_trace_second,
    validate_density,
)
from .oracle import SamplerConfig, random_state_with_marginal


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _tolerance(text: str) -> float:
    value = float(text)
    if not (np.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _norm_key(p: float) -> str:
    return "inf" if np.isinf(p) else format(p, "g")


def build_parser() -> _Parser:
    parser = _Parser(prog="qmarginal", description=__doc__)
    # argument groups shared by subcommands, each declared once
    state, sigma, rank, spectra = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    state.add_argument("state")
    state.add_argument("--m", type=int)
    state.add_argument("--n", type=int)
    sigma.add_argument("sigma")
    sigma.add_argument("--m", type=int, required=True)
    rank.add_argument("--k", type=int, required=True)
    spectra.add_argument("lam", metavar="lambda")
    spectra.add_argument("mu")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # a handler maps the parsed arguments, whose file arguments _load_files has
    # replaced by what they hold, to (document, exit code); the four subcommands
    # that build one state share the handler _state_handler makes
    def add_parser(name, handler, *parents, **kwargs):
        p = sub.add_parser(name, parents=list(parents), **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = add_parser("validate", _cmd_validate, help="check a matrix file is a density matrix")
    p.add_argument("matrix")
    p.add_argument("--hermit-tol", type=_tolerance, default=HERMIT_TOL)
    p.add_argument("--psd-tol", type=_tolerance, default=PSD_TOL)
    p.add_argument("--trace-tol", type=_tolerance, default=TRACE_TOL)
    p.add_argument("--rank-tol-factor", type=_tolerance, default=RANK_TOL_FACTOR)

    p = add_parser("ptrace", _cmd_ptrace, state, help="partial trace of a bipartite state file")
    p.add_argument("--side", choices=["first", "second"], required=True)

    add_parser("purify", _state_handler(lambda a: purify(a.sigma, a.m)), sigma,
               help="rank-one state with the given first marginal")
    add_parser("construct", _state_handler(lambda a: construct_rank_k(a.sigma, a.m, a.k)), sigma, rank,
               help="rank-k state with the given first marginal")

    p = add_parser("approx", _cmd_approx, sigma, rank,
                   help="optimal rank-constrained marginal approximation")
    p.add_argument("--norms", default="1,2,inf")
    p.add_argument("--emit-curve", metavar="PATH",
                   help="also write a (k, min-norm) table up to the exact rank")

    add_parser("extreme", _cmd_extreme, state, help="extremality report for a bipartite state")
    add_parser("split", _cmd_split, state, help="split a non-extreme state with a rank drop")

    p = add_parser("feasible", _cmd_feasible, help="attainable ranks for a marginal of rank r")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--extreme", action="store_true")
    p.add_argument("--k", type=int, help="also test one specific rank")

    p = add_parser("compat", _cmd_compat, spectra,
                   help="spectra compatibility (auto-selects the test by dims)")
    p.add_argument("--m", type=int)

    p = add_parser("spectra-construct",
                   _state_handler(lambda a: construct_with_spectra(a.lam, a.mu, a.m)), spectra,
                   help="state with prescribed joint and marginal spectra (m >= n)")
    p.add_argument("--m", type=int, required=True)

    add_parser("construct23", _state_handler(lambda a: construct_23(a.lam, a.mu)), spectra,
               help="state on a (2,3) system with prescribed spectra pair")

    p = add_parser("sample", _cmd_sample, sigma, help="random states with a prescribed first marginal")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--mix", type=int, default=4)

    add_parser("demo-s5", _cmd_demo_s5,
               help="worked answers for the uniform-qutrit marginal on a (2,3) system")
    return parser


def _state_handler(build):
    """Handler whose document is the one state ``build(args)`` returns, with exit 0."""
    return lambda args: (fileio.state_to_doc(build(args)), 0)


def _load_files(args) -> None:
    """Replace each file argument of ``args`` by what it holds, loaded in this order."""
    loaders = (("matrix", lambda path: fileio.load_matrix(path)[0]),
               ("state", lambda path: fileio.load_state(path, args.m, args.n)),
               ("sigma", fileio.load_density), ("lam", fileio.load_spectrum), ("mu", fileio.load_spectrum))
    for name, load in loaders:
        if name in vars(args):
            setattr(args, name, load(getattr(args, name)))


def _cmd_validate(args):
    dm = validate_density(
        args.matrix,
        hermit_tol=args.hermit_tol,
        psd_tol=args.psd_tol,
        trace_tol=args.trace_tol,
        rank_tol_factor=args.rank_tol_factor,
    )
    low = dm.eigenvectors[:, -1]
    doc = {
        "valid": True,
        "dim": dm.dim,
        "rank": dm.rank,
        "trace": float(np.trace(dm.matrix).real),
        # Rayleigh quotient of the last eigenvector: the stored spectrum is clipped at 0
        "min_eigenvalue": float(np.vdot(low, dm.matrix @ low).real),
    }
    return doc, 0


def _cmd_ptrace(args):
    if args.side == "first":
        out = partial_trace_first(args.state)
    else:
        out = partial_trace_second(args.state)
    return fileio.matrix_to_doc(out), 0


def _cmd_approx(args):
    norms = [float(tok) for tok in args.norms.split(",") if tok.strip()]
    res = optimal_low_rank(args.sigma, args.m, args.k, norms=norms)
    doc = {
        "rho": fileio.state_to_doc(res.rho),
        "achieved_sigma": fileio.matrix_to_doc(res.achieved_sigma),
        "residual_spectrum": res.residual_spectrum.tolist(),
        "mu_shift": res.mu_shift,
        "exact": res.exact,
        "norms": {_norm_key(p): v for p, v in res.norms.items()},
    }
    if args.emit_curve:
        _write_curve(args.emit_curve, args.sigma, args.m, norms)
    return doc, 0


def _write_curve(path, sigma, m, norms):
    k_exact = element_rank_range(sigma.rank, m).k_min
    with open(path, "w") as fh:
        fh.write("k\t" + "\t".join(f"norm_{_norm_key(p)}" for p in norms) + "\n")
        for k in range(1, k_exact + 1):
            res = optimal_low_rank(sigma, m, k, norms=norms)
            row = [str(k)] + [fileio.format_float(res.norms[float(p)]) for p in norms]
            fh.write("\t".join(row) + "\n")


def _cmd_extreme(args):
    rep = is_extreme(args.state)
    return {
        "is_extreme": rep.is_extreme,
        "rank": rep.rank,
        "gram_min_eig": rep.gram_min_eig,
        "marginal": rep.marginal,
        "certificate": None if rep.certificate is None else fileio.matrix_to_doc(rep.certificate),
    }, 0


def _cmd_split(args):
    rep = is_extreme(args.state)
    if rep.is_extreme:
        raise InfeasibleError("state is extreme; nothing to split")
    rho1, rho2 = split_nonextreme(args.state, rep.certificate)
    return {"rho1": fileio.state_to_doc(rho1), "rho2": fileio.state_to_doc(rho2)}, 0


def _cmd_feasible(args):
    rng = extreme_rank_range(args.r, args.m) if args.extreme else element_rank_range(args.r, args.m)
    doc = {"k_min": rng.k_min, "k_max": rng.k_max}
    code = 0
    if args.k is not None:
        ok = rng.k_min <= args.k <= rng.k_max
        doc["k"] = args.k
        doc["feasible"] = ok
        code = 0 if ok else 1
    return doc, code


def _cmd_compat(args):
    lam, mu = args.lam, args.mu
    m, n = factor_dims(mu.size, args.m, lam.size)
    if (m, n) == (2, 2):
        mode, rep = "2x2", compat_2x2(lam, mu)
    elif (m, n) == (2, 3):
        mode, rep = "2x3", compat_2x3(lam, mu)
    else:
        mode, rep = "necessary", necessary_spectra_compat(lam, mu, m)
    checks = [{"name": c.name, "passed": c.passed, "slack": c.slack} for c in rep.checks]
    doc = {"mode": mode, "holds": rep.holds, "checks": checks}
    if mode == "necessary":
        doc["note"] = "necessary conditions only for m < n"
    return doc, 0 if rep.holds else 1


def _cmd_sample(args):
    cfg = SamplerConfig(seed=args.seed, trials=args.trials, mix_components=args.mix)
    states = [
        fileio.state_to_doc(random_state_with_marginal(args.sigma, args.m, replace(cfg, seed=args.seed + t)))
        for t in range(cfg.trials)
    ]
    return {"seed": args.seed, "states": states}, 0


def _cmd_demo_s5(args):
    elem = element_rank_range(3, 2)
    extr = extreme_rank_range(3, 2)
    doc = {
        "marginal": "uniform qutrit (identity/3) on a (2,3) system",
        "joint_spectrum_feasibility": {
            "predicate": "a2+a3 >= 1/3 >= a4+a5",
            "description": "a1..a6 descending joint spectrum; feasible iff the predicate holds",
        },
        "element_ranks": {"k_min": elem.k_min, "k_max": elem.k_max},
        "extreme_point_ranks": {"k_min": extr.k_min, "k_max": extr.k_max},
    }
    return doc, 0


def _emit_error(kind: str, message: str, **extra) -> None:
    payload = {"error": {"type": kind, "message": message, **extra}}
    print(fileio.dumps(payload), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _load_files(args)
        doc, code = args.handler(args)
        print(fileio.dumps(doc), flush=True)
    except ValidationError as exc:
        _emit_error("validation", str(exc), reason=exc.reason)
        return 3
    except (InfeasibleError, PreconditionError, UnsupportedRegimeError) as exc:
        _emit_error("infeasible", str(exc))
        return 1
    except (_UsageError, DimensionError, DomainError, InvalidCertificateError) as exc:
        _emit_error("usage", str(exc))
        return 2
    except (OSError, OverflowError, KeyError, TypeError, ValueError, MemoryError) as exc:
        _emit_error("usage", f"{type(exc).__name__}: {exc}")
        return 2
    except InternalInvariantError as exc:
        _emit_error("internal-invariant", str(exc))
        return 3
    return code


def main_entry() -> None:
    code = main()
    if sys.stdout is not None:
        # main flushed its output; anything still buffered was refused by a reader
        # that closed stdout early, and must not fail again at interpreter exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
