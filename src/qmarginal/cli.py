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
import json
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
    partial_trace_first,
    partial_trace_second,
    validate_density,
)
from .oracle import SamplerConfig, random_state_with_marginal

SEED_ENV = "REDUCED_STATE_SEED"


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


def _default_seed() -> int:
    return int(os.environ.get(SEED_ENV, "0"))


def build_parser() -> _Parser:
    parser = _Parser(prog="qmarginal", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH",
                        help="also write the result document to this file")
    dims = argparse.ArgumentParser(add_help=False)
    dims.add_argument("--m", type=int)
    dims.add_argument("--n", type=int)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_parser(name, *parents, **kwargs):
        return sub.add_parser(name, parents=[common, *parents], **kwargs)

    p = add_parser("validate", help="check a matrix file is a density matrix")
    p.add_argument("matrix")
    p.add_argument("--hermit-tol", type=_tolerance, default=HERMIT_TOL)
    p.add_argument("--psd-tol", type=_tolerance, default=PSD_TOL)
    p.add_argument("--trace-tol", type=_tolerance, default=TRACE_TOL)
    p.add_argument("--rank-tol-factor", type=_tolerance, default=RANK_TOL_FACTOR)

    p = add_parser("ptrace", dims, help="partial trace of a bipartite state file")
    p.add_argument("state")
    p.add_argument("--side", choices=["first", "second"], required=True)

    p = add_parser("purify", help="rank-one state with the given first marginal")
    p.add_argument("sigma")
    p.add_argument("--m", type=int, required=True)

    p = add_parser("construct", help="rank-k state with the given first marginal")
    p.add_argument("sigma")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add_parser("approx", help="optimal rank-constrained marginal approximation")
    p.add_argument("sigma")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--norms", default="1,2,inf")
    p.add_argument("--emit-curve", metavar="PATH",
                   help="also write a (k, min-norm) table up to the exact rank")

    p = add_parser("extreme", dims, help="extremality report for a bipartite state")
    p.add_argument("state")
    p.add_argument("--cert-out", metavar="PATH",
                   help="write the dependency certificate when not extreme")

    p = add_parser("split", dims, help="split a non-extreme state with a rank drop")
    p.add_argument("state")

    p = add_parser("feasible", help="attainable ranks for a marginal of rank r")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--extreme", action="store_true")
    p.add_argument("--k", type=int, help="also test one specific rank")

    p = add_parser("compat", help="spectra compatibility (auto-selects the test by dims)")
    p.add_argument("lam", metavar="lambda")
    p.add_argument("mu")
    p.add_argument("--m", type=int)

    p = add_parser("spectra-construct",
                       help="state with prescribed joint and marginal spectra (m >= n)")
    p.add_argument("lam", metavar="lambda")
    p.add_argument("mu")
    p.add_argument("--m", type=int, required=True)

    p = add_parser("construct23",
                       help="state on a (2,3) system with prescribed spectra pair")
    p.add_argument("lam", metavar="lambda")
    p.add_argument("mu")

    p = add_parser("sample", help="random states with a prescribed first marginal")
    p.add_argument("sigma")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--mix", type=int, default=4)

    add_parser("demo-s5",
               help="worked answers for the uniform-qutrit marginal on a (2,3) system")
    return parser


def _cmd_validate(args):
    mat, _, _ = fileio.load_matrix(args.matrix)
    dm = validate_density(
        mat,
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
    state = fileio.load_state(args.state, args.m, args.n)
    if args.side == "first":
        out = partial_trace_first(state)
    else:
        out = partial_trace_second(state)
    return fileio.matrix_to_doc(out), 0


def _cmd_purify(args):
    state = purify(fileio.load_density(args.sigma), args.m)
    return fileio.state_to_doc(state), 0


def _cmd_construct(args):
    state = construct_rank_k(fileio.load_density(args.sigma), args.m, args.k)
    return fileio.state_to_doc(state), 0


def _cmd_approx(args):
    sigma = fileio.load_density(args.sigma)
    norms = [float(tok) for tok in args.norms.split(",") if tok.strip()]
    res = optimal_low_rank(sigma, args.m, args.k, norms=norms)
    doc = {
        "rho": fileio.state_to_doc(res.rho),
        "achieved_sigma": fileio.matrix_to_doc(res.achieved_sigma),
        "residual_spectrum": [float(v) for v in res.residual_spectrum],
        "mu_shift": res.mu_shift,
        "exact": res.exact,
        "norms": {_norm_key(p): v for p, v in res.norms.items()},
    }
    if args.emit_curve:
        _write_curve(args.emit_curve, sigma, args.m, norms)
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
    state = fileio.load_state(args.state, args.m, args.n)
    rep = is_extreme(state)
    doc = {
        "is_extreme": rep.is_extreme,
        "rank": rep.rank,
        "gram_min_eig": rep.gram_min_eig,
        "marginal": rep.marginal,
        "certificate": None if rep.certificate is None else fileio.matrix_to_doc(rep.certificate),
    }
    if args.cert_out and rep.certificate is not None:
        fileio.save_doc(args.cert_out, fileio.matrix_to_doc(rep.certificate))
    return doc, 0


def _cmd_split(args):
    state = fileio.load_state(args.state, args.m, args.n)
    rep = is_extreme(state)
    if rep.is_extreme:
        raise InfeasibleError("state is extreme; nothing to split")
    rho1, rho2 = split_nonextreme(state, rep.certificate)
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
    lam = fileio.doc_to_spectrum(fileio.load_doc(args.lam))
    mu = fileio.doc_to_spectrum(fileio.load_doc(args.mu))
    m, n = fileio.factor_dims(mu.size, args.m, lam.size)
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


def _cmd_spectra_construct(args):
    lam = fileio.doc_to_spectrum(fileio.load_doc(args.lam))
    mu = fileio.doc_to_spectrum(fileio.load_doc(args.mu))
    state = construct_with_spectra(lam, mu, args.m)
    return fileio.state_to_doc(state), 0


def _cmd_construct23(args):
    lam = fileio.doc_to_spectrum(fileio.load_doc(args.lam))
    mu = fileio.doc_to_spectrum(fileio.load_doc(args.mu))
    state = construct_23(lam, mu)
    return fileio.state_to_doc(state), 0


def _cmd_sample(args):
    sigma = fileio.load_density(args.sigma)
    seed = args.seed if args.seed is not None else _default_seed()
    cfg = SamplerConfig(seed=seed, trials=args.trials, mix_components=args.mix)
    states = [
        fileio.state_to_doc(random_state_with_marginal(sigma, args.m, replace(cfg, seed=seed + t)))
        for t in range(cfg.trials)
    ]
    return {"seed": seed, "states": states}, 0


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


_HANDLERS = {
    "validate": _cmd_validate,
    "ptrace": _cmd_ptrace,
    "purify": _cmd_purify,
    "construct": _cmd_construct,
    "approx": _cmd_approx,
    "extreme": _cmd_extreme,
    "split": _cmd_split,
    "feasible": _cmd_feasible,
    "compat": _cmd_compat,
    "spectra-construct": _cmd_spectra_construct,
    "construct23": _cmd_construct23,
    "sample": _cmd_sample,
    "demo-s5": _cmd_demo_s5,
}


def _emit_error(kind: str, message: str, **extra) -> None:
    payload = {"error": {"type": kind, "message": message, **extra}}
    print(fileio.dumps(payload), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        doc, code = _HANDLERS[args.command](args)
        text = fileio.dumps(doc)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        print(text, flush=True)
    except ValidationError as exc:
        _emit_error("validation", str(exc), reason=exc.reason)
        return 3
    except (InfeasibleError, PreconditionError, UnsupportedRegimeError) as exc:
        _emit_error("infeasible", str(exc))
        return 1
    except (_UsageError, DimensionError, DomainError, InvalidCertificateError) as exc:
        _emit_error("usage", str(exc))
        return 2
    except (OSError, OverflowError, json.JSONDecodeError, KeyError, TypeError, ValueError,
            MemoryError) as exc:
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
