"""Command-line front end: model-string parsing, table generation,
relative-error reports, and CSV emission.

Commands: table, errors, exact, approx, bounds, coef, decompose, simulate.
Output is headered CSV with fixed-point cells (default 6 decimals), the
sentinel NA for columns whose method is infeasible for the model, and exit
codes 0 (success, possibly with stderr warnings), 1 (usage error),
2 (numerical failure).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import approx as approx_mod
from ._inversion import InversionError
from .bounds import panjer_bounds
from .claims import ClaimDistribution, Exponential, Gamma, MixedExponential
from .coefficients import NoRootError, adjustment_coefficient, lundberg_bound, renyi_coefficient
from .exact import decompose_ruin, exact_ruin
from .model import PerturbedModel
from .montecarlo import SimConfig, simulate_ruin

__all__ = ["main", "parse_model", "parse_claims"]

_TABLE_METHODS = ("exact", "dg", "4me", "ren2", "pkdv3", "pkdv4", "pkdv5", "2pp", "lundberg")
_MODEL_KEYS = ("lambda", "theta", "sigma", "claims", "c")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for numerical
    # failure, so route parse problems to exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# model / grid parsing
# ---------------------------------------------------------------------------


def parse_claims(text: str) -> ClaimDistribution:
    """`exp:rate=1`, `gamma:shape=2,rate=2`, or
    `mexp:w=0.88,0.10,0.02;b=5.5,0.19,0.014`."""
    family, _, body = text.partition(":")
    family = family.strip().lower()
    try:
        if family == "exp":
            kv = _kv_pairs(body.split(","))
            return Exponential(rate=float(kv.pop("rate")))
        if family == "gamma":
            kv = _kv_pairs(body.split(","))
            return Gamma(shape=float(kv.pop("shape")), rate=float(kv.pop("rate")))
        if family == "mexp":
            kv = _kv_pairs(body.split(";"))
            weights = tuple(float(x) for x in kv.pop("w").split(","))
            rates = tuple(float(x) for x in kv.pop("b").split(","))
            return MixedExponential(weights=weights, rates=rates)
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"bad claims spec {text!r}: {exc}") from exc
    raise UsageError(f"unknown claim family {family!r} (expected exp, gamma, or mexp)")


def _kv_pairs(tokens) -> dict:
    out = {}
    for tok in tokens:
        key, eq, val = tok.partition("=")
        if not eq:
            raise ValueError(f"expected key=value, got {tok!r}")
        out[key.strip()] = val.strip()
    return out


def parse_model(text: str) -> PerturbedModel:
    """`lambda=1,theta=0.01,sigma=1,claims=exp:rate=1`; `c=` may replace
    `theta=`. The claims value may itself contain commas (mexp), so a comma
    token only starts a new field when it begins with a known key."""
    fields: list[str] = []
    for tok in text.split(","):
        key = tok.partition("=")[0].strip()
        if fields and key not in _MODEL_KEYS:
            fields[-1] += "," + tok
        else:
            fields.append(tok)
    kv = _kv_pairs(fields)
    if "claims" not in kv:
        raise UsageError(f"model spec {text!r} is missing claims=")
    claims = parse_claims(kv.pop("claims"))
    try:
        lam = float(kv.pop("lambda", 1.0))
        sigma = float(kv.pop("sigma", 0.0))
        loading = float(kv.pop("theta")) if "theta" in kv else None
        rate = float(kv.pop("c")) if "c" in kv else None
        if kv:
            raise UsageError(f"unknown model keys {sorted(kv)}")
        return PerturbedModel(
            claims=claims, lam=lam, sigma=sigma, loading=loading, premium_rate=rate
        )
    except UsageError:
        raise
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad model spec {text!r}: {exc}") from exc


def _parse_grid(text: str) -> np.ndarray:
    try:
        # + 0.0 turns a -0 point into 0, so it does not print as -0.000000
        grid = np.array([float(x) for x in text.split(",")], dtype=float) + 0.0
    except ValueError as exc:
        raise UsageError(f"bad u grid {text!r}: {exc}") from exc
    if not np.all((grid >= 0.0) & (grid < np.inf)):
        raise UsageError(f"u grid points must be finite and non-negative, got {text!r}")
    if grid.size == 0 or np.any(np.diff(grid) <= 0.0):
        raise UsageError("u grid must be strictly increasing")
    return grid


# ---------------------------------------------------------------------------
# column evaluation
# ---------------------------------------------------------------------------


def _note_mixture_rate(model, R: float) -> None:
    if isinstance(model.claims, MixedExponential):
        sys.stderr.write(
            "note: mixture decay-rate root R=%.6e lies below the mgf divergence "
            "radius %.6e; any quoted rate at or above the radius cannot solve "
            "the root equation\n" % (R, model.claims.mgf_sup)
        )


def _eval_columns(model, methods, u, lattice, warnings: list) -> list[tuple[str, object]]:
    """(name, value-array-or-None) per output column; None means NA."""
    columns: list[tuple[str, object]] = []
    for m in methods:
        try:
            if m == "exact":
                columns.append(("exact", exact_ruin(model, u)))
            elif m == "dg":
                if lattice is None:
                    raise UsageError("method dg requires --lattice")
                pair = panjer_bounds(model, lattice, u, convention="published")
                columns.append(("dg_lower", pair.lower.values))
                columns.append(("dg_upper", pair.upper.values))
            elif m == "4me":
                columns.append(("4me", approx_mod.de_vylder_ruin(model, u)))
            elif m == "ren2":
                columns.append(("ren2", approx_mod.renyi_approx(model, u)))
            elif m in ("pkdv3", "pkdv4", "pkdv5"):
                columns.append((m, approx_mod.pkdv_approx(model, int(m[-1]), u)))
            elif m == "2pp":
                columns.append(("2pp", approx_mod.two_point_pade(model, u)))
            elif m == "lundberg":
                res = adjustment_coefficient(model)
                _note_mixture_rate(model, res.R)
                columns.append(("lundberg", lundberg_bound(model, u, R=res.R)))
            else:
                raise UsageError(f"unknown method {m!r} (choose from {', '.join(_TABLE_METHODS)})")
        except UsageError:
            raise
        except (approx_mod.FitInfeasibleError, NoRootError, InversionError, ValueError) as exc:
            warnings.append(f"method {m} infeasible: {exc}")
            columns.append((m, None))
    return columns


def _emit(header: list[str], rows: list[list[str]], out_path: str | None) -> None:
    text = "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_grid(args, header: list[str], u, columns) -> None:
    """One CSV row per grid point: u, then each column's value there (a
    column of None is all NA)."""
    p = args.precision
    rows = [[_fmt_u(x, p)] + [_fmt(None if col is None else col[i], p) for col in columns] for i, x in enumerate(u)]
    _emit(header, rows, args.out)


def _fmt_u(x, places: int) -> str:
    # fixed point, unless that would print a positive u as zero
    cell = _fmt(x, places)
    return f"{x:.{places}g}" if x > 0.0 and float(cell) == 0.0 else cell


def _fmt(value, places: int) -> str:
    if value is None or (isinstance(value, float) and not np.isfinite(value)):
        return "NA"
    return f"{value:.{places}f}"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_table(args, model, warnings):
    u = _parse_grid(args.u)
    methods = [m.strip() for m in args.methods.split(",")]
    columns = _eval_columns(model, methods, u, args.lattice, warnings)
    _emit_grid(args, ["u"] + [name for name, _ in columns], u, [col for _, col in columns])


def _cmd_errors(args, model, warnings):
    u = _parse_grid(args.u)
    methods = [m.strip() for m in args.methods.split(",") if m.strip() != "exact"]
    exact_col = exact_ruin(model, u)
    columns = _eval_columns(model, methods, u, args.lattice, warnings)
    header = ["u"] + [f"eps_{name}" for name, _ in columns]
    _emit_grid(args, header, u, [None if col is None else np.abs(1.0 - col / exact_col) for _, col in columns])


def _cmd_exact(args, model, warnings):
    u = _parse_grid(args.u)
    _emit_grid(args, ["u", "psi"], u, [exact_ruin(model, u, method=args.inversion, degree=args.degree)])


def _cmd_approx(args, model, warnings):
    u = _parse_grid(args.u)
    columns = _eval_columns(model, [args.method], u, args.lattice, warnings)
    _emit_grid(args, ["u", "value"], u, [columns[0][1]])


def _cmd_bounds(args, model, warnings):
    u = _parse_grid(args.u)
    if args.lattice is None:
        raise UsageError("bounds requires --lattice")
    pair = panjer_bounds(model, args.lattice, u, convention=args.convention)
    lo, hi = pair.lower.values, pair.upper.values
    _emit_grid(args, ["u", "lower", "upper", "width"], u, [lo, hi, hi - lo])


def _cmd_coef(args, model, warnings):
    res = adjustment_coefficient(model)
    r0 = renyi_coefficient(model)
    _note_mixture_rate(model, res.R)
    p = args.precision
    row = [
        f"{res.R:.{p}g}",
        f"{r0:.{p}g}",
        f"{res.bracket[0]:.{p}g}",
        f"{res.bracket[1]:.{p}g}",
        f"{res.residual:.{p}g}",
    ]
    _emit(["R", "R0", "bracket_lo", "bracket_hi", "residual"], [row], args.out)


def _cmd_decompose(args, model, warnings):
    curves = decompose_ruin(model, args.umax, step=args.step)
    v1, v2 = curves.psi1.values, curves.psi2.values
    _emit_grid(args, ["u", "psi1", "psi2", "sum"], curves.psi1.u, [v1, v2, v1 + v2])


def _cmd_simulate(args, model, warnings):
    if args.paths is None or args.seed is None:
        raise UsageError("simulate requires --paths and --seed")
    try:
        config = SimConfig(model=model, u=args.u_scalar, n_paths=args.paths, seed=args.seed, horizon=args.horizon)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    est = simulate_ruin(config)
    p = args.precision
    row = [
        _fmt(est.ruin_freq, p),
        _fmt(est.std_err, p),
        str(est.n_ruined_by_claim),
        str(est.n_ruined_by_oscillation),
    ]
    _emit(["ruin_freq", "std_err", "by_claim", "by_oscillation"], [row], args.out)


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", help="model spec, e.g. lambda=1,theta=0.01,sigma=1,claims=exp:rate=1")
    common.add_argument("--out", help="write CSV here instead of stdout")
    common.add_argument("--precision", type=int, help="decimal places (default 6)")
    common.add_argument("--config", help="flat key=value file mirroring the flags; flags override")

    parser = _Parser(prog="ruinkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("table", parents=[common])
    sp.add_argument("--methods", help="comma list from: " + ",".join(_TABLE_METHODS))
    sp.add_argument("--u", help="strictly increasing comma list")
    sp.add_argument("--lattice", type=float, help="lattice width for dg bounds")

    sp = sub.add_parser("errors", parents=[common])
    sp.add_argument("--methods")
    sp.add_argument("--u")
    sp.add_argument("--lattice", type=float)

    sp = sub.add_parser("exact", parents=[common])
    sp.add_argument("--u")
    sp.add_argument("--inversion", choices=("talbot", "euler"), default="talbot")
    sp.add_argument("--degree", type=int)

    sp = sub.add_parser("approx", parents=[common])
    sp.add_argument("--method", help="one of 4me,ren2,pkdv3,pkdv4,pkdv5,2pp,lundberg")
    sp.add_argument("--u")
    sp.add_argument("--lattice", type=float)

    sp = sub.add_parser("bounds", parents=[common])
    sp.add_argument("--u")
    sp.add_argument("--lattice", type=float)
    sp.add_argument("--convention", choices=("strict", "published"), default="strict")

    sub.add_parser("coef", parents=[common])

    sp = sub.add_parser("decompose", parents=[common])
    sp.add_argument("--umax", type=float)
    sp.add_argument("--step", type=float, default=0.01)

    sp = sub.add_parser("simulate", parents=[common])
    sp.add_argument("--u", dest="u_scalar", type=float)
    sp.add_argument("--horizon", type=float)
    sp.add_argument("--paths", type=int)
    sp.add_argument("--seed", type=int)
    return parser


_CONFIG_CASTS = {
    "precision": int,
    "lattice": float,
    "umax": float,
    "step": float,
    "horizon": float,
    "paths": int,
    "seed": int,
    "u_scalar": float,
    "degree": int,
}


def _apply_config(args) -> None:
    """Fill unset args from a flat key=value file; explicit flags win."""
    if not getattr(args, "config", None):
        return
    with open(args.config) as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, val = line.partition("=")
            if not eq:
                raise UsageError(f"{args.config}:{line_no}: expected key=value")
            key = key.strip().replace("-", "_")
            if key == "u" and hasattr(args, "u_scalar"):
                key = "u_scalar"
            if not hasattr(args, key):
                raise UsageError(f"{args.config}:{line_no}: unknown key {key!r}")
            if getattr(args, key) is None:
                cast = _CONFIG_CASTS.get(key, str)
                try:
                    setattr(args, key, cast(val.strip()))
                except ValueError as exc:
                    raise UsageError(f"{args.config}:{line_no}: bad value for {key}: {exc}") from exc


_COMMANDS = {
    "table": _cmd_table,
    "errors": _cmd_errors,
    "exact": _cmd_exact,
    "approx": _cmd_approx,
    "bounds": _cmd_bounds,
    "coef": _cmd_coef,
    "decompose": _cmd_decompose,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    warnings: list[str] = []
    try:
        _apply_config(args)
        if args.precision is None:
            args.precision = 6
        if args.precision < 1:
            raise UsageError("precision must be at least 1")
        if not args.model:
            raise UsageError(f"{args.command} requires --model (flag or config file)")
        model = parse_model(args.model)
        _require(args)
        _COMMANDS[args.command](args, model, warnings)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (OSError, ArithmeticError, RuntimeError, ValueError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    for w in warnings:
        sys.stderr.write(f"warning: {w}\n")
    if warnings:
        sys.stderr.write(f"{len(warnings)} warning(s)\n")
    return 0


def _require(args) -> None:
    need = {
        "table": ("methods", "u"),
        "errors": ("methods", "u"),
        "exact": ("u",),
        "approx": ("method", "u"),
        "bounds": ("u",),
        "decompose": ("umax",),
        "simulate": ("u_scalar",),
    }
    for field in need.get(args.command, ()):
        if getattr(args, field, None) is None:
            flag = "--u" if field == "u_scalar" else "--" + field
            raise UsageError(f"{args.command} requires {flag}")
    degree = getattr(args, "degree", None)
    if degree is not None and degree < 1:
        raise UsageError(f"--degree must be at least 1, got {degree!r}")
    for field in ("lattice", "umax", "step"):
        value = getattr(args, field, None)
        if value is not None and not 0.0 < value < np.inf:
            raise UsageError(f"--{field} must be finite and positive, got {value!r}")


if __name__ == "__main__":
    raise SystemExit(main())
