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
import ctypes
import functools
import math
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

# flag defaults, filled once the config file has had its turn: a flag with an
# argparse default would look set, and the file could never fill it
_DEFAULTS = {"precision": 6, "inversion": "talbot", "convention": "strict", "step": 0.01}
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
    if family not in ("exp", "gamma", "mexp"):
        raise UsageError(f"unknown claim family {family!r} (expected exp, gamma, or mexp)")
    try:
        kv = _kv_pairs(body.split(";" if family == "mexp" else ","))
        if family == "exp":
            claims = Exponential(rate=float(kv.pop("rate")))
        elif family == "gamma":
            claims = Gamma(shape=float(kv.pop("shape")), rate=float(kv.pop("rate")))
        else:
            weights = tuple(float(x) for x in kv.pop("w").split(","))
            rates = tuple(float(x) for x in kv.pop("b").split(","))
            claims = MixedExponential(weights=weights, rates=rates)
        # a key the family does not read, such as a model key misspelled
        # after claims=, would otherwise be dropped
        if kv:
            raise ValueError(f"unknown key {next(iter(kv))!r}")
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"bad claims spec {text!r}: {exc}") from exc
    return claims


def _kv_pairs(tokens) -> dict:
    out = {}
    for tok in tokens:
        key, eq, val = tok.partition("=")
        if not eq:
            raise ValueError(f"expected key=value, got {tok!r}")
        key = key.strip()
        if key in out:
            raise ValueError(f"repeated key {key!r}")
        out[key] = val.strip()
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
    try:
        kv = _kv_pairs(fields)
        if "claims" not in kv:
            raise UsageError(f"model spec {text!r} is missing claims=")
        claims = parse_claims(kv.pop("claims"))
        lam = float(kv.pop("lambda", 1.0))
        sigma = float(kv.pop("sigma", 0.0))
        loading = float(kv.pop("theta")) if "theta" in kv else None
        rate = float(kv.pop("c")) if "c" in kv else None
        if kv:
            raise UsageError(f"unknown model keys {sorted(kv)}")
        return PerturbedModel(
            claims=claims, lam=lam, sigma=sigma, loading=loading, premium_rate=rate
        )
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
    if type(model.claims) is MixedExponential:  # not its one-component subclass Exponential
        sys.stderr.write(
            "note: mixture decay-rate root R=%.6e lies below the mgf divergence "
            "radius %.6e; any quoted rate at or above the radius cannot solve "
            "the root equation\n" % (R, model.claims.mgf_sup)
        )


def _lundberg_fit(model, u):
    R = adjustment_coefficient(model).R
    _note_mixture_rate(model, R)
    return lundberg_bound(model, u, R=R)


# the closed-form fits, one column each, in the order the help lists them.
# Each looks its library function up by name when it runs, so a caller that
# rebinds that name (the benchmark's trace does) sees every call
_FITS = {
    "4me": lambda model, u: approx_mod.de_vylder_ruin(model, u),
    "ren2": lambda model, u: approx_mod.renyi_approx(model, u),
    "pkdv3": lambda model, u: approx_mod.pkdv_approx(model, 3, u),
    "pkdv4": lambda model, u: approx_mod.pkdv_approx(model, 4, u),
    "pkdv5": lambda model, u: approx_mod.pkdv_approx(model, 5, u),
    "2pp": lambda model, u: approx_mod.two_point_pade(model, u),
    "lundberg": _lundberg_fit,
}


def _method_names(command: str) -> tuple[str, ...]:
    # approx prints one column: dg is a pair of bounds, and exact a command of its own
    return tuple(_FITS) if command == "approx" else ("exact", "dg", *_FITS)


def _methods(args) -> list[str]:
    """The methods a table, errors or approx call names, each known and
    named once, and dg only with --lattice: checked before any method runs."""
    choices = _method_names(args.command)
    # approx takes one name, so a comma list there is one unknown name
    names = [args.method] if args.command == "approx" else args.methods.split(",")
    methods: list[str] = []
    for m in (name.strip() for name in names):
        if m not in choices:
            raise UsageError(f"unknown method {m!r} (choose from {', '.join(choices)})")
        if m in methods:
            raise UsageError(f"repeated method {m!r}")
        methods.append(m)
    if "dg" in methods and args.lattice is None:
        raise UsageError("method dg requires --lattice")
    return methods


def _eval_columns(model, methods, u, lattice, warnings: list) -> list[tuple[str, object]]:
    """(name, value-array-or-None) per output column; None means NA. dg is
    two columns, or one NA column under its own name."""
    columns: list[tuple[str, object]] = []
    for m in methods:
        try:
            if m == "dg":
                pair = panjer_bounds(model, lattice, u, convention="published")
                columns += [("dg_lower", pair.lower.values), ("dg_upper", pair.upper.values)]
            else:
                columns.append((m, exact_ruin(model, u) if m == "exact" else _FITS[m](model, u)))
        except (approx_mod.FitInfeasibleError, NoRootError, InversionError, ValueError) as exc:
            warnings.append(f"method {m} infeasible: {exc}")
            columns.append((m, None))
    return columns


def _emit(header: list[str], body: str, out_path: str | None) -> None:
    text = ",".join(header) + "\n" + body
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# the ASCII digits of 0..99, two bytes each, read as one uint16 per pair
_DIGIT_PAIRS = np.frombuffer("".join(f"{k:02d}" for k in range(100)).encode(), dtype=np.uint16)


def _emit_grid(args, header: list[str], u, columns) -> None:
    """One CSV row per grid point: u, then each column's value there, in
    fixed point with --precision decimals (a column of None is all NA).

    The whole grid is one numpy pass. Each cell's `|v|·10^p` is rounded to
    an int64 and written two digits at a time into a (rows, columns, width)
    byte matrix of sign, digits, point and separator; leading zeros and
    unused sign bytes are 0 bytes, and the body is the matrix's nonzero
    bytes. `-` comes from the sign bit, so -0.0 prints as -0.000000, as `%`
    prints it. The bytes are those of `"%.{p}f" % v`, which rounds the
    exact binary value half to even, wherever rounding the product to the
    nearest integer is sure to agree. Three kinds of cell are left to
    _fmt_u/_fmt, where the NA and tiny-u rules live alone, and their text
    is spliced into the block:

    * a non-finite value, and a product of 2^52 or more, where the product
      has no fraction left to decide with (a product that overflows too);
    * a product within 2 spacings of a rounding tie. The product rounds
      `|v|` times `10^p` once, and `10^p` is exact up to p = 22 and itself
      rounded once above, so the product lies within 1.5 spacings of the
      exact `|v|·10^p`: outside the band, both sit on one side of the tie;
    * a u with 0 < u < 10**-p, the only u that fixed point can print as 0.
    """
    p = args.precision
    u = np.asarray(u, dtype=float)  # u itself is finite: the grids are checked
    na = np.array([False] + [col is None for col in columns])
    # an NA column is held as zeros, which never need `%`; its cells are set to NA below
    values = np.array([u] + [np.zeros_like(u) if col is None else col for col in columns], dtype=float).T
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.abs(values) * np.float64(10.0) ** p
        nearest = np.rint(scaled)
        # |a - rint(a)| is ½ less the distance to the tie, and both sums are exact
        by_cell = ~(np.abs(scaled - nearest) + 2.0 * np.spacing(scaled) < 0.5)
    by_cell[:, 0] |= (u > 0.0) & (u < 10.0**-p)
    ints = np.where(by_cell, 0.0, nearest).astype(np.int64)

    width = max(p + 1, len(str(ints.max(initial=0))))
    width += width % 2  # whole digit pairs; the extra digit is a leading zero
    pairs = np.empty((ints.size, width // 2), np.uint16)
    rest = ints.ravel()
    for j in range(width // 2 - 1, -1, -1):
        # divmod by `//`: numpy divides by a scalar on a fast path that `%` lacks
        quotient = rest // 100
        pairs[:, j] = _DIGIT_PAIRS[rest - 100 * quotient]
        rest = quotient
    digits = pairs.view(np.uint8).reshape(*ints.shape, width)
    for i in range(width - p - 1):  # the integer digits but the units: blank a leading zero
        digits[..., i] *= ints >= 10 ** (width - 1 - i)

    point = width - p + 1  # cell layout: sign, integer digits, ".", p decimals, separator
    cells = np.zeros((*ints.shape, width + 3), np.uint8)
    cells[..., 0] = np.where(np.signbit(values), ord("-"), 0)
    cells[..., 1:point] = digits[..., : width - p]
    cells[..., point] = ord(".")
    cells[..., point + 1 : -1] = digits[..., width - p :]
    cells[:, na, :-1] = np.frombuffer(b"NA".ljust(width + 2, b"\0"), np.uint8)
    cells[:, :-1, -1] = ord(",")
    cells[:, -1, -1] = ord("\n")
    cells[by_cell, :-1] = 0  # a cell left to `%` keeps only its separator
    body = cells[cells != 0].tobytes().decode("ascii")
    if by_cell.any():
        # each such cell's text goes in where its separator starts
        lengths = np.count_nonzero(cells, axis=2).ravel()
        starts = (np.cumsum(lengths) - lengths)[by_cell.ravel()].tolist()
        texts = [
            _fmt_u(x, p) if j == 0 else _fmt(x, p)
            for x, j in zip(values[by_cell].tolist(), np.nonzero(by_cell)[1].tolist())
        ]
        pieces = [None] * (2 * len(texts) + 1)
        pieces[::2] = [body[a:b] for a, b in zip([0] + starts, starts + [len(body)])]
        pieces[1::2] = texts
        body = "".join(pieces)
    _emit(header, body, args.out)


def _fmt_u(x, places: int) -> str:
    # fixed point, unless that would print a positive u as zero
    cell = _fmt(x, places)
    return f"{x:.{places}g}" if x > 0.0 and float(cell) == 0.0 else cell


def _fmt(value, places: int) -> str:
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return "NA"
    return f"{value:.{places}f}"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_table(args, model, warnings):
    methods = _methods(args)
    u = _parse_grid(args.u)
    columns = _eval_columns(model, methods, u, args.lattice, warnings)
    _emit_grid(args, ["u"] + [name for name, _ in columns], u, [col for _, col in columns])


def _cmd_errors(args, model, warnings):
    methods = [m for m in _methods(args) if m != "exact"]
    if not methods:
        raise UsageError("errors requires a method other than exact")
    u = _parse_grid(args.u)
    exact_col = exact_ruin(model, u)
    columns = _eval_columns(model, methods, u, args.lattice, warnings)
    header = ["u"] + [f"eps_{name}" for name, _ in columns]
    eps = [None if col is None else approx_mod.relative_error(col, exact_col) for _, col in columns]
    _emit_grid(args, header, u, eps)


def _cmd_exact(args, model, warnings):
    u = _parse_grid(args.u)
    _emit_grid(args, ["u", "psi"], u, [exact_ruin(model, u, method=args.inversion, degree=args.degree)])


def _cmd_approx(args, model, warnings):
    methods = _methods(args)
    u = _parse_grid(args.u)
    columns = _eval_columns(model, methods, u, None, warnings)
    _emit_grid(args, ["u", "value"], u, [columns[0][1]])


def _cmd_bounds(args, model, warnings):
    u = _parse_grid(args.u)
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
    _emit(["R", "R0", "bracket_lo", "bracket_hi", "residual"], ",".join(row) + "\n", args.out)


def _cmd_decompose(args, model, warnings):
    curves = decompose_ruin(model, args.umax, step=args.step)
    v1, v2 = curves.psi1.values, curves.psi2.values
    _emit_grid(args, ["u", "psi1", "psi2", "sum"], curves.psi1.u, [v1, v2, v1 + v2])


def _cmd_simulate(args, model, warnings):
    try:
        config = SimConfig(model=model, u=args.u, n_paths=args.paths, seed=args.seed, horizon=args.horizon)
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
    _emit(["ruin_freq", "std_err", "by_claim", "by_oscillation"], ",".join(row) + "\n", args.out)


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    # built on the first main() call, not at import, and reused by every
    # later call in the process: parse_args returns a fresh Namespace, and
    # the config file and the defaults write only to that namespace
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", help="model spec, e.g. lambda=1,theta=0.01,sigma=1,claims=exp:rate=1")
    common.add_argument("--out", help="write CSV here instead of stdout")
    common.add_argument("--precision", type=int, help="decimal places (default 6)")
    common.add_argument("--config", help="flat key=value file mirroring the flags; flags override")

    parser = _Parser(prog="ruinkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("table", parents=[common])
    sp.add_argument("--methods", help="comma list from: " + ",".join(_method_names("table")))
    sp.add_argument("--u", help="strictly increasing comma list")
    sp.add_argument("--lattice", type=float, help="lattice width for dg bounds")

    sp = sub.add_parser("errors", parents=[common])
    sp.add_argument("--methods", help="comma list from: " + ",".join(_method_names("errors")))
    sp.add_argument("--u")
    sp.add_argument("--lattice", type=float)

    sp = sub.add_parser("exact", parents=[common])
    sp.add_argument("--u")
    sp.add_argument("--inversion", choices=("talbot", "euler"), help="default talbot")
    sp.add_argument("--degree", type=int)

    sp = sub.add_parser("approx", parents=[common])
    sp.add_argument("--method", help="one of " + ",".join(_method_names("approx")))
    sp.add_argument("--u")

    sp = sub.add_parser("bounds", parents=[common])
    sp.add_argument("--u")
    sp.add_argument("--lattice", type=float)
    sp.add_argument("--convention", choices=("strict", "published"), help="default strict")

    sub.add_parser("coef", parents=[common])

    sp = sub.add_parser("decompose", parents=[common])
    sp.add_argument("--umax", type=float)
    sp.add_argument("--step", type=float, help="default 0.01")

    sp = sub.add_parser("simulate", parents=[common])
    sp.add_argument("--u", type=float)
    sp.add_argument("--horizon", type=float)
    sp.add_argument("--paths", type=int)
    sp.add_argument("--seed", type=int)
    return parser


def _flag_actions(command: str) -> dict:
    """dest -> the argparse action that declares that flag of a subcommand."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {action.dest: action for action in sub.choices[command]._actions}


def _apply_config(args) -> None:
    """Fill unset args from a flat key=value file; explicit flags win. A key
    must be a flag of the subcommand other than --config itself, given once,
    and its value is cast and checked by that flag's own argparse type and
    choices."""
    if not getattr(args, "config", None):
        return
    # not keys: --help sets no value, and the file is already being read
    actions = {dest: a for dest, a in _flag_actions(args.command).items() if dest not in ("help", "config")}
    try:
        with open(args.config) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {args.config}: {getattr(exc, 'strerror', None) or exc}") from exc
    seen = set()
    for line_no, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, val = line.partition("=")
        if not eq:
            raise UsageError(f"{args.config}:{line_no}: expected key=value")
        key = key.strip().replace("-", "_")
        if key not in actions:
            raise UsageError(f"{args.config}:{line_no}: unknown key {key!r}")
        if key in seen:
            raise UsageError(f"{args.config}:{line_no}: repeated key {key!r}")
        seen.add(key)
        if getattr(args, key) is None:
            action = actions[key]
            try:
                value = (action.type or str)(val.strip())
                if action.choices is not None and value not in action.choices:
                    raise ValueError(f"invalid choice {value!r} (choose from {', '.join(action.choices)})")
            except ValueError as exc:
                raise UsageError(f"{args.config}:{line_no}: bad value for {key}: {exc}") from exc
            setattr(args, key, value)


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


@functools.cache
def _pin_allocator() -> None:
    # glibc serves each block of 128 KB or more (a 40001-cell array is
    # 320 KB) from a fresh mmap, or trims the heap top once it is freed, so
    # the next lattice temporary of that size faults in zero-filled pages
    # again. Pinning both thresholds keeps freed blocks in the heap for
    # reuse. Both or neither: pinning one alone turns glibc's dynamic
    # adjustment off and runs slower than the default. Without mallopt
    # (macOS, Windows, no libc handle) this does nothing.
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    # M_MMAP_THRESHOLD (-3) at 32 MiB, the ceiling of glibc's own dynamic
    # threshold on 64-bit; then M_TRIM_THRESHOLD (-1) at twice that, the
    # ratio glibc's own rule keeps; then M_ARENA_MAX (-8) at 1. Untrimmed,
    # every arena keeps its pages for good, and a Monte Carlo share thread
    # that starts before the last one has handed back its arena (thread exit
    # runs on after join returns) would open a new arena, and whether a
    # whole share's pages (about 6 MB at 1e5 paths) stay resident would turn
    # on thread timing. numpy allocates and frees under the GIL, so one
    # arena costs no contention
    if mallopt(-3, 32 << 20) == 1:
        mallopt(-1, 64 << 20)
        mallopt(-8, 1)


def main(argv=None) -> int:
    """Run one command; returns the exit code (0 success, 1 usage error,
    2 numerical failure).

    The first call in a process pins glibc's malloc thresholds (mmap at
    32 MiB, trim at 64 MiB) so freed lattice temporaries are reused from
    the heap, not faulted in anew, and caps malloc at one arena so the
    memory kept does not depend on thread timing; this changes no output.
    Later calls reuse the pin and the parser built by the first.
    """
    _pin_allocator()
    parser = _build_parser()
    args = parser.parse_args(argv)
    warnings: list[str] = []
    try:
        _apply_config(args)
        for key, value in _DEFAULTS.items():
            if hasattr(args, key) and getattr(args, key) is None:
                setattr(args, key, value)
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
    except (OSError, ArithmeticError, RuntimeError, ValueError, MemoryError) as exc:
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
        "bounds": ("u", "lattice"),
        "decompose": ("umax",),
        "simulate": ("u", "paths", "seed"),
    }
    for field in need.get(args.command, ()):
        if getattr(args, field, None) is None:
            raise UsageError(f"{args.command} requires --{field}")
    degree = getattr(args, "degree", None)
    if degree is not None and degree < 1:
        raise UsageError(f"--degree must be at least 1, got {degree!r}")
    for field in ("lattice", "umax", "step"):
        value = getattr(args, field, None)
        if value is not None and not 0.0 < value < np.inf:
            raise UsageError(f"--{field} must be finite and positive, got {value!r}")


if __name__ == "__main__":
    raise SystemExit(main())
