"""Fixed job lists of the benchmark workloads.

Every job is one `ruinkit` CLI invocation. The numeric case list is fixed so
that timings stay comparable from one commit to the next; the workload seed
only drives the Monte Carlo seeds.

Why each workload exists:

* tables: interactive and report use. Many short jobs (1-20 ms), so per-call
  overhead, transform inversion and small-lattice Panjer show. No fine
  lattices and no Monte Carlo.
* lattice: fine-lattice strict bounds and the cause decomposition. The
  O(n^2) Panjer, convolution and Volterra kernels are nearly all of the time;
  the ladder CDF is closed-form, so kernel work is isolated.
* gamma_ladder: non-integer gamma shapes, whose ladder CDF and density go
  through per-point quadrature while the lattices stay small.
* simulate: the Monte Carlo path loop alone, varying events per path and the
  claim sampler branch.
* smoke: a tiny list touching every layer, for the benchmark's own test.
"""

from __future__ import annotations

from dataclasses import dataclass

EXP = "lambda=1,theta=0.01,sigma=1,claims=exp:rate=1"
GAMMA = "lambda=1,theta=0.01,sigma=1,claims=gamma:shape=2,rate=2"
MIX = (
    "lambda=1,theta=0.01,sigma=1,"
    "claims=mexp:w=0.8881815,0.1078392,0.0039793;b=5.514588,0.190206,0.014631"
)
TABLE_METHODS = "exact,dg,4me,ren2,pkdv3,pkdv4,pkdv5,2pp,lundberg"
ERROR_METHODS = "dg,4me,ren2,pkdv3,pkdv4,pkdv5,2pp,lundberg"
APPROX_METHODS = ("4me", "ren2", "pkdv3", "pkdv4", "pkdv5", "2pp", "lundberg")

# more digits than the default 6 on `exact` jobs, so the 1e-7 closed-form
# check is not swamped by print rounding
EXACT_PRECISION = "10"


def _grid(values) -> str:
    return ",".join(f"{v:.6g}" for v in values)


U11 = _grid([0.1, 0.2, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 25.0, 50.0])
LIN200 = _grid(0.5 * k for k in range(1, 201))  # 0.5 .. 100
GEO200 = _grid(0.1 * 40000.0 ** (k / 199) for k in range(200))  # 0.1 .. 4000
U200 = _grid(range(1, 201))
U100 = _grid(range(1, 101))
U20 = _grid(0.5 * k for k in range(1, 41))


def model(sigma: float, theta: float, claims: str = "exp:rate=1") -> str:
    return f"lambda=1,theta={theta:g},sigma={sigma:g},claims={claims}"


@dataclass(frozen=True)
class Job:
    """One CLI call. `agrees_with` names a job whose numeric output must
    match this one's; `one_sided` marks a Monte Carlo estimate that is biased
    low by construction (finite horizon), so only an excess is a failure."""

    name: str
    argv: tuple[str, ...]
    agrees_with: str | None = None
    one_sided: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def model(self) -> str:
        return self.argv[self.argv.index("--model") + 1]

    @property
    def seeded(self) -> bool:
        return "--seed" in self.argv


def _table(name, spec, u=U11):
    return Job(name, ("table", "--model", spec, "--methods", TABLE_METHODS, "--lattice", "0.1", "--u", u))


def _exact(name, spec, u, inversion="talbot", agrees_with=None):
    argv = ("exact", "--model", spec, "--u", u, "--inversion", inversion, "--precision", EXACT_PRECISION)
    return Job(name, argv, agrees_with=agrees_with)


def _tables() -> list[Job]:
    jobs = [
        _table("table.exp.ref", EXP),
        _table("table.gamma", GAMMA),
        _table("table.mix", MIX),
        _table("table.exp.theta1", model(1, 1)),  # dg comes back NA with a warning
    ]
    for sigma in (0.5, 1.0, 2.0):
        for theta in (0.01, 0.1):
            if (sigma, theta) != (1.0, 0.01):  # that one is table.exp.ref
                jobs.append(_table(f"table.exp.s{sigma:g}.t{theta:g}", model(sigma, theta)))
    for tag, spec in (("exp", EXP), ("gamma", GAMMA), ("mix", MIX)):
        jobs.append(
            Job(f"errors.{tag}", ("errors", "--model", spec, "--methods", ERROR_METHODS, "--lattice", "0.1", "--u", LIN200))
        )
    for tag, spec in (("exp", EXP), ("mix", MIX)):
        jobs.append(_exact(f"exact.talbot.{tag}", spec, GEO200))
        jobs.append(_exact(f"exact.euler.{tag}", spec, LIN200, "euler", agrees_with=f"exact.talbot.{tag}.lin"))
        jobs.append(_exact(f"exact.talbot.{tag}.lin", spec, LIN200))
    jobs.append(_exact("exact.sigma0.exp", model(0, 0.1), LIN200))
    jobs.append(_exact("exact.sigma0.gamma", model(0, 0.1, "gamma:shape=2,rate=2"), LIN200))
    for tag, spec in (("exp", EXP), ("gamma", GAMMA), ("mix", MIX)):
        jobs.append(Job(f"coef.{tag}", ("coef", "--model", spec)))
    for tag, spec in (("exp", EXP), ("mix", MIX)):
        for method in APPROX_METHODS:
            jobs.append(Job(f"approx.{method}.{tag}", ("approx", "--model", spec, "--method", method, "--u", LIN200)))
    return jobs


def _lattice() -> list[Job]:
    return [
        Job("bounds.strict.exp.w0.005", ("bounds", "--model", EXP, "--lattice", "0.005", "--u", U200, "--convention", "strict")),
        Job("bounds.strict.mix.w0.005", ("bounds", "--model", MIX, "--lattice", "0.005", "--u", U200, "--convention", "strict")),
        Job("bounds.published.gamma.w0.01", ("bounds", "--model", GAMMA, "--lattice", "0.01", "--u", U100, "--convention", "published")),
        Job("decompose.exp.umax100", ("decompose", "--model", EXP, "--umax", "100")),
        Job("decompose.mix.umax100", ("decompose", "--model", MIX, "--umax", "100")),
    ]


def _gamma_ladder() -> list[Job]:
    def gamma(shape):
        return model(1, 0.01, f"gamma:shape={shape:g},rate={shape:g}")  # mean-1 claims

    return [
        Job("bounds.strict.gamma2.5.w0.05", ("bounds", "--model", gamma(2.5), "--lattice", "0.05", "--u", U20, "--convention", "strict")),
        Job("bounds.strict.gamma0.5.w0.05", ("bounds", "--model", gamma(0.5), "--lattice", "0.05", "--u", U20, "--convention", "strict")),
        Job("decompose.gamma1.5.umax5", ("decompose", "--model", gamma(1.5), "--umax", "5")),
    ]


def _simulate(seed: int) -> list[Job]:
    # (name, model, extra flags, biased low by the finite horizon): the
    # theta=0.01 case runs 2000 time units against a drift of 0.01, and the
    # mixture's default horizon of 50 cuts off late ruin by its heavy
    # component (about 40 se at 1e5 paths; horizon 500 removes it)
    cases = [
        ("sim.exp.theta1", model(1, 1), (), False),
        ("sim.exp.theta0.01.h2000", model(1, 0.01), ("--horizon", "2000"), True),
        ("sim.gamma0.5.theta1", model(1, 1, "gamma:shape=0.5,rate=0.5"), (), False),
        ("sim.mix.theta1", model(1, 1, MIX.split("claims=")[1]), (), True),
        ("sim.exp.sigma0", model(0, 1), (), False),
    ]
    return [
        Job(
            name,
            ("simulate", "--model", spec, "--u", "1", "--paths", "100000", "--seed", str(seed * 100 + i), *extra),
            one_sided=biased,
        )
        for i, (name, spec, extra, biased) in enumerate(cases)
    ]


def _smoke(seed: int) -> list[Job]:
    return [
        _table("smoke.table", EXP, "0.5,1,2"),
        _exact("smoke.exact", EXP, "0.5,1,2"),
        _exact("smoke.euler", EXP, "0.5,1,2", "euler", agrees_with="smoke.exact"),
        Job("smoke.coef", ("coef", "--model", EXP)),
        Job("smoke.bounds", ("bounds", "--model", EXP, "--lattice", "0.1", "--u", "1,2", "--convention", "strict")),
        Job("smoke.decompose", ("decompose", "--model", EXP, "--umax", "1")),
        Job("smoke.gamma", ("decompose", "--model", model(1, 0.01, "gamma:shape=1.5,rate=1.5"), "--umax", "0.1")),
        Job("smoke.simulate", ("simulate", "--model", model(1, 1), "--u", "1", "--paths", "2000", "--seed", str(seed))),
    ]


WORKLOADS = ("tables", "lattice", "gamma_ladder", "simulate", "smoke")


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The workload's jobs; the seed sets the Monte Carlo seeds."""
    if workload == "tables":
        return _tables()
    if workload == "lattice":
        return _lattice()
    if workload == "gamma_ladder":
        return _gamma_ladder()
    if workload == "simulate":
        return _simulate(seed)
    if workload == "smoke":
        return _smoke(seed)
    raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")
