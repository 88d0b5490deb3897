"""Deterministic randomized verification suites with machine-readable reports.

Each suite is a list of laws; each law runs a configured number of trials
generated from a pinned PRNG (CPython's Mersenne Twister seeded with the
string ``"{seed}|{suite}|{law}|{trial}"``), so a given build reproduces
its own runs bit for bit.  Every comparison is exact rational equality;
a precondition failure inside a law counts as a suite failure and is
reported with a serialized counterexample.  Each trial runs in a memo of its
own (``groupoids._memoised``), which the trial's end drops.

To add a law, define a function ``(env, trial) -> None`` and decorate it
with ``@law(suite, name, anchor)``.  A report lists a suite's laws in the
order they are defined in this module.  Draw trial data from
``env.triple(trial)`` or ``env.rng(trial)``; the runner sets ``env.law`` to
the law's name.  That name is the ``{law}`` part of the seed string.
Renaming a law therefore changes the data its trials see, and so its
report.  A law that needs a second independent stream asks for
``env.rng(trial, "<name>-<purpose>")``.  Take every bracket from
``env.bracket_fn``, so that ``--mutate`` reaches it.  A law fails by
raising ``LawViolation(**counterexample)``; the runner adds the trial index.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Callable

from . import liealg
from .groupoids import (
    AGSection,
    GroupoidInstance,
    PairGroupoid,
    SectionChart,
    TrivialGaugeGroupoid,
    WBisection,
    WSection,
    _memoised,
    _not_int,
    _rand_element,
    _rand_int,
    compose_arrows,
    invert_bisection,
    section_at,
    star,
)
from .spaces import (
    AffineSpace,
    MembershipError,
    Tangent,
    WPoint,
    relative_strong_difference,
    relative_strong_difference_curried,
    strong_difference,
    tangent_combine,
)
from .weil import AXES2, D0, D2, D3, LINE, SCALAR, InfinitesimalDomain, WeilElement, generators, monomial_images

SUITE_IDS = ("flows", "module", "bracket", "liederiv", "strongdiff", "jacobi2", "oracle")
MUTATIONS = ("none", "flip-bracket-sign")
# one trial of --suite all on the slowest accepted config, pair:dim=3:deg=3, took about 1.9 s on a
# 2-CPU machine, so the largest accepted run ends in about half an hour
MAX_TRIALS = 1000


class ConfigError(ValueError):
    """A suite configuration violates the documented bounds."""


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    groupoid: GroupoidInstance
    degree: int = 2
    trials: int = 25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.suite not in SUITE_IDS and self.suite != "all":
            raise ConfigError(f"unknown suite {self.suite!r}; expected one of {('all',) + SUITE_IDS}")
        if problem := _not_int(trials=self.trials, seed=self.seed, degree=self.degree):
            raise ConfigError(problem)
        if not 0 <= self.trials <= MAX_TRIALS:
            raise ConfigError(f"trials must be between 0 and {MAX_TRIALS}, got {self.trials}")
        if not isinstance(self.groupoid, GroupoidInstance):
            raise ConfigError(f"unknown groupoid {self.groupoid!r}")
        problem = self.groupoid.bounds_error(self.degree)
        if problem:
            raise ConfigError(problem)

    @property
    def groupoid_spec(self) -> str:
        return self.groupoid.spec(self.degree)


def parse_groupoid_spec(text: str) -> tuple[GroupoidInstance, int]:
    """Parse 'pair:dim=N:deg=D' or 'gauge:base=M:k=K' into an instance + degree."""
    parts = text.split(":")
    kind = parts[0]
    options: dict[str, int] = {}
    for piece in parts[1:]:
        if "=" not in piece:
            raise ConfigError(f"malformed groupoid option {piece!r} in {text!r}")
        key, _, value = piece.partition("=")
        if key in options:
            raise ConfigError(f"repeated groupoid option {key!r} in {text!r}")
        # ASCII digits only: int() would also take other scripts' digits, spaces and underscores
        if not re.fullmatch("-?[0-9]+", value):
            raise ConfigError(f"non-integer value in groupoid option {piece!r}")
        options[key] = int(value)
    if kind == "pair":
        dim = options.pop("dim", 2)
        degree = options.pop("deg", 2)
        if options:
            raise ConfigError(f"unknown pair-groupoid options {sorted(options)}")
        return PairGroupoid(dim), degree
    if kind == "gauge":
        base = options.pop("base", 2)
        k = options.pop("k", 2)
        if options:
            raise ConfigError(f"unknown gauge-groupoid options {sorted(options)}")
        return TrivialGaugeGroupoid(base, k), 0
    raise ConfigError(f"unknown groupoid kind {kind!r}; expected 'pair' or 'gauge'")


# -- reporting -----------------------------------------------------------------------


@dataclass
class CaseRecord:
    law: str
    anchor: str
    status: str  # "pass" | "fail"
    counterexample: dict | None = None

    def to_dict(self) -> dict:
        out = {"law": self.law, "anchor": self.anchor, "status": self.status}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


@dataclass
class Report:
    suite: str
    groupoid: str
    seed: int
    trials: int
    cases: list[CaseRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.cases)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "groupoid": self.groupoid,
            "seed": self.seed,
            "trials": self.trials,
            "cases": [c.to_dict() for c in self.cases],
            "ok": self.ok,
        }

    def to_text(self) -> str:
        lines = [f"suite {self.suite} on {self.groupoid} (seed {self.seed}, {self.trials} trials/law)"]
        for c in self.cases:
            mark = "PASS" if c.status == "pass" else "FAIL"
            lines.append(f"  {mark}  {c.law}  [{c.anchor}]")
            if c.counterexample:
                for key, value in c.counterexample.items():
                    lines.append(f"        {key}: {value}")
        lines.append("ok" if self.ok else "FAILED")
        return "\n".join(lines)


class LawViolation(Exception):
    """A law failed; ``details`` is the counterexample, every value as a string."""

    def __init__(self, **data) -> None:
        self.details = {key: str(value) for key, value in data.items()}
        super().__init__(str(self.details))


# -- law environment and registry ---------------------------------------------------------------


BracketFn = Callable[[AGSection, AGSection], AGSection]


@dataclass
class LawEnv:
    config: SuiteConfig
    suite: str
    bracket_fn: BracketFn
    law: str = ""  # set by run_suite before each law's trials

    def rng(self, trial: int, stream: str | None = None) -> random.Random:
        """The trial's generator; ``stream`` names a second one in place of the law."""
        return random.Random(f"{self.config.seed}|{self.suite}|{stream or self.law}|{trial}")

    def triple(self, trial: int) -> tuple[AGSection, AGSection, AGSection]:
        """Deterministic trial data: three Lie algebroid sections.

        Trials 0 and 1 are pinned degenerate strata (all zero; all equal);
        the rest are independent samples.
        """
        cfg = self.config
        rng = self.rng(trial)
        if trial == 0:
            z = AGSection.zero(cfg.groupoid)
            return z, z, z
        if trial == 1:
            s = cfg.groupoid.random_ag(rng, cfg.degree)
            return s, s, s
        x, y, z = (cfg.groupoid.random_ag(rng, cfg.degree) for _ in range(3))
        return x, y, z

    def section(self, rng: random.Random, domain: InfinitesimalDomain) -> WSection:
        cfg = self.config
        return cfg.groupoid.random_section(rng, domain, cfg.degree)

    def bisection(self, rng: random.Random, domain: InfinitesimalDomain) -> WBisection:
        cfg = self.config
        return cfg.groupoid.random_bisection(rng, domain, cfg.degree)


LawFn = Callable[[LawEnv, int], None]


@dataclass(frozen=True)
class Law:
    name: str
    anchor: str
    run: LawFn


SUITES: dict[str, list[Law]] = {suite: [] for suite in SUITE_IDS}


def law(suite: str, name: str, anchor: str) -> Callable[[LawFn], LawFn]:
    """Register the decorated function as a law of ``suite``; reports list laws in definition order."""

    def register(run: LawFn) -> LawFn:
        SUITES[suite].append(Law(name, anchor, run))
        return run

    return register


# -- flow laws -------------------------------------------------------------------------------


@law("flows", "flow-zero", "flow law: the flow at 0 is the identity section")
def _law_flow_zero(env: LawEnv, trial: int) -> None:
    x, _, _ = env.triple(trial)
    flow = section_at(x, WeilElement.zero(LINE))
    if flow != WSection.identity(x.groupoid, LINE):
        raise LawViolation(X=x, flow=flow)


@law("flows", "flow-additivity", "flow law: additivity over the commuting square")
def _law_flow_additivity(env: LawEnv, trial: int) -> None:
    x, _, _ = env.triple(trial)
    d1, d2 = generators(AXES2)
    combined = section_at(x, d1 + d2)
    split = star(section_at(x, d1), section_at(x, d2))
    if combined != split:
        raise LawViolation(X=x, combined=combined, split=split)


@law("flows", "flow-inverse", "inverse law: X_d * X_{-d} = id")
def _law_flow_inverse(env: LawEnv, trial: int) -> None:
    x, _, _ = env.triple(trial)
    (d,) = generators(LINE)
    ident = WSection.identity(x.groupoid, LINE)
    if star(section_at(x, d), section_at(x, -d)) != ident:
        raise LawViolation(X=x, side="right")
    if star(section_at(x, -d), section_at(x, d)) != ident:
        raise LawViolation(X=x, side="left")


@law("flows", "bisection-inverse", "inverse law: invert(X_d) = X_{-d}")
def _law_bisection_inverse(env: LawEnv, trial: int) -> None:
    x, _, _ = env.triple(trial)
    (d,) = generators(LINE)
    if invert_bisection(section_at(x, d)) != section_at(x, -d):
        raise LawViolation(X=x)


# -- module laws -----------------------------------------------------------------------------


@law("module", "addition-flow", "module law: (X+Y)_d = X_d * Y_d = Y_d * X_d")
def _law_addition_flow(env: LawEnv, trial: int) -> None:
    x, y, _ = env.triple(trial)
    (d,) = generators(LINE)
    combined = section_at(x + y, d)
    xy = star(section_at(x, d), section_at(y, d))
    yx = star(section_at(y, d), section_at(x, d))
    if combined != xy or combined != yx:
        raise LawViolation(X=x, Y=y, combined=combined, xy=xy, yx=yx)


@law("module", "infinitesimal-commutation", "module law: X_{d1} and Y_{d2} commute on the commuting square")
def _law_infinitesimal_commutation(env: LawEnv, trial: int) -> None:
    x, y, _ = env.triple(trial)
    d1, d2 = generators(AXES2)
    if star(section_at(x, d1), section_at(y, d2)) != star(section_at(y, d2), section_at(x, d1)):
        raise LawViolation(X=x, Y=y)


@law("module", "scaling-flow", "module law: (aX)_d = X_{ad}")
def _law_scaling_flow(env: LawEnv, trial: int) -> None:
    x, _, _ = env.triple(trial)
    a = _rand_int(env.rng(trial, "scaling-flow-coeff"))
    (d,) = generators(LINE)
    if section_at(x.scaled(a), d) != section_at(x, a * d):
        raise LawViolation(X=x, a=a)


@law("module", "two-sided-inverse", "bisection group law: sigma and its inverse compose to id both ways")
def _law_two_sided_inverse(env: LawEnv, trial: int) -> None:
    rng = env.rng(trial)
    sigma = env.bisection(rng, D2)
    tau = invert_bisection(sigma)
    ident = WSection.identity(sigma.groupoid, D2)
    if star(sigma, tau) != ident or star(tau, sigma) != ident:
        raise LawViolation(sigma=sigma)


@law("module", "star-defining-formula", "section product: (sigma*rho)(x) = sigma(beta(rho(x))) . rho(x)")
def _law_star_defining_formula(env: LawEnv, trial: int) -> None:
    rng = env.rng(trial)
    sigma = env.section(rng, D2)
    rho = env.section(rng, D2)
    product = star(sigma, rho)
    for x in env.config.groupoid.base_points(rng, D2):
        rho_arrow = rho.arrow_at(x)
        if product.arrow_at(x) != compose_arrows(sigma.arrow_at(rho_arrow.target), rho_arrow):
            raise LawViolation(sigma=sigma, rho=rho, at=x)


@law("module", "star-associativity", "section monoid: associativity and identity")
def _law_star_associativity(env: LawEnv, trial: int) -> None:
    rng = env.rng(trial)
    a = env.section(rng, D2)
    b = env.section(rng, D2)
    c = env.section(rng, D2)
    if star(star(a, b), c) != star(a, star(b, c)):
        raise LawViolation(a=a, b=b, c=c)
    ident = WSection.identity(env.config.groupoid, D2)
    if star(ident, a) != a or star(a, ident) != a:
        raise LawViolation(a=a, detail="identity law")


@law("module", "beta-functoriality", "target maps compose: beta(sigma*rho) = beta(sigma) o beta(rho)")
def _law_beta_functoriality(env: LawEnv, trial: int) -> None:
    rng = env.rng(trial)
    sigma = env.section(rng, D2)
    rho = env.section(rng, D2)
    product = star(sigma, rho)
    for x in env.config.groupoid.base_points(rng, D2):
        if product.arrow_at(x).target != sigma.arrow_at(rho.arrow_at(x).target).target:
            raise LawViolation(sigma=sigma, rho=rho, at=x)


_RING_DOMAINS = (LINE, D2, AXES2, D3, liealg.WITNESS_DOMAIN)


@law("module", "ring-laws", "engine: exact ring laws of the nilpotent algebra")
def _law_ring_laws(env: LawEnv, trial: int) -> None:
    rng = env.rng(trial)
    domain = _RING_DOMAINS[trial % len(_RING_DOMAINS)]
    a, b, c = (WeilElement.from_masks(domain, _rand_element(rng, domain)) for _ in range(3))
    checks = {
        "add-assoc": (a + b) + c == a + (b + c),
        "add-comm": a + b == b + a,
        "mul-assoc": (a * b) * c == a * (b * c),
        "mul-comm": a * b == b * a,
        "distrib": a * (b + c) == a * b + a * c,
        "zero": a + WeilElement.zero(domain) == a,
        "one": a * WeilElement.one(domain) == a,
    }
    gens = generators(domain)
    for i, g in enumerate(gens, start=1):
        checks[f"square d{i}"] = not (g * g)
    for z in domain.zero_monomials:
        prod = WeilElement.one(domain)
        for i in sorted(z):
            prod = prod * gens[i - 1]
        checks[f"zero monomial {sorted(z)}"] = not prod
    bad = [name for name, holds in checks.items() if not holds]
    if bad:
        raise LawViolation(domain=domain, a=a, b=b, c=c, failed=bad)


def _substitution_maps(rng: random.Random):
    """A few relation-respecting generator substitutions with random weights."""
    r = lambda: _rand_int(rng)
    (d,) = generators(LINE)
    d1, d2 = generators(D2)
    e1, e2 = generators(AXES2)
    yield LINE, D2, [d1 * r() + d1 * d2 * r()]
    yield LINE, AXES2, [e1 * r() + e2 * r()]
    yield AXES2, LINE, [d * r(), d * r()]
    yield D2, D2, [d1 * r(), d2 * r() + d1 * d2 * r()]


@law("module", "substitution-homomorphism", "engine: generator substitution is an algebra homomorphism")
def _law_substitution_homomorphism(env: LawEnv, trial: int) -> None:
    rng = env.rng(trial)
    for source, target, images in _substitution_maps(rng):
        table = monomial_images(source, target, images)
        a, b = (WeilElement.from_masks(source, _rand_element(rng, source)) for _ in range(2))
        mul_ok = (a * b).image(table) == a.image(table) * b.image(table)
        add_ok = (a + b).image(table) == a.image(table) + b.image(table)
        if not (mul_ok and add_ok):
            raise LawViolation(source=source, target=target, a=a, b=b)


@law("module", "restriction-composition", "engine: coarsening twice equals coarsening once")
def _law_restriction_composition(env: LawEnv, trial: int) -> None:
    rng = env.rng(trial)
    mid = InfinitesimalDomain(3, [(1, 2)])
    coarse = InfinitesimalDomain.first_order(3)
    a = WeilElement.from_masks(D3, _rand_element(rng, D3))
    if a.restrict(mid).restrict(coarse) != a.restrict(coarse):
        raise LawViolation(a=a)
    if a.restrict(D3) != a:
        raise LawViolation(a=a, detail="restrict to same domain is not the identity")


# -- bracket laws ------------------------------------------------------------------------------


@law("bracket", "commutator-axes", "commutator square restricts to id on both axes")
def _law_commutator_axes(env: LawEnv, trial: int) -> None:
    x, y, _ = env.triple(trial)
    liealg.commutator_square(x, y)  # raises AxisCheckError on failure


@law("bracket", "bracket-definition", "bracket flow at d1*d2 equals the commutator square")
def _law_bracket_definition(env: LawEnv, trial: int) -> None:
    x, y, _ = env.triple(trial)
    b = env.bracket_fn(x, y)
    d1, d2 = generators(D2)
    d1d2 = d1 * d2
    if section_at(b, d1d2) != liealg.commutator_square(x, y):
        raise LawViolation(X=x, Y=y, bracket=b)


@law("bracket", "bracket-scaling", "Lie algebra law: [aX,Y] = a[X,Y]")
def _law_bracket_scaling(env: LawEnv, trial: int) -> None:
    x, y, _ = env.triple(trial)
    a = _rand_int(env.rng(trial, "bracket-scaling-coeff"))
    if env.bracket_fn(x.scaled(a), y) != env.bracket_fn(x, y).scaled(a):
        raise LawViolation(X=x, Y=y, a=a)


@law("bracket", "bracket-additivity", "Lie algebra law: [X+Y,Z] = [X,Z] + [Y,Z]")
def _law_bracket_additivity(env: LawEnv, trial: int) -> None:
    x, y, z = env.triple(trial)
    lhs = env.bracket_fn(x + y, z)
    rhs = env.bracket_fn(x, z) + env.bracket_fn(y, z)
    if lhs != rhs:
        raise LawViolation(X=x, Y=y, Z=z, lhs=lhs, rhs=rhs)


@law("bracket", "bracket-antisymmetry", "Lie algebra law: [X,Y] = -[Y,X]")
def _law_bracket_antisymmetry(env: LawEnv, trial: int) -> None:
    x, y, _ = env.triple(trial)
    if env.bracket_fn(x, y) != -env.bracket_fn(y, x):
        raise LawViolation(X=x, Y=y)


@law("bracket", "jacobi-identity", "Lie algebra law: the Jacobi identity")
def _law_jacobi_identity(env: LawEnv, trial: int) -> None:
    x, y, z = env.triple(trial)
    b = env.bracket_fn
    total = b(x, b(y, z)) + b(y, b(z, x)) + b(z, b(x, y))
    if total != AGSection.zero(env.config.groupoid):
        raise LawViolation(X=x, Y=y, Z=z, total=total)


# -- Lie derivative laws --------------------------------------------------------------------------


@law("liederiv", "lie-derivative-equals-bracket", "Lie derivative theorem: L_X Y = [X,Y]")
def _law_lie_derivative_equals_bracket(env: LawEnv, trial: int) -> None:
    x, y, _ = env.triple(trial)
    lhs = liealg.lie_derivative(x, y)
    rhs = env.bracket_fn(x, y)
    if lhs != rhs:
        raise LawViolation(X=x, Y=y, lie_derivative=lhs, bracket=rhs)


@law("liederiv", "leibniz-rule", "Leibniz rule: L_X[Y,Z] = [L_X Y, Z] + [Y, L_X Z]")
def _law_leibniz_rule(env: LawEnv, trial: int) -> None:
    x, y, z = env.triple(trial)
    b = env.bracket_fn
    lhs = liealg.lie_derivative(x, b(y, z))
    rhs = b(liealg.lie_derivative(x, y), z) + b(y, liealg.lie_derivative(x, z))
    if lhs != rhs:
        raise LawViolation(X=x, Y=y, Z=z, lhs=lhs, rhs=rhs)


@law("liederiv", "pushforward-identity", "pushforward along the identity bisection")
def _law_pushforward_identity(env: LawEnv, trial: int) -> None:
    x, _, _ = env.triple(trial)
    ident = WSection.identity(env.config.groupoid, D0)
    if liealg.pushforward(ident, x) != x:
        raise LawViolation(X=x)


@law("liederiv", "pushforward-bracket", "pushforward distributes over the bracket")
def _law_pushforward_bracket(env: LawEnv, trial: int) -> None:
    _, y, z = env.triple(trial)
    rng = env.rng(trial, "pushforward-bracket-bisection")
    sigma = env.bisection(rng, D0)
    lhs = liealg.pushforward(sigma, env.bracket_fn(y, z))
    rhs = env.bracket_fn(liealg.pushforward(sigma, y), liealg.pushforward(sigma, z))
    if lhs != rhs:
        raise LawViolation(sigma=sigma, Y=y, Z=z, lhs=lhs, rhs=rhs)


@law("liederiv", "derived-jacobi", "Jacobi identity, Leibniz form")
def _law_derived_jacobi(env: LawEnv, trial: int) -> None:
    x, y, z = env.triple(trial)
    b = env.bracket_fn
    lhs = b(x, b(y, z))
    rhs = b(b(x, y), z) + b(y, b(x, z))
    if lhs != rhs:
        raise LawViolation(X=x, Y=y, Z=z, lhs=lhs, rhs=rhs)


# -- strong difference laws --------------------------------------------------------------------------


def _rand_vec(rng: random.Random, n: int) -> list[int]:
    return [_rand_int(rng) for _ in range(n)]


def _is_scalar_point(space, vec: list[int]) -> bool:
    """Whether the integer flat coordinates ``vec`` are a point of the space."""
    try:
        space.check(vec)
    except MembershipError:
        return False
    return True


def _rand_square_family(rng: random.Random, space, count: int) -> list[WPoint]:
    """Microsquares over D^2 sharing everything except the top coefficient."""
    n = space.flat_dim
    base, a1, a2 = (_rand_vec(rng, n) for _ in range(3))
    while not _is_scalar_point(space, base):
        base = _rand_vec(rng, n)
    low = {SCALAR: base, frozenset({1}): a1, frozenset({2}): a2}
    return [
        WPoint(space, D2, {**low, frozenset({1, 2}): _rand_vec(rng, n)})
        for _ in range(count)
    ]


@law("strongdiff", "cocycle-identity", "cocycle law for microsquare differences")
def _law_cocycle_identity(env: LawEnv, trial: int) -> None:
    rng = env.rng(trial)
    for space in env.config.groupoid.sample_spaces():
        g1, g2, g3 = _rand_square_family(rng, space, 3)
        total = tangent_combine(
            tangent_combine(strong_difference(g1, g2), strong_difference(g2, g3)),
            strong_difference(g3, g1),
        )
        if not total.is_zero:
            raise LawViolation(space=space, total=total)


@law("strongdiff", "axis-recovery", "strong difference recovers the top coefficient")
def _law_axis_recovery(env: LawEnv, trial: int) -> None:
    rng = env.rng(trial)
    for space in env.config.groupoid.sample_spaces():
        gamma = _rand_square_family(rng, space, 1)[0]
        flattened = WPoint(space, D2, {m: gamma.coefficient(m) for m in AXES2.monomials()})
        t = strong_difference(gamma, flattened)
        if t.direction != gamma.coefficient({1, 2}):
            raise LawViolation(space=space, gamma=gamma, tangent=t)


def _rand_cube_pair(rng: random.Random, space, axis: int) -> tuple[WPoint, WPoint]:
    """Microcubes over D^3 agreeing away from the two non-axis generators."""
    j, k = sorted({1, 2, 3} - {axis})
    side, top = frozenset({j, k}), frozenset({1, 2, 3})
    dim = space.flat_dim
    shared = {m: _rand_vec(rng, dim) for m in D3.monomials()}
    while not _is_scalar_point(space, shared[SCALAR]):
        shared[SCALAR] = _rand_vec(rng, dim)
    deltas = {side: _rand_vec(rng, dim), top: _rand_vec(rng, dim)}
    minus = dict(shared)
    for m, delta in deltas.items():
        minus[m] = [c - d for c, d in zip(shared[m], delta)]
    return WPoint(space, D3, shared), WPoint(space, D3, minus)


@law(
    "strongdiff",
    "relative-difference-equivalence",
    "relativized difference: coefficient rule vs curried definition",
)
def _law_relative_difference_equivalence(env: LawEnv, trial: int) -> None:
    rng = env.rng(trial)
    for space in env.config.groupoid.sample_spaces():
        for axis in (1, 2, 3):
            plus, minus = _rand_cube_pair(rng, space, axis)
            fast = relative_strong_difference(axis, plus, minus)
            slow = relative_strong_difference_curried(axis, plus, minus)
            if fast != slow:
                raise LawViolation(space=space, axis=axis, plus=plus, minus=minus)


def _rand_compatible_six(rng: random.Random) -> dict[str, WPoint]:
    """Six microcubes in 3-space satisfying all well-definedness preconditions.

    The agreement constraints leave free: the shared low coefficients, one
    pair of values for each two-generator monomial ``di*dj``, i < j (a cube
    takes the second when j comes before i in its key), and six independent
    top coefficients.
    """
    def rand_vec():
        return _rand_vec(rng, 3)

    shared = {m: rand_vec() for m in (frozenset(), frozenset({1}), frozenset({2}), frozenset({3}))}
    c12 = (rand_vec(), rand_vec())
    c23 = (rand_vec(), rand_vec())
    c13 = (rand_vec(), rand_vec())
    tops = {key: rand_vec() for key in liealg.SIX_KEYS}
    return {
        key: WPoint(
            AffineSpace(3),
            D3,
            {
                **shared,
                frozenset({1, 2}): c12[int(key.index("1") > key.index("2"))],
                frozenset({2, 3}): c23[int(key.index("2") > key.index("3"))],
                frozenset({1, 3}): c13[int(key.index("1") > key.index("3"))],
                frozenset({1, 2, 3}): tops[key],
            },
        )
        for key in liealg.SIX_KEYS
    }


def _general_jacobi_expressions(cubes: dict[str, WPoint]) -> tuple[Tangent, Tangent, Tangent]:
    e1 = strong_difference(
        relative_strong_difference(1, cubes["123"], cubes["132"]),
        relative_strong_difference(1, cubes["231"], cubes["321"]),
    )
    e2 = strong_difference(
        relative_strong_difference(2, cubes["231"], cubes["213"]),
        relative_strong_difference(2, cubes["312"], cubes["132"]),
    )
    e3 = strong_difference(
        relative_strong_difference(3, cubes["312"], cubes["321"]),
        relative_strong_difference(3, cubes["123"], cubes["213"]),
    )
    return e1, e2, e3


@law("strongdiff", "general-jacobi-random", "general Jacobi law on compatible six-tuples of microcubes")
def _law_general_jacobi_random(env: LawEnv, trial: int) -> None:
    rng = env.rng(trial)
    cubes = _rand_compatible_six(rng)
    e1, e2, e3 = _general_jacobi_expressions(cubes)
    total = tangent_combine(tangent_combine(e1, e2), e3)
    if not total.is_zero:
        raise LawViolation(total=total, **cubes)


# -- second Jacobi route ------------------------------------------------------------------------------


@law("jacobi2", "sigma-convention", "permutation action: the pinned argument convention on flow cubes")
def _law_sigma_convention(env: LawEnv, trial: int) -> None:
    x, y, z = env.triple(trial)
    cubes = liealg.six_microcubes(x, y, z)
    d1, d2, d3 = generators(D3)
    flows = {1: section_at(x, d1), 2: section_at(y, d2), 3: section_at(z, d3)}
    for key, cube in cubes.items():
        a, b, c = (int(ch) for ch in key)
        word = star(flows[c], star(flows[b], flows[a]))
        if cube != word:
            raise LawViolation(X=x, Y=y, Z=z, cube=key)


@law("jacobi2", "lambda-witness", "second Jacobi route: witness on the restricted cube domain")
def _law_lambda_witness(env: LawEnv, trial: int) -> None:
    x, y, _ = env.triple(trial)
    liealg.lambda_witness(x, y)  # substitution checks run inside


@law(
    "jacobi2",
    "bracket-strong-difference",
    "second Jacobi route: [X,Y] as a strong difference of flow squares",
)
def _law_bracket_strong_difference(env: LawEnv, trial: int) -> None:
    x, y, _ = env.triple(trial)
    via_difference = liealg.bracket_via_strong_difference(x, y)
    via_commutator = env.bracket_fn(x, y)
    if via_difference != via_commutator:
        raise LawViolation(X=x, Y=y, difference_route=via_difference, commutator_route=via_commutator)


def _six_cube_tangents(b: BracketFn, x, y, z):
    cubes = liealg.six_microcubes(x, y, z)
    nested = (b(x, b(y, z)), b(y, b(z, x)), b(z, b(x, y)))
    (d,) = generators(LINE)
    _, points = SectionChart.of(*cubes.values(), *(section_at(n, d) for n in nested))
    expressions = _general_jacobi_expressions(dict(zip(cubes, points)))
    targets = tuple(Tangent(p) for p in points[-3:])
    return expressions, targets


@law("jacobi2", "six-cube-identities", "second Jacobi route: the three nested-bracket identities")
def _law_six_cube_identities(env: LawEnv, trial: int) -> None:
    x, y, z = env.triple(trial)
    expressions, targets = _six_cube_tangents(env.bracket_fn, x, y, z)
    labels = ("[X,[Y,Z]]", "[Y,[Z,X]]", "[Z,[X,Y]]")
    for label, expr, target in zip(labels, expressions, targets):
        if expr != target:
            raise LawViolation(X=x, Y=y, Z=z, identity=label, expression=expr, bracket=target)


@law("jacobi2", "six-cube-jacobi", "general Jacobi law on the six flow cubes")
def _law_six_cube_jacobi(env: LawEnv, trial: int) -> None:
    x, y, z = env.triple(trial)
    expressions, _ = _six_cube_tangents(env.bracket_fn, x, y, z)
    total = tangent_combine(tangent_combine(expressions[0], expressions[1]), expressions[2])
    if not total.is_zero:
        raise LawViolation(X=x, Y=y, Z=z, total=total)


# -- degeneration oracles ------------------------------------------------------------------------------


@law("oracle", "oracle-self-consistency", "classical oracle: antisymmetry and Jacobi hold")
def _law_oracle_self_consistency(env: LawEnv, trial: int) -> None:
    x, y, z = env.triple(trial)
    g = env.config.groupoid

    def br(a: AGSection, b: AGSection) -> AGSection:
        return AGSection(g, g.oracle_bracket(a.data, b.data))

    anti = br(x, y) == -br(y, x)
    jac = br(x, br(y, z)) + br(y, br(z, x)) + br(z, br(x, y)) == AGSection.zero(g)
    if not (anti and jac):
        raise LawViolation(X=x, Y=y, Z=z, antisymmetry=anti, jacobi=jac)


@law("oracle", "bracket-degeneration", "degeneration: groupoid bracket equals the classical bracket")
def _law_bracket_degeneration(env: LawEnv, trial: int) -> None:
    x, y, _ = env.triple(trial)
    ours = env.bracket_fn(x, y)
    expected = env.config.groupoid.oracle_bracket(x.data, y.data)  # the oracle's own value, printed below
    if ours != AGSection(env.config.groupoid, expected):
        raise LawViolation(X=x, Y=y, groupoid_bracket=ours, classical=expected)


# -- runner --------------------------------------------------------------------------------------------


def _mutated_bracket(x: AGSection, y: AGSection) -> AGSection:
    return liealg.bracket(x, y).scaled(-1)


def run_suite(config: SuiteConfig, mutation: str = "none") -> Report:
    """Execute every law of the configured suite; exact equality throughout."""
    if mutation not in MUTATIONS:
        raise ConfigError(f"unknown mutation {mutation!r}; expected one of {MUTATIONS}")
    bracket_fn = _mutated_bracket if mutation == "flip-bracket-sign" else liealg.bracket
    suite_ids = SUITE_IDS if config.suite == "all" else (config.suite,)
    report = Report(config.suite, config.groupoid_spec, config.seed, config.trials)
    for suite_id in suite_ids:
        env = LawEnv(config, suite_id, bracket_fn)
        for entry in SUITES[suite_id] if config.trials else ():
            env.law = entry.name
            counterexample = _first_counterexample(entry.run, env, config.trials)
            status = "pass" if counterexample is None else "fail"
            report.cases.append(CaseRecord(entry.name, entry.anchor, status, counterexample))
    return report


def _first_counterexample(run: LawFn, env: LawEnv, trials: int) -> dict | None:
    for trial in range(trials):
        try:
            with _memoised():
                run(env, trial)
        except LawViolation as violation:
            return {"trial": trial, **violation.details}
        except Exception as exc:  # precondition failures are suite failures
            return {"trial": trial, "error": f"{type(exc).__name__}: {exc}"}
    return None
