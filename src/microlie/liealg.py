"""The Lie algebra on sections of the Lie algebroid of a groupoid.

The bracket of two sections X, Y is carried by the commutator microsquare

    lambda(d1, d2) = Y_{-d2} * X_{-d1} * Y_{d2} * X_{d1}

which restricts to the identity on D(2) = {d1*d2 = 0}, the union of both
axes, so its whole content is the ``d1*d2`` coefficient; extracting that
coefficient and re-reading it as section data realizes [X, Y].  The same
extraction pattern yields the Lie derivative and the pushforward, the
adjoint action of a bisection over the point ``D0`` (no infinitesimal
part).  A second, independent route to the bracket goes through microcubes
built from flow products and the strong-difference calculus of
:mod:`microlie.spaces`.

Sign conventions follow the commutator word above: on the pair groupoid
the bracket agrees with the classical vector-field bracket
``(D eta) xi - (D xi) eta``; on the gauge groupoid it is the reversed
matrix commutator ``x -> Y(x) X(x) - X(x) Y(x)``.  Both are pinned by the
degeneration oracles, not chosen here.
"""

from __future__ import annotations

from typing import Sequence

from .groupoids import (
    AGSection,
    GroupoidMismatchError,
    SectionChart,
    WBisection,
    WSection,
    _memo,
    invert_bisection,
    section_at,
    ag_from_flow,
    star,
    star_word,
)
from .spaces import InternalInvariantError, strong_difference
from .weil import AXES2, D0, D2, LINE, InfinitesimalDomain, WeilElement, generators

WITNESS_DOMAIN = InfinitesimalDomain(3, [(1, 3), (2, 3)])


class AxisCheckError(InternalInvariantError):
    """A microsquare that must restrict to the identity on the axes does not."""


# -- the commutator microsquare and the bracket ----------------------------------------


def _check_axes(section: WSection, label: str) -> None:
    """Verify a D^2-parametrized section restricts to the identity on D(2), the union of both axes."""
    if section.restrict(AXES2) != WSection.identity(section.groupoid, AXES2):
        raise AxisCheckError(f"{label} does not restrict to the identity on {AXES2!r}")


def commutator_square(x: AGSection, y: AGSection) -> WBisection:
    """The microsquare Y_{-d2} * X_{-d1} * Y_{d2} * X_{d1}, checked on both axes."""
    if x.groupoid != y.groupoid:
        raise GroupoidMismatchError("sections of different groupoids")
    d1, d2 = generators(D2)
    word = star_word(
        section_at(y, -d2),
        section_at(x, -d1),
        section_at(y, d2),
        section_at(x, d1),
    )
    _check_axes(word, "commutator square")
    return word


def _extract_top_coefficient(section: WSection) -> AGSection:
    """Read the d1*d2 coefficient of a D^2 section as Lie algebroid data."""
    return AGSection(section.groupoid, section.groupoid.read_coefficient(section.data, {1, 2}))


@_memo
def bracket(x: AGSection, y: AGSection) -> AGSection:
    """The Lie bracket, read off the commutator microsquare."""
    return _extract_top_coefficient(commutator_square(x, y))


# -- pushforward and Lie derivative ------------------------------------------------------


def pushforward(sigma: WSection, x: AGSection) -> AGSection:
    """The adjoint action of a bisection over ``D0``: d -> sigma * X_d * sigma^-1, re-read as section data."""
    if sigma.groupoid != x.groupoid:
        raise GroupoidMismatchError("bisection and section of different groupoids")
    if sigma.domain is not D0:
        raise ValueError(f"pushforward needs a bisection over the point {D0!r}, not over {sigma.domain!r}")
    sigma_line = sigma.substitute(LINE, [])  # constant over D: the pullback along D -> D0
    (d,) = generators(LINE)
    flow = section_at(x, d)
    conjugated = star_word(sigma_line, flow, invert_bisection(sigma_line))
    return ag_from_flow(conjugated)


def lie_derivative(x: AGSection, y: AGSection) -> AGSection:
    """L_X Y via the flow difference ((X_{-d})* Y - Y)_{d'} over D^2.

    Tangent difference is realized as (A - B)_d = A_d * B_{-d}; both axes
    of the resulting microsquare vanish and the d*d' coefficient is the
    derivative.
    """
    if x.groupoid != y.groupoid:
        raise GroupoidMismatchError("sections of different groupoids")
    d, dp = generators(D2)
    word = star_word(
        section_at(x, -d),
        section_at(y, dp),
        section_at(x, d),
        section_at(y, -dp),
    )
    _check_axes(word, "Lie derivative square")
    return _extract_top_coefficient(word)


# -- flow microcubes -----------------------------------------------------------------------


def circledast(sections: Sequence[AGSection]) -> WBisection:
    """The flow cube (d1..dn) -> (Xn)_{dn} * ... * (X1)_{d1}.

    ``sections[i]`` couples to generator ``i+1``; the last section is the
    outermost factor.  Up to four factors are supported.
    """
    n = len(sections)
    if not 1 <= n <= 4:
        raise ValueError("flow cubes support 1 to 4 sections")
    groupoid = sections[0].groupoid
    if any(s.groupoid != groupoid for s in sections):
        raise GroupoidMismatchError("sections of different groupoids")
    factors = [section_at(s, d) for s, d in zip(sections, generators(InfinitesimalDomain(n)))]
    return star_word(*reversed(factors))


SIX_KEYS = ("123", "132", "213", "231", "312", "321")


def six_microcubes(x: AGSection, y: AGSection, z: AGSection) -> dict[str, WBisection]:
    """The six cubes g_abc, keyed ``"abc"`` in ``SIX_KEYS`` order, by permuting flow cubes of X, Y, Z.

    Equivalently g_abc(d1,d2,d3) = V_c * V_b * V_a with V1 = X_{d1},
    V2 = Y_{d2}, V3 = Z_{d3}.
    """
    v = {"1": x, "2": y, "3": z}
    cubes = {}
    for key in SIX_KEYS:
        cube = circledast([v[a] for a in key])
        cubes[key] = cube if key == "123" else cube.permute_generators(tuple(int(a) for a in key))
    return cubes


# -- the strong-difference route to the bracket ----------------------------------------------


def bracket_via_strong_difference(x: AGSection, y: AGSection) -> AGSection:
    """[X, Y] as the strong difference of Y (*) X and the swapped X (*) Y cube."""
    if x.groupoid != y.groupoid:
        raise GroupoidMismatchError("sections of different groupoids")
    plus = circledast([x, y])  # (d1, d2) -> Y_{d2} * X_{d1}
    minus = circledast([y, x]).permute_generators((2, 1))  # (d1, d2) -> X_{d1} * Y_{d2}
    chart, (plus_point, minus_point) = SectionChart.of(plus, minus)
    t = strong_difference(plus_point, minus_point)
    return ag_from_flow(chart.to_section(t.point))


def lambda_witness(x: AGSection, y: AGSection) -> WBisection:
    """The witness X_{d1} * [X,Y]_{d3} * Y_{d2} on the cube domain with d1*d3 = d2*d3 = 0.

    Verifies by generator substitution that setting d3 = 0 gives
    X_{d1} * Y_{d2}, that setting d3 = d1*d2 gives Y_{d2} * X_{d1}, and
    that freezing d1 = d2 = 0 recovers the bracket flow.
    """
    if x.groupoid != y.groupoid:
        raise GroupoidMismatchError("sections of different groupoids")
    b = bracket(x, y)
    d1, d2, d3 = generators(WITNESS_DOMAIN)
    witness = star_word(section_at(x, d1), section_at(b, d3), section_at(y, d2))

    e1, e2 = generators(D2)
    zero2 = WeilElement.zero(D2)
    swapped = witness.substitute(D2, [e1, e2, zero2])
    if swapped != star(section_at(x, e1), section_at(y, e2)):
        raise InternalInvariantError("witness at d3 = 0 is not X_{d1} * Y_{d2}")
    closed = witness.substitute(D2, [e1, e2, e1 * e2])
    if closed != star(section_at(y, e2), section_at(x, e1)):
        raise InternalInvariantError("witness at d3 = d1*d2 is not Y_{d2} * X_{d1}")
    (d,) = generators(LINE)
    zero1 = WeilElement.zero(LINE)
    if witness.substitute(LINE, [zero1, zero1, d]) != section_at(b, d):
        raise InternalInvariantError("witness at (0, 0, d) is not the bracket flow")
    return witness
