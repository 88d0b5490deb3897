import importlib.util
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from microlie import matrices
from microlie.groupoids import AGSection, PairGroupoid, WSection, section_at
from microlie.harness import _RING_DOMAINS
from microlie.oracles import PolyVectorField
from microlie.poly import Poly
from microlie.spaces import AffineSpace, WPoint
from microlie.weil import (
    AXES2,
    D0,
    DomainMismatchError,
    InfinitesimalDomain,
    Jet,
    RestrictionError,
    SubstitutionError,
    WeilElement,
    ZeroMonomialError,
    generators,
    monomial_images,
)

D = InfinitesimalDomain(1)
D2 = InfinitesimalDomain(2)
D3 = InfinitesimalDomain(3)
A2 = InfinitesimalDomain.first_order(2)
W3 = InfinitesimalDomain(3, [(1, 3), (2, 3)])


def w(domain, coeffs):
    return WeilElement(domain, coeffs)


def permuted(a, perm):
    """``a`` with generator i relabelled ``perm[i-1]``: substitution by the permuted domain's generators."""
    target = a.domain.permuted(perm)
    return a.substitute(target, [WeilElement.generator(target, i) for i in perm])


class TestDomain:
    def test_named_constructors(self):
        assert D.generator_count == 1 and not D.zero_monomials
        assert D2.generator_count == 2 and not D2.zero_monomials
        assert A2.zero_monomials == frozenset({frozenset({1, 2})})
        assert W3.zero_monomials == frozenset({frozenset({1, 3}), frozenset({2, 3})})

    def test_minimal_antichain(self):
        dom = InfinitesimalDomain(3, [(1, 3), (1, 2, 3)])
        assert dom.zero_monomials == frozenset({frozenset({1, 3})})
        # upward closure via membership, not storage
        with pytest.raises(ZeroMonomialError):
            dom.mask_of({1, 2, 3})

    def test_singletons_rejected(self):
        with pytest.raises(ValueError):
            InfinitesimalDomain(2, [(1,)])

    def test_monomials_enumeration(self):
        assert set(W3.monomials()) == {
            frozenset(),
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
            frozenset({1, 2}),
        }
        assert W3.nilpotency_order == 3

    def test_one_object_per_presentation(self):
        assert InfinitesimalDomain(2, [(2, 1)]) is InfinitesimalDomain.first_order(2) is AXES2
        assert D3.permuted((3, 1, 2)) is D3
        assert InfinitesimalDomain(3, [[3, 2], (1, 3), (3, 2, 1), (2, 3)]) is W3
        with pytest.raises(TypeError):
            InfinitesimalDomain(2.0)  # not read as the interned D^2
        assert "__eq__" not in vars(InfinitesimalDomain) and "__hash__" not in vars(InfinitesimalDomain)


@st.composite
def presentations(draw):
    """``(n, relations, padded, other)`` with at most 4 generators.

    ``padded`` is ``relations`` shuffled (each relation's indices too) and
    padded with duplicates and redundant supersets; ``other`` is a second,
    independent relation list on the same generators.
    """
    n = draw(st.integers(0, 4))
    relation_lists = st.lists(st.frozensets(st.integers(1, n), min_size=2), max_size=4) if n >= 2 else st.just([])
    relations = draw(relation_lists)
    extra = []
    for z in relations:
        extra += [z] * draw(st.integers(0, 1))
        if draw(st.booleans()):
            extra.append(z | draw(st.frozensets(st.integers(1, n))))
    padded = [tuple(draw(st.permutations(sorted(z)))) for z in draw(st.permutations(relations + extra))]
    return n, relations, padded, draw(relation_lists)


@settings(max_examples=150, deadline=None)
@given(presentations(), st.data())
def test_domains_are_interned_and_answer_from_their_masks(case, data):
    n, relations, padded, other_relations = case
    dom = InfinitesimalDomain(n, relations)
    assert InfinitesimalDomain(n, padded) is dom
    perm = data.draw(st.permutations(range(1, n + 1)))
    moved = {frozenset(perm[i - 1] for i in z) for z in dom.zero_monomials}
    assert dom.permuted(perm) is InfinitesimalDomain(n, moved)
    assert (dom.permuted(perm) is dom) == (moved == dom.zero_monomials)
    # the scans mask_of replaces, rebuilt here
    for size in range(n + 2):
        for m in combinations(range(1, n + 2), size):
            if not all(1 <= i <= n for i in m):
                with pytest.raises(ValueError) as caught:
                    dom.mask_of(m)
                assert type(caught.value) is ValueError
            elif any(z <= set(m) for z in relations):
                with pytest.raises(ZeroMonomialError):
                    dom.mask_of(m)
            else:
                assert dom.mask_of(m) == sum(1 << (i - 1) for i in m)
    other = InfinitesimalDomain(n, other_relations)
    for a, b in ((dom, other), (other, dom), (dom, dom)):
        assert a.coarsens(b) == all(any(z <= y for z in a.zero_monomials) for y in b.zero_monomials)
    assert not dom.coarsens(InfinitesimalDomain(n + 1))


D13 = InfinitesimalDomain(3, [(1, 3)])


@pytest.mark.parametrize("domain", [D0, D, A2, D3, InfinitesimalDomain.first_order(3), D13], ids=repr)
def test_the_multiplication_table_lists_exactly_the_surviving_products(domain):
    table = domain._products
    assert set(table) == domain.masks
    masks = domain.masks
    for b1 in masks:
        assert table[b1] == {b2: b1 | b2 for b2 in masks if not b1 & b2 and b1 | b2 in masks}
    # the same table from monomials: mask_of rejects a repeated generator and a vanishing monomial
    for m1 in domain.monomials():
        for m2 in domain.monomials():
            b1, b2 = domain.mask_of(m1), domain.mask_of(m2)
            try:
                product = domain.mask_of((*m1, *m2))
            except ZeroMonomialError:
                assert b2 not in table[b1]
            else:
                assert table[b1][b2] == product


def test_the_point_multiplies_only_its_scalars():
    assert D0._products == {0: {0: 0}}


def _brute_product(a, b):
    """``a * b`` from frozenset monomials: disjoint monomials whose union contains no relation multiply."""
    out = {}
    for m1, c1 in a.coeffs.items():
        for m2, c2 in b.coeffs.items():
            m = m1 | m2
            if not m1 & m2 and not any(z <= m for z in a.domain.zero_monomials):
                out[m] = out.get(m, 0) + c1 * c2
    return WeilElement(a.domain, out)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([W3, D13]).flatmap(lambda d: st.tuples(elements(d), elements(d))))
def test_products_agree_with_a_brute_force_product(pair):
    a, b = pair
    assert a * b == _brute_product(a, b)


class TestArithmetic:
    def test_add(self):
        d = WeilElement.generator(D, 1)
        assert w(D, {(): 2}) + 3 * d + (w(D, {(): 1}) - d) == w(D, {(): 3, (1,): 2})

    def test_add_identity(self):
        x = w(D2, {(): 1, (1, 2): -4})
        assert x + WeilElement.zero(D2) == x

    def test_add_over_first_order(self):
        d1, d2 = generators(A2)
        assert d1 + d2 == w(A2, {(1,): 1, (2,): 1})

    def test_mul_square_zero(self):
        d = WeilElement.generator(D, 1)
        a = w(D, {(): 2}) + 3 * d
        b = w(D, {(): 5}) + 7 * d
        assert a * b == w(D, {(): 10, (1,): 29})

    def test_mul_distributes_across_generators(self):
        d1, d2 = generators(D2)
        a = WeilElement.one(D2) + 2 * d1
        b = w(D2, {(): 3}) + d2
        assert a * b == w(D2, {(): 3, (1,): 6, (2,): 1, (1, 2): 2})

    def test_mul_kills_zero_monomial(self):
        d1, d2 = generators(A2)
        assert (WeilElement.one(A2) + d1) * (WeilElement.one(A2) + d2) == w(
            A2, {(): 1, (1,): 1, (2,): 1}
        )

    def test_scale(self):
        d = WeilElement.generator(D, 1)
        assert 3 * (WeilElement.one(D) + d) == w(D, {(): 3, (1,): 3})
        assert 0 * w(D2, {(1,): 5}) == WeilElement.zero(D2)
        assert -1 * w(D2, {(1,): 1, (1, 2): 1}) == w(D2, {(1,): -1, (1, 2): -1})

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatchError):
            WeilElement.one(D) + WeilElement.one(D2)
        with pytest.raises(DomainMismatchError):
            WeilElement.one(D) * WeilElement.one(A2)


_EXACT_EDGES = {
    "WeilElement": lambda v: WeilElement(D, {(): v}),
    "WeilElement.scalar": lambda v: WeilElement.scalar(D, v),
    "WeilElement.from_masks": lambda v: WeilElement.from_masks(D, {0: v}),
    "Poly": lambda v: Poly(1, {(1,): v}),
    "AGSection.scaled": lambda v: AGSection.zero(PairGroupoid(1)).scaled(v),
    "rational_rows": lambda v: matrices.rational_rows(((v,),)),
}


@pytest.mark.parametrize("value", [0.1, "1/3", Decimal("0.1")], ids=["float", "str", "Decimal"])
@pytest.mark.parametrize("edge", sorted(_EXACT_EDGES))
def test_coefficients_must_be_exact(edge, value):
    with pytest.raises(TypeError):
        _EXACT_EDGES[edge](value)


class TestRestrict:
    def test_kills_new_zeros(self):
        x = w(D2, {(): 1, (1,): 1, (1, 2): 5})
        assert x.restrict(A2) == w(A2, {(): 1, (1,): 1})

    def test_same_domain_identity(self):
        x = w(D2, {(1, 2): 7})
        assert x.restrict(D2) == x

    def test_to_restricted_cube(self):
        x = w(D3, {(1, 3): 1})
        assert x.restrict(W3) == WeilElement.zero(W3)

    def test_illegal_coarsening(self):
        with pytest.raises(RestrictionError):
            w(A2, {(1,): 1}).restrict(D2)  # D^2 does not coarsen D(2)


class TestSubstitute:
    def test_linear_into_first_order(self):
        a = w(D, {(): 4, (1,): 5})
        d1, d2 = generators(A2)
        assert a.substitute(A2, [d1 + d2]) == w(A2, {(): 4, (1,): 5, (2,): 5})

    def test_cube_generator_to_product(self):
        c = Fraction(3, 2)
        a = w(W3, {(3,): c})
        d1, d2 = generators(D2)
        assert a.substitute(D2, [d1, d2, d1 * d2]) == w(D2, {(1, 2): c})

    def test_invalid_map_names_relation(self):
        a = w(D, {(): 2, (1,): 3})
        d1, d2 = generators(D2)
        with pytest.raises(SubstitutionError, match="d1\\^2"):
            a.substitute(D2, [d1 + d2])

    def test_nonzero_scalar_part_rejected(self):
        a = w(D, {(1,): 1})
        with pytest.raises(SubstitutionError, match="scalar part"):
            a.substitute(D2, [WeilElement.one(D2)])

    def test_zero_monomial_relation_checked(self):
        a = w(W3, {(1,): 1})
        d1, d2, d3 = generators(D3)
        with pytest.raises(SubstitutionError, match="d1\\*d3"):
            a.substitute(D3, [d1, d2, d3])


class TestCoefficient:
    def test_lookup(self):
        x = w(D2, {(): 3, (1,): 6, (1, 2): 2})
        assert x.coefficient({1, 2}) == 2
        assert x.coefficient(()) == 3
        assert WeilElement.zero(D2).coefficient({1}) == 0

    def test_zero_monomial_errors(self):
        with pytest.raises(ZeroMonomialError):
            WeilElement.one(A2).coefficient({1, 2})
        with pytest.raises(ZeroMonomialError):
            WeilElement(A2, {(1, 2): 1})

    def test_a_repeated_generator_vanishes(self):
        # every generator squares to zero, so d1*d1 is no name for d1
        assert D2.mask_of(iter([2, 1])) == 3  # a one-shot iterable is read once
        for domain, monomial, name in [(D2, (2, 2), "d2*d2"), (D2, iter([1, 1]), "d1*d1"), (D3, [1, 2, 1], "d1*d1*d2")]:
            with pytest.raises(ZeroMonomialError) as caught:
                domain.mask_of(monomial)
            assert str(caught.value) == f"monomial {name} vanishes in {domain!r}"
        with pytest.raises(ZeroMonomialError, match="d1\\*d1"):
            w(D2, {(1,): 2}).coefficient((1, 1))
        with pytest.raises(ZeroMonomialError, match="d1\\*d1"):
            WPoint(AffineSpace(1), D2, {(): [1], (1, 1): [5]})

    def test_a_monomial_given_twice_is_rejected(self):
        for twice in [{(1,): 2, frozenset({1}): 3}, {(1, 2): 1, (2, 1): 1}]:
            with pytest.raises(ValueError, match="^a monomial is given twice$"):
                w(D2, twice)
            with pytest.raises(ValueError, match="^a monomial is given twice$"):
                WPoint(AffineSpace(1), D2, {m: [c] for m, c in twice.items()})

    def test_permute_generators(self):
        x = w(D3, {(1,): 1, (2, 3): 5})
        y = permuted(x, (2, 3, 1))
        assert y == w(D3, {(2,): 1, (1, 3): 5})


DOMAINS = (D, D2, A2, D3, W3)


def elements(domain):
    monos = domain.monomials()
    coeff = st.integers(min_value=-4, max_value=4)
    return st.fixed_dictionaries({m: coeff for m in monos}).map(lambda c: WeilElement(domain, c))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(DOMAINS).flatmap(lambda d: st.tuples(elements(d), elements(d), elements(d))))
def test_ring_laws(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(elements(A2), elements(A2), st.integers(-3, 3), st.integers(-3, 3))
def test_substitution_is_homomorphism(a, b, r1, r2):
    d = WeilElement.generator(D, 1)
    images = [r1 * d, r2 * d]  # valid: the product of the images vanishes since d^2 = 0
    assert (a * b).substitute(D, images) == a.substitute(D, images) * b.substitute(D, images)
    assert (a + b).substitute(D, images) == a.substitute(D, images) + b.substitute(D, images)


@settings(max_examples=40, deadline=None)
@given(elements(D3))
def test_restrict_composes(a):
    mid = InfinitesimalDomain(3, [(1, 2)])
    coarse = InfinitesimalDomain.first_order(3)
    assert a.restrict(mid).restrict(coarse) == a.restrict(coarse)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(DOMAINS).flatmap(elements))
def test_generator_squares_vanish(a):
    domain = a.domain
    for g in generators(domain):
        assert not (g * g)
    for z in domain.zero_monomials:
        prod = WeilElement.one(domain)
        for i in sorted(z):
            prod = prod * WeilElement.generator(domain, i)
        assert not prod


class TestImmutability:
    def test_coeffs_is_read_only(self):
        x = WeilElement.one(D)
        with pytest.raises(TypeError):
            x.coeffs[frozenset()] = 5
        with pytest.raises(TypeError):
            del x.coeffs[frozenset()]
        assert x == WeilElement.one(D)

    def test_coeffs_speaks_monomials_and_fractions(self):
        x = w(D2, {(): Fraction(1, 2), (2, 1): 3})
        assert dict(x.coeffs) == {frozenset(): Fraction(1, 2), frozenset({1, 2}): Fraction(3)}
        assert all(type(c) is Fraction for c in x.coeffs.values())
        assert x.coeffs == x.coeffs  # built from the jet on each read
        with pytest.raises(TypeError):
            x.coeffs[frozenset({1})] = 1
        assert dict(x.coeffs) == {frozenset(): Fraction(1, 2), frozenset({1, 2}): Fraction(3)}

    def test_equal_values_hash_equally(self):
        a, b = w(D2, {(): 2, (1,): 1}), w(D2, {(2,): Fraction(1, 3)})
        pairs = [
            (a * b, b * a),
            (w(D2, {(1, 2): Fraction(2, 4)}), w(D2, {(2, 1): Fraction(1, 2)})),
            (w(D2, {(1,): 1, (2,): 1}) - w(D2, {(2,): 1}), WeilElement.generator(D2, 1)),
            (WeilElement.one(InfinitesimalDomain(2)), WeilElement.one(D2)),
            (a * Fraction(1, 2), w(D2, {(): 1, (1,): Fraction(1, 2)})),
        ]
        for x, y in pairs:
            assert x == y and hash(x) == hash(y)
        assert len({x for pair in pairs for x in pair}) == len(pairs)


READ_ONLY_TYPES = (
    "InfinitesimalDomain", "Jet", "WeilElement", "Poly", "WPoint",
    "WSection", "WBisection", "AGSection", "PolyVectorField",
)


def _read_only_instance(name):
    """An instance of the read-only type ``name``, with one of its fields."""
    d = WeilElement.generator(D, 1)
    point = WPoint(AffineSpace(2), D, {(): (1, 2), (1,): (0, Fraction(1, 2))})
    pair = PairGroupoid(1)
    x = AGSection(pair, [Poly.variable(1, 0)])
    return {
        "InfinitesimalDomain": lambda: (D2, "masks"),
        "Jet": lambda: (Jet(D, {0: (1,), 1: (2,)}, 3), "den"),
        "WeilElement": lambda: (d, "jet"),
        "Poly": lambda: (Poly.variable(2, 0), "nvars"),
        "WPoint": lambda: (point, "parts"),
        "WSection": lambda: (WSection(pair, D, pair.identity_data(D)), "data"),
        "WBisection": lambda: (section_at(x, d), "data"),
        "AGSection": lambda: (x, "data"),
        "PolyVectorField": lambda: (PolyVectorField(x.data[0]), "components"),
    }[name]()


@pytest.mark.parametrize("name", READ_ONLY_TYPES)
def test_read_only_types_refuse_to_set_or_delete_an_attribute(name):
    obj, field = _read_only_instance(name)
    assert type(obj).__name__ == name and not hasattr(obj, "__dict__")
    value = getattr(obj, field)
    message = f"^{name} is immutable$"
    with pytest.raises(AttributeError, match=message):
        setattr(obj, field, value)
    with pytest.raises(AttributeError, match=message):
        delattr(obj, field)
    with pytest.raises(AttributeError, match=message):
        obj.extra = 1
    assert getattr(obj, field) is value


def _rebuilt(obj):
    """A copy of ``obj`` set field by field (a domain, being interned, from its constructor).

    ``_hash``, the slot where a ``Poly`` or a ``Jet`` keeps its hash once
    computed, is not a field and is the one slot skipped.
    """
    if isinstance(obj, InfinitesimalDomain):
        return InfinitesimalDomain(obj.generator_count, obj.zero_monomials)
    copy = object.__new__(type(obj))
    for cls in type(obj).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            if slot != "_hash":
                object.__setattr__(copy, slot, getattr(obj, slot))
    return copy


@pytest.mark.parametrize("name", READ_ONLY_TYPES)
def test_read_only_types_hash_consistently_with_equality(name):
    (obj, _), (apart, _) = _read_only_instance(name), _read_only_instance(name)
    before = _rebuilt(obj)  # made before the original's first hash
    first = hash(obj)
    after = _rebuilt(obj)
    assert obj == apart == before == after
    assert first == hash(apart) == hash(before) == hash(after) == hash(obj)


@pytest.mark.parametrize("name", ["Poly", "Jet", "WeilElement", "WSection"])
def test_a_value_hashes_once_and_keeps_its_hash(name):
    obj, _ = _read_only_instance(name)
    holder = obj.jet if name == "WeilElement" else obj.data if name == "WSection" else obj
    assert isinstance(holder, (Poly, Jet)) and not hasattr(holder, "_hash")
    first = hash(obj)
    assert hasattr(holder, "_hash") and hash(obj) == first
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        setattr(obj, "_hash", 0)
    assert hash(obj) == first


def test_integer_rationals_stay_integers():
    jet = Jet.of_rationals(D2, {0: (1, -2), 3: (0, 5)})
    assert jet == Jet(D2, {0: (1, -2), 3: (0, 5)})
    assert all(type(n) is int for part in jet.values() for n in part)
    # a bool or a Fraction still goes through Fraction, to the same jet as before
    mixed = Jet.of_rationals(D2, {0: (True, Fraction(1, 2)), 1: (False, Fraction(-3))})
    assert mixed == Jet(D2, {0: (2, 1), 1: (0, -6)}, 2)
    assert all(type(n) is int for part in mixed.values() for n in part)
    for bad in (1.0, "1", None):
        message = f"coefficients must be int or Fraction, not {type(bad).__name__}: {bad!r}"
        with pytest.raises(TypeError) as caught:
            Jet.of_rationals(D, {0: (1, bad)})
        assert str(caught.value) == message


def test_monomial_images_maps_each_surviving_mask_to_its_image():
    d = WeilElement.generator(D, 1)
    table = monomial_images(D2, D, [d, WeilElement.zero(D)])
    assert table == {0: WeilElement.one(D), 1: d, 2: WeilElement.zero(D), 3: WeilElement.zero(D)}


@pytest.mark.parametrize(
    "source, target, images, error, message",
    [
        (D, D2, [WeilElement.generator(D2, 1) + WeilElement.generator(D2, 2)], SubstitutionError,
         "relation d1^2 = 0 violated: image squares to 2*d1*d2"),
        (A2, D2, list(generators(D2)), SubstitutionError, "relation d1*d2 = 0 violated: image is d1*d2"),
        (D, D2, [WeilElement.generator(D, 1)], DomainMismatchError, "image of d1 lives in D, not D^2"),
    ],
    ids=["square", "relation", "domain"],
)
def test_a_broken_substitution_raises_the_same_error_on_every_call(source, target, images, error, message):
    for _ in range(2):
        with pytest.raises(error) as caught:
            monomial_images(source, target, images)
        assert str(caught.value) == message
        with pytest.raises(error) as caught:
            WeilElement.one(source).substitute(target, images)
        assert str(caught.value) == message


# -- differential test against the frozen seed kernel ------------------------------------


def _load_reference_kernel():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "weil.py"
    spec = importlib.util.spec_from_file_location("microlie_reference_weil", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REF = _load_reference_kernel()


def _twin(domain):
    return REF.InfinitesimalDomain(domain.generator_count, domain.zero_monomials)


def _agree(new, ref):
    assert new.domain.generator_count == ref.domain.generator_count
    assert new.domain.zero_monomials == ref.domain.zero_monomials
    for m in new.domain.monomials():
        assert new.coefficient(m) == ref.coefficient(m)
    assert dict(new.coeffs) == ref.coeffs
    assert str(new) == str(ref)


RATIONAL = st.one_of(
    st.just(0),
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


def coefficient_tables(domain, nilpotent_only=False):
    monos = [m for m in domain.monomials() if m or not nilpotent_only]
    return st.fixed_dictionaries({m: RATIONAL for m in monos})


def pairs_over(domain):
    """Elements of ``domain`` built by both kernels from the same coefficients."""
    return coefficient_tables(domain).map(lambda c: (WeilElement(domain, c), REF.WeilElement(_twin(domain), c)))


def restriction_targets(domain):
    n = domain.generator_count
    targets = [domain, InfinitesimalDomain.first_order(n)]
    if n == 3:
        targets.append(InfinitesimalDomain(3, [(1, 3), (2, 3), (1, 2)]))
    return [t for t in targets if t.coarsens(domain)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_RING_DOMAINS).flatmap(lambda d: st.tuples(pairs_over(d), pairs_over(d), RATIONAL)))
def test_kernel_agrees_with_the_seed_kernel(case):
    (a, ra), (b, rb), c = case
    _agree(a, ra)
    _agree(a * b, ra * rb)
    _agree(a + b, ra + rb)
    _agree(a - b, ra - rb)
    _agree(-a, -ra)
    _agree(a * Fraction(c), ra * Fraction(c))
    _agree(Fraction(c) * a, Fraction(c) * ra)
    assert (a == b) == (ra == rb) and bool(a) == bool(ra)
    for sub in restriction_targets(a.domain):
        _agree(a.restrict(sub), ra.restrict(_twin(sub)))
    for perm in permutations(range(1, a.domain.generator_count + 1)):
        _agree(permuted(a, perm), ra.permute_generators(perm))


def substitution_cases(domain):
    n = domain.generator_count
    images = st.lists(coefficient_tables(domain, nilpotent_only=True), min_size=n, max_size=n)
    return st.tuples(pairs_over(domain), images)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_RING_DOMAINS).flatmap(substitution_cases))
def test_substitution_agrees_with_the_seed_kernel(case):
    # random nilpotent images in the element's own domain: some respect the
    # relations and some do not, and both kernels must give the same verdict
    (a, ra), tables = case
    domain = a.domain
    images = [WeilElement(domain, t) for t in tables]
    ref_images = [REF.WeilElement(_twin(domain), t) for t in tables]
    try:
        expected = ra.substitute(_twin(domain), ref_images)
    except REF.SubstitutionError as exc:
        with pytest.raises(SubstitutionError) as caught:
            a.substitute(domain, images)
        assert str(caught.value) == str(exc)
    else:
        _agree(a.substitute(domain, images), expected)
    # scaled generators always respect the relations
    scales = [t.get(frozenset({i + 1})) or 1 for i, t in enumerate(tables)]
    gens = [WeilElement.generator(domain, i + 1) * s for i, s in enumerate(scales)]
    ref_gens = [REF.WeilElement.generator(_twin(domain), i + 1) * s for i, s in enumerate(scales)]
    _agree(a.substitute(domain, gens), ra.substitute(_twin(domain), ref_gens))
