"""Unit tests for solution mappings and result sets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import estimate_size
from repro.rdf import IRI, BlankNode, Literal, Variable
from repro.sparql import Binding, ResultSet

X, Y, Z = Variable("x"), Variable("y"), Variable("z")
A, B, C = IRI("http://x/a"), IRI("http://x/b"), IRI("http://x/c")


class TestBinding:
    def test_construction_from_mapping(self):
        binding = Binding({X: A, Y: B})
        assert binding[X] == A
        assert binding.get(Z) is None
        assert len(binding) == 2

    def test_contains_and_variables(self):
        binding = Binding({X: A})
        assert X in binding
        assert Z not in binding
        assert binding.variables == {X}

    def test_equality_and_hash(self):
        assert Binding({X: A, Y: B}) == Binding({Y: B, X: A})
        assert len({Binding({X: A}), Binding({X: A})}) == 1

    def test_project(self):
        binding = Binding({X: A, Y: B})
        assert binding.project([X]) == Binding({X: A})
        assert binding.project([Z]) == Binding({})

    def test_project_keeping_everything_is_the_binding_itself(self):
        binding = Binding({X: A, Y: B})
        assert binding.project([X, Y]) is binding
        assert binding.project([Y, X, Z]) is binding
        assert binding.project([X]) is not binding

    def test_every_construction_form_is_the_same_value(self):
        from_dict = Binding({X: A, Y: B})
        forms = [Binding(frozenset({(X, A), (Y, B)})), Binding([(Y, B), (X, A)]), Binding(iter([(X, A), (Y, B)]))]
        for form in forms:
            assert form == from_dict
            assert hash(form) == hash(from_dict)

    def test_compatible_with_shared_variable(self):
        assert Binding({X: A}).compatible_with(Binding({X: A, Y: B}))
        assert not Binding({X: A}).compatible_with(Binding({X: B}))

    def test_compatible_with_disjoint_variables(self):
        assert Binding({X: A}).compatible_with(Binding({Y: B}))

    def test_merge(self):
        merged = Binding({X: A}).merge(Binding({Y: B}))
        assert merged == Binding({X: A, Y: B})


class TestResultSet:
    def test_add_extend_len(self):
        results = ResultSet()
        results.add(Binding({X: A}))
        results.extend([Binding({X: B})])
        assert len(results) == 2
        assert bool(results)

    def test_variables_inferred_from_bindings(self):
        results = ResultSet([Binding({X: A, Y: B})])
        assert set(results.variables) == {X, Y}

    def test_project_with_distinct(self):
        results = ResultSet([Binding({X: A, Y: B}), Binding({X: A, Y: C})])
        projected = results.project([X], distinct=True)
        assert len(projected) == 1

    def test_project_without_distinct_keeps_duplicates(self):
        results = ResultSet([Binding({X: A, Y: B}), Binding({X: A, Y: C})])
        assert len(results.project([X])) == 2

    def test_distinct(self):
        results = ResultSet([Binding({X: A}), Binding({X: A})])
        assert len(results.distinct()) == 1

    def test_limit(self):
        results = ResultSet([Binding({X: A}), Binding({X: B})])
        assert len(results.limit(1)) == 1
        assert len(results.limit(None)) == 2

    def test_same_solutions_ignores_order(self):
        left = ResultSet([Binding({X: A}), Binding({X: B})])
        right = ResultSet([Binding({X: B}), Binding({X: A})])
        assert left.same_solutions(right)

    def test_same_solutions_detects_difference(self):
        left = ResultSet([Binding({X: A})])
        right = ResultSet([Binding({X: B})])
        assert not left.same_solutions(right)

    def test_to_table(self):
        results = ResultSet([Binding({X: A, Y: Literal("v")})])
        rows = results.to_table()
        assert rows == [{"x": A.n3(), "y": '"v"'}]

    def test_to_table_follows_the_declared_variable_order(self):
        results = ResultSet([Binding({X: A, Y: B, Z: C})], variables=[Z, X, Y])
        assert [list(row) for row in results.to_table()] == [["z", "x", "y"]]

    def test_to_table_appends_undeclared_variables_by_name(self):
        results = ResultSet([Binding({X: A, Y: B, Z: C}), Binding({Y: C})], variables=[Y])
        assert [list(row) for row in results.to_table()] == [["y", "x", "z"], ["y"]]
        assert results.to_table()[0] == {"x": A.n3(), "y": B.n3(), "z": C.n3()}

    def test_inferred_variables_are_in_name_order(self):
        results = ResultSet([Binding({Z: A, X: B}), Binding({Y: C})])
        assert results.variables == (X, Z, Y)


XSD_INT = IRI("http://www.w3.org/2001/XMLSchema#integer")


class TestShipmentSize:
    """A shipped solution is charged its ``repr`` length without being printed."""

    @pytest.mark.parametrize(
        "binding",
        [
            Binding(),
            Binding({X: A}),
            Binding({X: Literal('say "hi"\n\tand\\leave')}),
            Binding({X: Literal("chat", language="fr"), Y: Literal("42", datatype=XSD_INT)}),
            Binding({X: BlankNode("b7"), Y: A, Variable("long_name"): Literal("")}),
            Binding({X: Literal("café ✓")}),
        ],
        ids=["empty", "one-iri", "escaped", "tagged-and-typed", "blank-and-empty", "non-ascii"],
    )
    def test_size_is_the_repr_length(self, binding):
        assert binding.shipment_size() == len(repr(binding))
        assert estimate_size(binding) == len(repr(binding))
        assert estimate_size([binding, binding]) == 4 + 2 * len(repr(binding))


TERMS = st.one_of(
    st.text(max_size=12).map(lambda text: IRI("http://x/" + text)),
    st.builds(Literal, st.text(max_size=12)),
    st.builds(Literal, st.text(max_size=12), language=st.sampled_from(["fr", "en-GB"])),
    st.builds(Literal, st.text(max_size=12), datatype=st.just(XSD_INT)),
    st.text(alphabet="abz019", min_size=1, max_size=6).map(BlankNode),
)
VARIABLES = st.sampled_from([X, Y, Z, Variable("long_name"), Variable("é")])


@st.composite
def row_sets(draw):
    """Columns (a name may repeat, as in ``SELECT ?x ?x``) and rows that fit them."""
    columns = draw(st.lists(VARIABLES, max_size=5))
    names = list(dict.fromkeys(columns))
    cells = st.lists(st.one_of(st.none(), TERMS), min_size=len(names), max_size=len(names))
    rows = [
        tuple(dict(zip(names, drawn))[column] for column in columns)
        for drawn in draw(st.lists(cells, max_size=4))
    ]
    return ResultSet(variables=columns, rows=rows)


class TestRowCharge:
    """A row-form result set is charged what shipping its bindings was charged."""

    @given(row_sets())
    @settings(max_examples=100, deadline=None)
    def test_charge_is_the_bindings_repr_length(self, results):
        bindings = list(results)
        assert len(bindings) == len(results.rows)
        assert results.shipment_size() == 4 + sum(len(repr(binding)) for binding in bindings)
        assert estimate_size(results) == estimate_size(bindings)

    def test_unbound_duplicate_and_empty_rows(self):
        results = ResultSet(
            variables=[X, X, Y],
            rows=[(A, A, None), (None, None, Literal('"q"\n', language="fr")), (None, None, None)],
        )
        bindings = list(results)
        assert bindings == [Binding({X: A}), Binding({Y: Literal('"q"\n', language="fr")}), Binding()]
        assert results.shipment_size() == 4 + sum(len(repr(binding)) for binding in bindings)
        assert ResultSet(variables=[], rows=[()]).shipment_size() == 4 + len(repr(Binding()))
