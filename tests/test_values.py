"""Value semantics of ftig's record classes.

Every record compares equal to another of the same class with equal
fields, hashes as its field tuple, prints each field in its repr, and
copies with one field replaced.  Records of different classes never
compare equal, even with the same field values.
"""

import pytest

from ftig.algebra import Generator, Interface, service
from ftig.architecture import (
    ArchitectureReport, ArchMember, ComplianceReport, TransferEvent, Violation,
)
from ftig.catalog import Catalog, EntityDecl
from ftig.errors import SourcePosition
from ftig.locglob import Decomposition
from ftig.reflection import Residual
from ftig.speclang.astnodes import (
    ArchitectureDef, ArchMemberDef, CheckDirective, CondExpr, EntityItem, ExprNode,
    GenExpr, InterfaceDef, Item, NameItem, NegExpr, RefExpr, RefineDef,
    RenameDef, ScaleExpr, SpecModule, SumExpr, ZeroExpr,
)
from ftig.speclang.resolver import Diagnostic, Resolution
from ftig.transform import (
    AssignmentReport, ConditionalInterface, ConditionLiteral, RefinementSpec, RenameMap,
)


def pos(line=1, col=1):
    return SourcePosition(line, col, "v.fti")


def gen_expr():
    return GenExpr(pos=pos(), polarity="service", target="e", action="a", motive=("m",),
                   host=None, alpha="TF")


def zero_residual():
    return Residual(canonical=Interface.zero())


# one keyword-built instance of each record class, made fresh on each call
RECORDS = {
    # speclang.astnodes
    ExprNode: lambda: ExprNode(pos=pos()),
    ZeroExpr: lambda: ZeroExpr(pos=pos()),
    RefExpr: lambda: RefExpr(pos=pos(), name="I"),
    GenExpr: gen_expr,
    NegExpr: lambda: NegExpr(pos=pos(), inner=gen_expr()),
    ScaleExpr: lambda: ScaleExpr(pos=pos(), factor=2, inner=gen_expr()),
    SumExpr: lambda: SumExpr(pos=pos(), parts=((1, gen_expr()), (-1, ZeroExpr(pos(2))))),
    CondExpr: lambda: CondExpr(pos=pos(), then=gen_expr(), variable="c", negated=True,
                               otherwise=ZeroExpr(pos())),
    Item: lambda: Item(pos=pos()),
    EntityItem: lambda: EntityItem(pos=pos(), name="e",
                                   children=(EntityItem(pos(2), "e:c"),), extern=False),
    NameItem: lambda: NameItem(pos=pos(), kind="action", name="a", extern=True),
    InterfaceDef: lambda: InterfaceDef(pos=pos(), name="I", scope_annotation="local",
                                       monoid=False, expr=gen_expr()),
    ArchMemberDef: lambda: ArchMemberDef(pos=pos(), entity="e", contained=True,
                                         expr=RefExpr(pos(), "I")),
    ArchitectureDef: lambda: ArchitectureDef(
        pos=pos(), name="A", members=(ArchMemberDef(pos(2), "e", False, ZeroExpr(pos(2))),)),
    CheckDirective: lambda: CheckDirective(pos=pos(), kind="closed", target="A"),
    RefineDef: lambda: RefineDef(pos=pos(), name="J", source="I", coarse="e",
                                 parts=("p", "q")),
    RenameDef: lambda: RenameDef(pos=pos(), name="J", source="I", entity_map=(("e", "f"),),
                                 action_map=(), motive_map=(("m", "n"),)),
    SpecModule: lambda: SpecModule(items=[NameItem(pos(), "condition", "c")]),
    # architecture
    ArchMember: lambda: ArchMember(entity="e", interface=ConditionalInterface(
        Interface.term(service("f", "a", "m"))), contained=True),
    ArchitectureReport: lambda: ArchitectureReport(architecture="A", plain=zero_residual(),
                                                   conditional=None),
    TransferEvent: lambda: TransferEvent(source="e", destination="f", action="a",
                                         motive="m", reply="T"),
    Violation: lambda: Violation(index=3, kind="unmatched-outgoing", side="outgoing",
                                 entity="e", candidates=(service("f", "a", "m"),)),
    ComplianceReport: lambda: ComplianceReport(
        violations=(Violation(0, "reply-forbidden", "outgoing", "e"),), warnings=()),
    # transform
    RefinementSpec: lambda: RefinementSpec(coarse="e", parts=("p", "q")),
    RenameMap: lambda: RenameMap(entity_map={"e": "f"}, action_map={}, motive_map={"m": "n"}),
    ConditionLiteral: lambda: ConditionLiteral(variable="c", negated=True),
    AssignmentReport: lambda: AssignmentReport(cases=(((("c", False),), zero_residual()),)),
    # catalog
    EntityDecl: lambda: EntityDecl(name="e:c", parent="e", extern=False),
    Catalog: lambda: Catalog(entities={"e": EntityDecl("e")}, actions={"a": False},
                             motives={"m": True}, condition_vars={"c"}),
    # reflection
    Residual: lambda: Residual(canonical=Interface.term(service("f", "a", "m", host="e"))),
    # resolver
    Diagnostic: lambda: Diagnostic(severity="warning", message="unused", pos=pos()),
    Resolution: lambda: Resolution(module=SpecModule(), catalog=Catalog(),
                                   interfaces={"I": Interface.zero()}, architectures={},
                                   monoid_names={"I"}, diagnostics=[]),
    # algebra
    Generator: lambda: Generator(target="f", action="a", motive="m", polarity="client",
                                 host="e", alpha="T"),
    # locglob
    Decomposition: lambda: Decomposition(parts=(("e", Interface.term(service("f", "a", "m"))),)),
}

# records with mutable fields: equal by value, but unhashable
UNHASHABLE = {Catalog, SpecModule, Resolution}

# records whose default field values are mutable: each instance gets its own
FRESH_DEFAULTS = {
    Catalog: ("entities", "actions", "motives", "condition_vars"),
    RenameMap: ("entity_map", "action_map", "motive_map"),
    SpecModule: ("items",),
}

# a field of each record, and another value for it
REPLACEMENTS = {
    ExprNode: ("pos", pos(9)), ZeroExpr: ("pos", pos(9)), RefExpr: ("name", "J"),
    GenExpr: ("motive", ("m", "n")), NegExpr: ("inner", ZeroExpr(pos())),
    ScaleExpr: ("factor", 3), SumExpr: ("parts", ()),
    CondExpr: ("negated", False), Item: ("pos", pos(9)), EntityItem: ("extern", True),
    NameItem: ("kind", "motive"),
    InterfaceDef: ("monoid", True), ArchMemberDef: ("entity", "f"),
    ArchitectureDef: ("members", ()), CheckDirective: ("target", "B"),
    RefineDef: ("parts", ("r",)), RenameDef: ("action_map", (("a", "b"),)),
    SpecModule: ("items", []),
    ArchMember: ("contained", False), ArchitectureReport: ("architecture", "B"),
    TransferEvent: ("reply", "F"), Violation: ("index", 4),
    ComplianceReport: ("warnings", (Violation(1, "unmatched-incoming", "incoming", "f"),)),
    RefinementSpec: ("coarse", "g"), RenameMap: ("action_map", {"a": "b"}),
    ConditionLiteral: ("variable", "d"), AssignmentReport: ("cases", ()),
    EntityDecl: ("extern", True), Catalog: ("condition_vars", set()),
    Residual: ("canonical", Interface.term(service("f", "a", "m", host="e", alpha="T"))),
    Diagnostic: ("severity", "error"),
    Resolution: ("monoid_names", set()), Generator: ("alpha", "F"),
    Decomposition: ("parts", ()),
}


def test_every_record_class_is_covered():
    assert len(RECORDS) == 34
    assert REPLACEMENTS.keys() == RECORDS.keys()


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_equal_values_are_equal(cls):
    a, b = RECORDS[cls](), RECORDS[cls]()
    assert type(a) is cls
    assert a is not b
    assert a == b
    assert not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    elif cls is RenameMap:
        # the hash is that of the field tuple, and these fields are dicts
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_replace_one_field(cls):
    a = RECORDS[cls]()
    name, value = REPLACEMENTS[cls]
    b = a.replace(**{name: value})
    assert type(b) is cls
    assert getattr(b, name) == value
    assert b != a
    assert a == RECORDS[cls]()  # the original is untouched
    assert b.replace(**{name: getattr(a, name)}) == a


def test_other_fields_kept_by_replace():
    assert gen_expr().replace(alpha="T") == GenExpr(
        pos(), "service", "e", "a", ("m",), None, "T")
    assert Generator("f", "a", "m").replace(host="e") == service(
        "f", "a", "m", host="e")


@pytest.mark.parametrize("cls", sorted(FRESH_DEFAULTS, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_mutable_defaults_are_fresh(cls):
    a, b = cls(), cls()
    for name in FRESH_DEFAULTS[cls]:
        assert getattr(a, name) == getattr(b, name)
        assert getattr(a, name) is not getattr(b, name)


def test_resolution_defaults_are_fresh():
    a, b = Resolution(SpecModule(), Catalog()), Resolution(SpecModule(), Catalog())
    for name in ("interfaces", "architectures", "monoid_names", "diagnostics"):
        assert getattr(a, name) == getattr(b, name)
        assert getattr(a, name) is not getattr(b, name)


@pytest.mark.parametrize("one, other", [
    (NameItem(pos(), "action", "a"), NameItem(pos(), "motive", "a")),
    (ZeroExpr(pos()), Item(pos())),
    (ExprNode(pos()), ZeroExpr(pos())),
], ids=["action-motive", "zero-item", "node-zero"])
def test_classes_with_equal_fields_differ(one, other):
    assert one != other
    assert other != one
    assert not one == other


def test_record_never_equals_a_tuple():
    assert ConditionLiteral("c") != ("c", False)
    assert Generator("f", "a") != ("f", "a", (), "service", None, "TF")


@pytest.mark.parametrize("cls", sorted(UNHASHABLE, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_unhashable_records(cls):
    value = cls(SpecModule(), Catalog()) if cls is Resolution else cls()
    with pytest.raises(TypeError):
        hash(value)


def test_keyword_and_positional_construction_agree():
    assert GenExpr(pos(), "service", "e", "a", ("m",), None, "TF") == gen_expr()
    assert Generator("f", "a", ("m",), "client", "e", "T") == RECORDS[Generator]()
    assert Diagnostic("warning", "unused", pos()) == RECORDS[Diagnostic]()
    assert TransferEvent("e", "f", "a", "m", "T") == RECORDS[TransferEvent]()
    assert EntityDecl("e") == EntityDecl(name="e", parent=None, extern=False)
    assert ConditionLiteral("c") == ConditionLiteral(variable="c", negated=False)
    assert Violation(1, "k", "outgoing", "e") == Violation(1, "k", "outgoing", "e", ())


def test_generator_normalizes_its_motive():
    assert Generator("f", "a", ["n", "m"]).motive == ("m", "n")
    assert Generator("f", "a", "0").motive == ()
    assert Generator("f", "a").replace(motive="m").motive == ("m",)


def test_refinement_spec_stores_parts_as_tuple():
    assert RefinementSpec("e", ["p", "q"]).parts == ("p", "q")
    assert RefinementSpec("e", ["p", "q"]) == RefinementSpec("e", ("p", "q"))


@pytest.mark.parametrize("make, message", [
    (lambda: Generator("", "a"), "generator needs a target entity"),
    (lambda: Generator("f", ""), "generator needs an action"),
    (lambda: Generator("f", "a", polarity="out"), "bad polarity: 'out'"),
    (lambda: Generator("f", "a", alpha="X"), "bad reply constraint: 'X'"),
    (lambda: Generator("f", "a", host=""), "empty host name"),
    (lambda: Generator("f", "a", motive=("",)), "bad motive atom: ''"),
    # the first failing check wins
    (lambda: Generator("", "", polarity="out", alpha="X", host=""),
     "generator needs a target entity"),
    (lambda: Generator("f", "a", polarity="out", alpha="X"), "bad polarity: 'out'"),
    (lambda: Generator("f", "a", alpha="X", host="", motive=("",)),
     "bad reply constraint: 'X'"),
    (lambda: TransferEvent("e", "f", "a", "m", "X"), "reply must be T or F, got 'X'"),
    (lambda: RefinementSpec("e", ()), "refinement needs at least one part"),
    (lambda: RefinementSpec("e", ("p", "p")), "refinement parts must be pairwise distinct"),
    (lambda: RefinementSpec("e", ("e", "p")),
     "refined entity cannot be one of its own parts"),
    (lambda: RefinementSpec("e", ("e", "e")), "refinement parts must be pairwise distinct"),
])
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_reprs():
    assert repr(gen_expr()) == (
        "GenExpr(pos=SourcePosition(1, 1, 'v.fti'), polarity='service', target='e', "
        "action='a', motive=('m',), host=None, alpha='TF')")
    assert repr(GenExpr(SourcePosition(1, 1), "client", "e", "a", (), "f", "T")) == (
        "GenExpr(pos=SourcePosition(1, 1, None), polarity='client', target='e', "
        "action='a', motive=(), host='f', alpha='T')")
    assert repr(Generator("e", "a", "m")) == (
        "Generator(target='e', action='a', motive=('m',), polarity='service', "
        "host=None, alpha='TF')")
    assert repr(Diagnostic("error", "x")) == (
        "Diagnostic(severity='error', message='x', pos=None)")
    assert repr(RECORDS[Diagnostic]()) == (
        "Diagnostic(severity='warning', message='unused', "
        "pos=SourcePosition(1, 1, 'v.fti'))")
    assert repr(TransferEvent("e", "f", "a", "m", "T")) == (
        "TransferEvent(source='e', destination='f', action='a', motive='m', reply='T')")
