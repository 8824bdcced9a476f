"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import random
import subprocess
import sys

from ftig.algebra import (
    ALPHA_F, ALPHA_NONE, ALPHA_T, ALPHA_TF, Interface, client, service,
)
from ftig.architecture import (
    Architecture, TransferEvent, check_closed, comply_events, global_sum,
)
from ftig.locglob import decompose, globalize, localize, recompose
from ftig.reflection import reduce_modulo_reflection
from ftig.speclang import evaluate_expression_text, parse_module, resolve
from ftig.speclang.astnodes import SpecModule
from ftig.transform import (
    ConditionalInterface, RefinementSpec, RenameMap, annihilate,
    expand_motives, refine, rename,
)

from conftest import (
    FIXTURES, cli_env, random_interface, random_monoid_interface,
)
from test_algebra import derive_order_oracle
from test_architecture import brute_force_matcher, random_compliance_architecture
from test_reflection import oracle_reduce, reflector_vectors, tiny_basis

PASS = "ACCEPTANCE {n}: {name}: PASS"


def load_corpus(*names):
    module = SpecModule()
    for name in names:
        path = FIXTURES / name
        module.extend(parse_module(path.read_text(), filename=name))
    res = resolve(module)
    assert res.ok, [d.render() for d in res.errors]
    return res


def test_criterion_1_two_entity_worked_example():
    arch = Architecture("TwoEntity", [
        ("e1", Interface.term(service("e2", "a", "m"))),
        ("e2", Interface.term(client("e1", "a", "m"))),
    ])
    assert global_sum(arch).render() == "e2.a(m)@e1 + ~e1.a(m)@e2"
    assert check_closed(arch).closed
    # and the same architecture written in the specification language
    res = load_corpus("two_entity.fti")
    assert check_closed(res.architectures["TwoEntity"], res.catalog).closed
    print(PASS.format(n=1, name="two-entity worked example"))


def test_criterion_2_group_laws_and_ordering():
    rng = random.Random(2)
    zero = Interface.zero()
    for _ in range(1000):
        a = random_interface(rng)
        b = random_interface(rng)
        c = random_interface(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + zero == a
        assert (a + (-a)).is_zero
        assert a.leq(a)
        if a.leq(b) and b.leq(a):
            assert a == b
        if a.leq(b) and b.leq(c):
            assert a.leq(c)
    generators = (service("f", "a", "m", host="g"), client("g", "a", "m", host="f"),
                  service("h", "b", "m", host="g"))
    below = derive_order_oracle(generators)
    span = range(-2, 3)
    for u in itertools.product(span, repeat=3):
        a = Interface(zip(generators, u))
        for v in itertools.product(span, repeat=3):
            assert a.leq(Interface(zip(generators, v))) == (v in below[u])
    print(PASS.format(n=2, name="group laws and partial ordering"))


def test_criterion_3_reflection_suite():
    rng = random.Random(3)
    for _ in range(300):
        x = random_interface(rng)
        y = random_interface(rng)
        assert reduce_modulo_reflection(x + y).canonical == \
            reduce_modulo_reflection(x).canonical + reduce_modulo_reflection(y).canonical
    for t, h in itertools.product(("e", "f"), repeat=2):
        pair = Interface.term(service(t, "a", "m", host=h)) + \
            Interface.term(client(h, "a", "m", host=t))
        assert reduce_modulo_reflection(pair).closed
    for t in ("e", "f"):
        assert reduce_modulo_reflection(Interface.term(service(t, "a", "m", host=t))).closed
        assert reduce_modulo_reflection(Interface.term(client(t, "a", "m", host=t))).closed
    gens = tiny_basis()
    vectors = reflector_vectors(gens)
    for _ in range(200):
        x = random_interface(rng, entities=("e", "f"), actions=("a",), motives=("m",),
                             max_terms=6)
        canonical = reduce_modulo_reflection(x).canonical
        assert canonical == oracle_reduce(x, gens, vectors)
        assert reduce_modulo_reflection(canonical).canonical == canonical
    print(PASS.format(n=3, name="reflection homomorphism, kernel, oracle"))


def test_criterion_4_localization_globalization():
    rng = random.Random(4)
    for _ in range(500):
        # local interfaces are sums of localized permission elements
        i = random_monoid_interface(rng, local=True)
        assert localize("e1", globalize("e1", i)) == i
    for _ in range(500):
        x = random_monoid_interface(rng)
        assert recompose(decompose(x)) == x
    for _ in range(500):
        x = random_interface(rng)
        assert reduce_modulo_reflection(recompose(decompose(x)) - x).closed
    print(PASS.format(n=4, name="localization and decomposition identities"))


def test_criterion_5_homomorphism_suite():
    rng = random.Random(5)
    # golden motive-composition cases
    assert expand_motives(Interface.term(service("f", "a", ("v", "w"), host="g"))) == \
        Interface.term(service("f", "a", "v", host="g")) + \
        Interface.term(service("f", "a", "w", host="g"))
    assert expand_motives(Interface.term(service("f", "a", (), host="g"))).is_zero
    assert expand_motives(Interface.term(client("f", "a", (), host="g"))).is_zero
    # golden refinement branches
    spec = RefinementSpec("f", ("f1", "f2"))
    assert refine(Interface.term(service("f", "a", "m", host="f")), spec) == Interface([
        (service("f1", "a", "m", host="f1"), 1), (service("f1", "a", "m", host="f2"), 1),
        (service("f2", "a", "m", host="f1"), 1), (service("f2", "a", "m", host="f2"), 1)])
    assert refine(Interface.term(service("g", "a", "m", host="f")), spec) == \
        Interface.term(service("g", "a", "m", host="f1")) + \
        Interface.term(service("g", "a", "m", host="f2"))
    assert refine(Interface.term(service("f", "a", "m", host="h")), spec) == \
        Interface.term(service("f1", "a", "m", host="h")) + \
        Interface.term(service("f2", "a", "m", host="h"))
    assert refine(Interface.term(service("g", "a", "m", host="h")), spec) == \
        Interface.term(service("g", "a", "m", host="h"))

    kill = {service("e1", "a", "m1", host="e2")}
    mapping = RenameMap(entity_map={"e1": "e2"}, motive_map={"m1": "m2"})
    refinement = RefinementSpec("e1", ("u", "v"))
    for _ in range(500):
        a = random_interface(rng, composite_motives=True)
        b = random_interface(rng, composite_motives=True)
        assert expand_motives(a + b) == expand_motives(a) + expand_motives(b)
        ea, eb = expand_motives(a), expand_motives(b)
        assert refine(ea + eb, refinement) == refine(ea, refinement) + refine(eb, refinement)
        assert annihilate(a + b, kill) == annihilate(a, kill) + annihilate(b, kill)
        assert rename(a + b, mapping) == rename(a, mapping) + rename(b, mapping)
    for _ in range(100):
        x = random_monoid_interface(rng)
        matched = x + Interface((g.reflection_partner(), c) for g, c in x)
        arch = Architecture("closed", decompose(matched).parts)
        assert check_closed(arch).closed
        assert reduce_modulo_reflection(refine(global_sum(arch), refinement)).closed
    print(PASS.format(n=5, name="structural homomorphisms"))


def test_criterion_6_example_corpus():
    res = load_corpus("catalog.fti", "lfti_maeiis.fti")
    is0 = res.interfaces["LFTI4MaEIis0"]
    is1 = res.interfaces["LFTI4MaEIis1"]
    assert all(isinstance(res.interfaces[n], Interface)
               for n in ("LFTI4MaEIis0", "LFTI4MaEIis1", "LFTI4MaEIis2"))
    assert is1.coefficient(service("FH", "it", "fp:nsla")) == 0
    assert is1.coefficient(service("FH", "it", "hmt:csla")) > 0
    comm = res.interfaces["LFTI4MaEIis0comm"]
    nocomm = res.interfaces["LFTI4MaEIis0nocomm"]
    assert isinstance(comm, Interface) and isinstance(nocomm, Interface)
    assert is0 == comm + nocomm
    print(PASS.format(n=6, name="transcribed interface corpus"))


def test_criterion_7_derived_closed_fixture():
    res = load_corpus("catalog.fti", "lfti_maeiis.fti", "closed_arch.fti")
    arch = res.architectures["ClosedMaEIis"]
    assert check_closed(arch, res.catalog).closed
    mutations = 0
    for k, member in enumerate(arch.members):
        iface = member.interface.unconditional
        for gen, coeff in iface:
            weakened = iface + Interface.term(gen, -1 if coeff > 0 else 1)
            members = [(m.entity, m.interface) for m in arch.members]
            members[k] = (member.entity, weakened)
            assert not check_closed(Architecture("mut", members), res.catalog).closed, \
                (member.entity, gen.text())
            mutations += 1
    assert mutations >= 50
    print(PASS.format(n=7, name=f"derived closed fixture ({mutations} mutations all break)"))


def test_criterion_8_compliance_oracle_and_reply_table():
    rng = random.Random(8)
    for _ in range(5):
        arch = random_compliance_architecture(rng)
        events = []
        while len(events) < 200:
            src, dst = rng.sample(("e1", "e2", "e3", "outside"), 2)
            events.append(TransferEvent(src, dst, rng.choice(("a", "b")),
                                        rng.choice(("m1", "m2")), rng.choice(("T", "F"))))
        rep = comply_events(events, arch)
        want_violations, want_warnings = brute_force_matcher(events, arch)
        assert sorted((v.index, v.kind, v.entity) for v in rep.violations) == \
            sorted(want_violations)
        assert sorted((w.index, w.kind, w.entity) for w in rep.warnings) == \
            sorted(want_warnings)
    # reply-constraint semantics: one passing and one violating event per value
    table = {ALPHA_TF: ("T", None), ALPHA_T: ("T", "F"),
             ALPHA_F: ("F", "T"), ALPHA_NONE: ("F", None)}
    for alpha, (good, bad) in table.items():
        arch = Architecture("A", [
            ("e1", Interface.term(service("e2", "a", "m", alpha=alpha))),
            ("e2", Interface.term(client("e1", "a", "m", alpha=alpha))),
        ])
        assert comply_events([TransferEvent("e1", "e2", "a", "m", good)], arch).complies
        if bad is not None:
            rep = comply_events([TransferEvent("e1", "e2", "a", "m", bad)], arch)
            assert not rep.complies
            assert {v.kind for v in rep.violations} == {"reply-forbidden"}
    # TF and lambda admit both replies; a wrong motive still violates
    arch = Architecture("A", [
        ("e1", Interface.term(service("e2", "a", "m", alpha=ALPHA_TF))),
        ("e2", Interface.term(client("e1", "a", "m", alpha=ALPHA_NONE))),
    ])
    assert not comply_events([TransferEvent("e1", "e2", "a", "zz", "T")], arch).complies
    print(PASS.format(n=8, name="compliance oracle and reply semantics"))


CLI_RUNS = (  # (expected exit code, argv)
    (0, ("check", "catalog.fti", "lfti_maeiis.fti", "closed_arch.fti")),
    (0, ("check", "two_entity.fti")),
    (0, ("check", "conditional.fti")),
    (0, ("check", "--format", "json", "catalog.fti", "lfti_maeiis.fti", "closed_arch.fti")),
    (0, ("check", "--format", "json", "--allow-undeclared", "lfti_maeiis.fti")),
    (0, ("closed", "TwoEntity", "two_entity.fti")),
    (1, ("closed", "Dangling", "two_entity.fti")),
    (0, ("closed", "CondPair", "conditional.fti")),
    (0, ("closed", "ClosedMaEIis", "catalog.fti", "lfti_maeiis.fti", "closed_arch.fti")),
    (0, ("closed", "ClosedMaEIis", "--format", "json",
         "catalog.fti", "lfti_maeiis.fti", "closed_arch.fti")),
    (0, ("normalize", "LFTI4MaEIis0", "--format", "json", "catalog.fti", "lfti_maeiis.fti")),
    (0, ("normalize", "LFTI4MaEIis1", "--format", "json", "catalog.fti", "lfti_maeiis.fti")),
    (0, ("normalize", "LFTI4MaEIis2", "--format", "json", "catalog.fti", "lfti_maeiis.fti")),
    (0, ("normalize", "LFTI4MaEIis2", "--expand-motives", "catalog.fti", "lfti_maeiis.fti")),
    (0, ("normalize", "Sum", "--modulo-reflection", "two_entity.fti")),
    (0, ("localize", "-e", "e1", "Sum", "two_entity.fti")),
    (0, ("globalize", "-e", "e1", "I1", "two_entity.fti")),
    (0, ("decompose", "Sum", "two_entity.fti")),
    (0, ("refine", "-f", "e2", "--into", "e2a,e2b", "Sum", "two_entity.fti")),
    (0, ("rename", "--map", "rename.map", "LFTI4MaEIis0", "catalog.fti", "lfti_maeiis.fti")),
    (0, ("diff", "TwoEntity", "Dangling", "two_entity.fti")),
    (0, ("comply", "--log", "log_ok.csv", "TwoEntity", "two_entity.fti")),
    (1, ("comply", "--log", "log_bad.csv", "TwoEntity", "two_entity.fti")),
)

GOLDEN = {  # argv -> the stdout it must print
    **{("normalize", f"LFTI4MaEIis{n}", "--format", "json", "catalog.fti", "lfti_maeiis.fti"):
       f"golden/lfti_maeiis{n}.json" for n in range(3)},
    ("check", "--format", "json", "catalog.fti", "lfti_maeiis.fti", "closed_arch.fti"):
        "golden/check_corpus.json",
    ("check", "--format", "json", "--allow-undeclared", "lfti_maeiis.fti"):
        "golden/check_lfti_maeiis_undeclared.json",
}


def _run_cli(argv, hash_seed):
    env = cli_env(PYTHONHASHSEED=str(hash_seed), NO_COLOR="1")
    return subprocess.run([sys.executable, "-m", "ftig.cli", *argv],
                          capture_output=True, cwd=FIXTURES, env=env)


def test_criterion_9_determinism_and_round_trip():
    assert set(GOLDEN) <= {argv for _, argv in CLI_RUNS}
    for code, argv in CLI_RUNS:
        first = _run_cli(argv, hash_seed=1)
        second = _run_cli(argv, hash_seed=2)
        # two failed runs agree with each other; pin the verdict first
        assert first.returncode == code and first.stdout, (
            f"{argv}: exit {first.returncode}, stderr {first.stderr!r}")
        assert first.stdout == second.stdout, argv
        assert first.stderr == second.stderr, argv
        assert first.returncode == second.returncode, argv
        if argv in GOLDEN:
            golden = (FIXTURES / GOLDEN[argv]).read_bytes()
            assert first.stdout == golden, f"golden drift for {argv}"
    # every resolved fixture interface survives a render/parse round trip
    for files in (("catalog.fti", "lfti_maeiis.fti"), ("two_entity.fti",),
                  ("conditional.fti",)):
        res = load_corpus(*files)
        for name, value in res.interfaces.items():
            if isinstance(value, ConditionalInterface):
                assert evaluate_expression_text(value.render()) == value, name
            else:
                assert evaluate_expression_text(value.render()) == value, name
    print(PASS.format(n=9, name="CLI determinism, golden files, round-trips"))
