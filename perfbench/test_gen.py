"""Checks the generators' known answers against an independent oracle.

The oracle reads the generated text with regular expressions and does the
arithmetic with ``collections.Counter``; it never imports ``ftig``.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import csv
import io
import itertools
import random
import re
import unittest
from collections import Counter

import gen

TERM = re.compile(r"(?:(\d+) x )?(~?)(\w+)\.(\w+)\(([^)]*)\)(?:/(\w+))?"
                  r"(?: <\| (!?)(\w+) \|> 0)?$")
SPLIT = re.compile(r"\s([+-])\s(?![^(]*\))")
MEMBER = re.compile(r"^  (contained )?(\w+) : \{ (.*) \}$")


def parse_sum(body: str):
    """Signed pieces of a sum: ``(sign, text)``."""
    pieces = SPLIT.split(body.removeprefix("-"))
    signs = [-1 if body.startswith("-") else 1] + [-1 if s == "-" else 1 for s in pieces[1::2]]
    return list(zip(signs, (p.strip() for p in pieces[0::2])))


def parse_term(text: str):
    m = TERM.match(text)
    assert m, text
    coeff, tilde, target, action, motive, alpha, negated, var = m.groups()
    atoms = [a.strip() for a in motive.split("+")]
    guard = (var, not negated) if var else None
    return int(coeff or 1), bool(tilde), target, action, atoms, alpha or "TF", guard


def architectures(text: str) -> dict[str, list]:
    """Architecture name -> [(entity, contained, [terms])]."""
    archs, current = {}, None
    for line in text.splitlines():
        if line.startswith("architecture "):
            current = archs.setdefault(line.split()[1], [])
        elif current is not None and (m := MEMBER.match(line.rstrip(","))):
            terms = [parse_term(t) for _, t in parse_sum(m.group(3))]
            current.append((m.group(2), bool(m.group(1)), terms))
    return archs


def residual(members, assignment=None) -> Counter:
    """Hosted sum modulo reflection: incoming terms become minus the sender's
    outgoing term."""
    total = Counter()
    for entity, _, terms in members:
        for coeff, incoming, target, action, atoms, alpha, guard in terms:
            if guard and assignment[guard[0]] != guard[1]:
                continue
            for atom in atoms:
                if incoming:
                    total[(target, entity, action, atom, alpha)] -= coeff
                else:
                    total[(entity, target, action, atom, alpha)] += coeff
    return total


def nonzero(counter: Counter) -> dict:
    return {k: v for k, v in counter.items() if v}


def as_terms(res: dict) -> list[dict]:
    return [gen.service_term(h, t, a, m, c) for (h, t, a, m, _), c in sorted(res.items())]


class RingTest(unittest.TestCase):
    def test_residual_is_the_dropped_atom(self):
        for inst in gen.ring_closed(random.Random(3), n=40):
            (members,) = architectures(inst.files[f"{inst.name}.fti"]).values()
            res = nonzero(residual(members))
            self.assertEqual(as_terms(res), inst.expect["residual"])
            self.assertEqual(inst.expect["verdict"], "not-closed" if res else "closed")
            self.assertEqual(inst.terms, sum(len(t) for _, _, t in members))


class SpecTest(unittest.TestCase):
    def test_verdicts_and_warnings(self):
        (inst,) = gen.spec_check(random.Random(4), n_ifaces=300, n_archs=40, instances=1)
        text = inst.files[f"{inst.name}.fti"]
        archs = architectures(text)
        verdicts = [{"kind": "closed", "architecture": name,
                     "verdict": "not-closed" if nonzero(residual(archs[name])) else "closed"}
                    for name in re.findall(r"^check closed (\w+)$", text, re.M)]
        self.assertEqual(verdicts, inst.expect["checks"])

        values: dict[str, Counter] = {}
        for name, body in re.findall(r"^interface (\w+)(?: @local)? \{ (.*) \}$", text, re.M):
            value = Counter()
            for sign, piece in parse_sum(body):
                if piece in values:
                    value.update({k: sign * v for k, v in values[piece].items()})
                    continue
                coeff, tilde, target, action, atoms, alpha, _ = parse_term(piece)
                for atom in atoms:
                    value[(tilde, target, action, atom, alpha)] += sign * coeff
            values[name] = value
        warned = sum(any(v and k[-1] != "TF" for k, v in value.items())
                     for value in values.values())
        self.assertEqual(warned, inst.expect["warnings"])
        # every declared name is used, so lint reports nothing else
        declared = set(re.findall(r"^(?:entity|action|motive) (\w+)$", text, re.M))
        body = text[text.index("interface "):]
        self.assertTrue(all(re.search(rf"\b{name}\b", body) for name in declared))


class ComplyTest(unittest.TestCase):
    def test_violations_and_warnings(self):
        for inst in gen.event_comply(random.Random(5), width=60, n_events=600, instances=2):
            (members,) = architectures(inst.files[f"{inst.name}.fti"]).values()
            coeffs = Counter()
            for entity, _, terms in members:
                for coeff, incoming, target, action, atoms, alpha, _ in terms:
                    for atom in atoms:
                        coeffs[(entity, incoming, target, action, atom, alpha)] += coeff
            contained = {entity for entity, flag, _ in members if flag}
            member_names = {entity for entity, _, _ in members}
            admits = {"TF": "TF", "T": "T", "F": "F"}

            def side(member, incoming, peer, action, motive, reply):
                alphas = [a for a in admits
                          if coeffs[(member, incoming, peer, action, motive, a)] > 0]
                if any(reply in admits[a] for a in alphas):
                    return None
                return "reply-forbidden" if alphas else "unmatched"

            rows = list(csv.reader(io.StringIO(inst.files[f"{inst.name}.csv"])))[1:]
            violations, warnings = [], []
            for index, (src, dst, action, motive, reply) in enumerate(rows):
                self.assertTrue(src in member_names or dst in member_names)
                if src in member_names and (v := side(src, False, dst, action, motive, reply)):
                    violations.append((index, "unmatched-outgoing" if v == "unmatched" else v))
                if dst in member_names and (v := side(dst, True, src, action, motive, reply)):
                    if v == "unmatched":
                        (violations if dst in contained else warnings).append(
                            (index, "unmatched-incoming"))
                    else:
                        violations.append((index, v))
            self.assertEqual(violations, inst.expect["violations"])
            self.assertEqual(warnings, inst.expect["warnings"])
            off_spec = {i for i, _ in violations + warnings}
            self.assertTrue(0.005 < len(off_spec) / len(rows) < 0.1, len(off_spec))


class CondTest(unittest.TestCase):
    def test_failing_assignments(self):
        for inst in gen.cond_closed(random.Random(6), k=4, n=5):
            text = inst.files[f"{inst.name}.fti"]
            (members,) = architectures(text).values()
            variables = re.findall(r"^condition (\w+)$", text, re.M)
            failing = inst.expect["failing"]
            self.assertEqual(inst.expect["assignments"], 2 ** len(variables))
            for values in itertools.product((False, True), repeat=len(variables)):
                assignment = dict(zip(variables, values))
                res = as_terms(nonzero(residual(members, assignment)))
                fails = failing is not None and \
                    assignment[failing["variable"]] == failing["value"]
                self.assertEqual(res, failing["residual"] if fails else [])


class GateTest(unittest.TestCase):
    def test_same_seed_same_files(self):
        for workload in gen.WORKLOADS:
            small = {"ring_closed": {"n": 20}, "spec_check": {"n_ifaces": 50, "n_archs": 6},
                     "event_comply": {"width": 20, "n_events": 50},
                     "cond_closed": {"k": 2, "n": 3}}[workload]
            first = [i.files for i in gen.generate(workload, 7, **small)]
            self.assertEqual(first, [i.files for i in gen.generate(workload, 7, **small)])
            self.assertNotEqual(first, [i.files for i in gen.generate(workload, 8, **small)])

    def test_wrong_answers_are_rejected(self):
        (inst,) = gen.ring_closed(random.Random(9), n=20, instances=1)
        doc = {"verdict": "closed", "residual": [], "non_cancellable": []}
        self.assertTrue(gen.answer_matches("ring_closed", inst.expect, doc))
        self.assertFalse(gen.answer_matches("ring_closed", inst.expect,
                                            dict(doc, verdict="not-closed")))
        self.assertFalse(gen.answer_matches("ring_closed", inst.expect,
                                            dict(doc, residual=[{"coefficient": 1}])))


if __name__ == "__main__":
    unittest.main()
