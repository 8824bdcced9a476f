"""Seeded generators for the fti benchmark workloads.

Each generator returns a list of :class:`Instance`: the files one ``fti``
invocation reads, its argument vector, the number of terms it carries and
the answer it must produce.  The answers come from the construction, never
from ``ftig``; ``test_gen.py`` checks them against an independent oracle.
The same seed always gives the same files.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass

ADMITS = {"TF": "TF", "T": "T", "F": "F"}


@dataclass
class Instance:
    name: str
    argv: list[str]                      # fti arguments; file names are relative
    files: dict[str, str]                # file name -> text
    terms: int                           # generator occurrences in .fti text + log events
    expect: dict                         # the known answer


def term_text(coeff: int, incoming: bool, target: str, action: str, atoms, alpha="TF") -> str:
    """One generator occurrence in .fti syntax, with an optional multiplicity."""
    s = f"{coeff} x " if coeff != 1 else ""
    s += ("~" if incoming else "") + f"{target}.{action}({' + '.join(atoms)})"
    return s + (f"/{alpha}" if alpha != "TF" else "")


def service_term(host: str, target: str, action: str, atom: str, coeff: int) -> dict:
    """A residual term in the layout of the JSON report."""
    return {"host": host, "polarity": "service", "target": target, "action": action,
            "motive": [atom], "alpha": "TF", "coefficient": coeff}


def declarations(entities, actions, motives, conditions=()) -> str:
    lines = [f"entity {e}" for e in entities]
    lines += [f"action {a}" for a in actions]
    lines += [f"motive {m}" for m in motives]
    lines += [f"condition {c}" for c in conditions]
    return "\n".join(lines) + "\n"


def _member(entity: str, terms: list[str], contained=False) -> str:
    prefix = "contained " if contained else ""
    return f"  {prefix}{entity} : {{ " + " + ".join(terms) + " }"


def _architecture(name: str, members: list[str]) -> str:
    return f"architecture {name} {{\n" + ",\n".join(members) + "\n}\n"


# ------------------------------------------------------------------ ring


def ring_instance(rng: random.Random, n: int, broken: bool, name: str) -> Instance:
    """A ring of ``n`` members with chords; every member sends composite
    motives to three neighbours, which receive them atom by atom.  A broken
    instance drops one incoming atom, leaving one known residual term."""
    entities = [f"e{i}" for i in range(n)]
    actions = [f"a{i}" for i in range(4)]
    motives = [f"m{i}" for i in range(8)]
    outgoing = {e: [] for e in entities}
    incoming = {e: [] for e in entities}
    for i, src in enumerate(entities):
        for offset in (1, 2, 7):
            dst = entities[(i + offset) % n]
            action = rng.choice(actions)
            atoms = sorted(rng.sample(motives, 2))
            coeff = rng.choice((1, 1, 2))
            outgoing[src].append(term_text(coeff, False, dst, action, atoms))
            for atom in atoms:
                incoming[dst].append((coeff, src, action, atom))
    residual = []
    if broken:
        dst = rng.choice(entities)
        coeff, src, action, atom = incoming[dst].pop(rng.randrange(len(incoming[dst])))
        residual = [service_term(src, dst, action, atom, coeff)]
    members = []
    for e in entities:
        terms = outgoing[e] + [term_text(c, True, s, a, [m]) for c, s, a, m in incoming[e]]
        rng.shuffle(terms)
        members.append(_member(e, terms))
    text = declarations(entities, actions, motives) + _architecture("Ring", members)
    count = sum(len(outgoing[e]) + len(incoming[e]) for e in entities)
    return Instance(name, ["closed", "Ring", "--format", "json", f"{name}.fti"],
                    {f"{name}.fti": text}, count,
                    {"exit": 1 if broken else 0,
                     "verdict": "not-closed" if broken else "closed",
                     "residual": residual})


def ring_closed(rng: random.Random, n: int = 150, instances: int = 4) -> list[Instance]:
    return [ring_instance(rng, n, broken=bool(k % 2), name=f"ring{k}") for k in range(instances)]


# ------------------------------------------------------------ spec check


def spec_instance(rng: random.Random, n_ifaces: int, n_archs: int, name: str) -> Instance:
    """Many small local interfaces (some referring to earlier leaf interfaces)
    and many two-member architectures, half of them broken."""
    entities = [f"p{i}" for i in range(60)]
    actions = [f"b{i}" for i in range(6)]
    motives = [f"q{i}" for i in range(10)]
    used: set[str] = set()
    lines: list[str] = []
    leaves: list[str] = []
    warned = 0
    count = 0
    for k in range(n_ifaces):
        iface = f"I{k}"
        parts = []
        has_ref = False
        flagged = False
        for j in range(rng.randint(2, 5)):
            sign = "-" if rng.random() < 0.2 else "+"
            if leaves and rng.random() < 0.3:
                parts.append((sign, rng.choice(leaves)))
                has_ref = True
                continue
            target = rng.choice(entities)
            action = rng.choice(actions)
            atoms = sorted(rng.sample(motives, rng.choice((1, 1, 2))))
            alpha = "TF"
            if j == 0 and rng.random() < 0.05:
                alpha = "T"
                flagged = True
            used.update((target, action, *atoms))
            parts.append((sign, term_text(rng.choice((1, 1, 2)), rng.random() < 0.5,
                                          target, action, atoms, alpha)))
            count += 1
        body = parts[0][1] if parts[0][0] == "+" else f"-{parts[0][1]}"
        body += "".join(f" {s} {p}" for s, p in parts[1:])
        annotation = " @local" if k % 3 == 0 else ""
        lines.append(f"interface {iface}{annotation} {{ {body} }}")
        # a leaf carrying /T is never referenced, so each one warns exactly once
        warned += flagged
        if not has_ref and not flagged:
            leaves.append(iface)
    checks = []
    for k in range(n_archs):
        src, dst = rng.sample(entities, 2)
        out_terms, in_terms = [], []
        for _ in range(rng.randint(1, 2)):
            action = rng.choice(actions)
            atoms = sorted(rng.sample(motives, rng.choice((1, 2))))
            coeff = rng.choice((1, 2))
            out_terms.append(term_text(coeff, False, dst, action, atoms))
            in_terms += [term_text(coeff, True, src, action, [a]) for a in atoms]
            used.update((src, dst, action, *atoms))
        broken = k % 2 == 1
        if broken:
            in_terms.pop(rng.randrange(len(in_terms)))
        count += len(out_terms) + len(in_terms)
        in_part = [_member(dst, in_terms)] if in_terms else []
        lines.append(_architecture(f"A{k}", [_member(src, out_terms)] + in_part))
        checks.append({"kind": "closed", "architecture": f"A{k}",
                       "verdict": "not-closed" if broken else "closed"})
    lines += [f"check closed {c['architecture']}" for c in checks]
    decls = declarations(sorted(e for e in entities if e in used),
                         sorted(a for a in actions if a in used),
                         sorted(m for m in motives if m in used))
    text = decls + "\n".join(lines) + "\n"
    failed = any(c["verdict"] != "closed" for c in checks)
    return Instance(name, ["check", "--format", "json", f"{name}.fti"], {f"{name}.fti": text},
                    count, {"exit": 1 if failed else 0, "checks": checks, "warnings": warned})


def spec_check(rng: random.Random, n_ifaces: int = 1000, n_archs: int = 100,
               instances: int = 2) -> list[Instance]:
    return [spec_instance(rng, n_ifaces, n_archs, f"spec{k}") for k in range(instances)]


# -------------------------------------------------------- event compliance


def expected_compliance(declared: dict, contained: set, events) -> tuple[list, list]:
    """Apply the compliance rules to a log.

    ``declared`` maps a member to ``{(incoming, target, action, atom): alphas}``.
    Returns ``(violations, warnings)`` as ``(event index, kind)`` pairs.
    """
    def side(member, incoming, target, action, motive, reply):
        alphas = declared[member].get((incoming, target, action, motive), ())
        if any(reply in ADMITS[a] for a in alphas):
            return "ok"
        return "reply-forbidden" if alphas else "unmatched"

    violations, warnings = [], []
    for index, (src, dst, action, motive, reply) in enumerate(events):
        if src in declared:
            verdict = side(src, False, dst, action, motive, reply)
            if verdict == "reply-forbidden":
                violations.append((index, "reply-forbidden"))
            elif verdict == "unmatched":
                violations.append((index, "unmatched-outgoing"))
        if dst in declared:
            verdict = side(dst, True, src, action, motive, reply)
            if verdict == "reply-forbidden":
                violations.append((index, "reply-forbidden"))
            elif verdict == "unmatched":
                (violations if dst in contained else warnings).append(
                    (index, "unmatched-incoming"))
    return violations, warnings


def comply_instance(rng: random.Random, n_members: int, width: int, n_events: int,
                    name: str) -> Instance:
    """A few wide members with /T and /F constraints, two of them contained,
    and a log of events drawn from their declarations, about 3 % off-spec."""
    members = [f"M{i}" for i in range(n_members)]
    externals = [f"X{i}" for i in range(30)]
    actions = [f"c{i}" for i in range(5)]
    motives = [f"r{i}" for i in range(12)]
    contained = set(members[:2])
    declared = {m: {} for m in members}
    texts = {m: [] for m in members}

    def declare(member, incoming, target, action, atoms, alpha, coeff=1):
        texts[member].append(term_text(coeff, incoming, target, action, atoms, alpha))
        for atom in atoms:
            declared[member].setdefault((incoming, target, action, atom), set()).add(alpha)

    for member in members:
        others = [m for m in members if m != member]
        while len(texts[member]) < width:
            incoming = rng.random() < 0.5
            peer = rng.choice(others) if rng.random() < 0.2 else rng.choice(externals)
            action = rng.choice(actions)
            atoms = sorted(rng.sample(motives, rng.choice((1, 1, 2))))
            alpha = rng.choices(("TF", "T", "F"), (6, 2, 2))[0]
            declare(member, incoming, peer, action, atoms, alpha, rng.choice((1, 1, 2)))
            if peer in declared:
                # the counterpart declares the matching element, so
                # member-to-member traffic is mostly on-spec
                declare(peer, not incoming, member, action, atoms, alpha)
    count = sum(len(t) for t in texts.values())
    keys = [(m, key, sorted(alphas)) for m in members for key, alphas in declared[m].items()]
    keys.sort()
    events = []
    for _ in range(n_events):
        member, (incoming, peer, action, atom), alphas = rng.choice(keys)
        reply = rng.choice(sorted({r for a in alphas for r in ADMITS[a]}))
        if rng.random() < 0.03:
            if rng.random() < 0.5:
                reply = "F" if reply == "T" else "T"
            else:
                action = rng.choice(actions)
                atom = rng.choice(motives)
        src, dst = (peer, member) if incoming else (member, peer)
        events.append((src, dst, action, atom, reply))
    violations, warnings = expected_compliance(declared, contained, events)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("source", "destination", "action", "motive", "reply"))
    writer.writerows(events)
    arch = _architecture("Audit", [_member(m, texts[m], m in contained) for m in members])
    text = declarations(members + externals, actions, motives) + arch
    return Instance(
        name, ["comply", "--log", f"{name}.csv", "Audit", "--format", "json", f"{name}.fti"],
        {f"{name}.fti": text, f"{name}.csv": buf.getvalue()}, count + n_events,
        {"exit": 1 if violations else 0,
         "verdict": "violations" if violations else "compliant",
         "violations": violations, "warnings": warnings})


def event_comply(rng: random.Random, n_members: int = 6, width: int = 100,
                 n_events: int = 700, instances: int = 4) -> list[Instance]:
    return [comply_instance(rng, n_members, width, n_events, f"log{k}")
            for k in range(instances)]


# -------------------------------------------------- conditional closedness


def cond_instance(rng: random.Random, k: int, n: int, broken: bool, name: str) -> Instance:
    """An unconditional ring of ``n`` members plus, for each of ``k``
    condition variables, one guarded transfer and its guarded counterpart.
    A broken instance drops one guarded counterpart, so exactly the
    assignments satisfying its literal leave one residual term."""
    entities = [f"g{i}" for i in range(n)]
    actions = [f"d{i}" for i in range(3)]
    motives = [f"s{i}" for i in range(6)]
    conditions = [f"c{i}" for i in range(k)]
    terms = {e: [] for e in entities}
    for i, src in enumerate(entities):
        dst = entities[(i + 1) % n]
        action, atom = rng.choice(actions), rng.choice(motives)
        terms[src].append(term_text(1, False, dst, action, [atom]))
        terms[dst].append(term_text(1, True, src, action, [atom]))
    count = 2 * n
    drop = rng.randrange(k) if broken else None
    failing = None
    for v, var in enumerate(conditions):
        src, dst = rng.sample(entities, 2)
        action, atom = rng.choice(actions), rng.choice(motives)
        negated = rng.random() < 0.5
        literal = ("!" if negated else "") + var
        terms[src].append(f"{term_text(1, False, dst, action, [atom])} <| {literal} |> 0")
        count += 1
        if v == drop:
            failing = {"variable": var, "value": not negated,
                       "residual": [service_term(src, dst, action, atom, 1)]}
        else:
            terms[dst].append(f"{term_text(1, True, src, action, [atom])} <| {literal} |> 0")
            count += 1
    members = []
    for e in entities:
        rng.shuffle(terms[e])
        members.append(_member(e, terms[e]))
    text = declarations(entities, actions, motives, conditions) + _architecture("Cond", members)
    return Instance(name, ["closed", "Cond", "--format", "json", f"{name}.fti"],
                    {f"{name}.fti": text}, count,
                    {"exit": 1 if broken else 0,
                     "verdict": "not-closed" if broken else "closed",
                     "assignments": 2 ** k, "failing": failing})


def cond_closed(rng: random.Random, k: int = 10, n: int = 6,
                instances: int = 4) -> list[Instance]:
    return [cond_instance(rng, k, n, broken=bool(j % 2), name=f"cond{j}")
            for j in range(instances)]


WORKLOADS = {
    "spec_check": spec_check,
    "ring_closed": ring_closed,
    "event_comply": event_comply,
    "cond_closed": cond_closed,
}


def generate(workload: str, seed: int, **sizes) -> list[Instance]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), **sizes)


def answer_matches(workload: str, expect: dict, doc: dict) -> bool:
    """Whether an ``fti --format json`` document gives the known answer."""
    if workload == "spec_check":
        checks = doc["checks"]
        diags = doc["diagnostics"]
        return (doc["ok"] and checks == expect["checks"]
                and all(d["severity"] == "warning" for d in diags)
                and len(diags) == expect["warnings"])
    if workload == "event_comply":
        def pairs(items):
            return [[v["event"], v["kind"]] for v in items]
        return (doc["verdict"] == expect["verdict"]
                and pairs(doc["violations"]) == [list(v) for v in expect["violations"]]
                and pairs(doc["warnings"]) == [list(w) for w in expect["warnings"]])
    if doc["verdict"] != expect["verdict"]:
        return False
    if workload == "ring_closed":
        return doc["residual"] == expect["residual"] and doc["non_cancellable"] == []
    cases = doc["assignments"]
    failing = expect["failing"]
    if len(cases) != expect["assignments"]:
        return False
    for case in cases:
        fails = failing is not None and \
            case["assignment"][failing["variable"]] == failing["value"]
        want = failing["residual"] if fails else []
        if case["verdict"] != ("not-closed" if fails else "closed") or case["residual"] != want:
            return False
    return True
