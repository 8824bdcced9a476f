#!/usr/bin/env python3
"""Regenerate tests/fixtures/closed_arch.fti.

Construction: host LFTI4MaEIis0 at MaEIis, expand motives, reduce the
global sum modulo reflection, negate the canonical residual, and
decompose it back into per-entity local interfaces.  Those parts are the
complementary interfaces of every counterpart entity; together with the
original member they form a closed architecture.
"""

from pathlib import Path

from ftig.locglob import decompose, globalize
from ftig.reflection import reduce_modulo_reflection
from ftig.speclang import parse_module, resolve
from ftig.speclang.astnodes import SpecModule
from ftig.transform import expand_motives

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def main():
    module = SpecModule()
    for name in ("catalog.fti", "lfti_maeiis.fti"):
        path = FIXTURES / name
        module.extend(parse_module(path.read_text(), filename=name))
    res = resolve(module)
    assert res.ok, [d.render() for d in res.errors]

    base = res.interfaces["LFTI4MaEIis0"]
    hosted = expand_motives(globalize("MaEIis", base, res.catalog))
    residual = reduce_modulo_reflection(hosted)
    assert not residual.non_cancellable
    complement = decompose(-residual.canonical)

    lines = [
        "%[Closed architecture around LFTI4MaEIis0: every counterpart entity",
        "  carries the complementary interface obtained by negating the",
        "  reflection-canonical form of the hosted base interface and",
        "  decomposing it per entity.  Generated by",
        "  tools/make_closed_fixture.py; requires catalog.fti and",
        "  lfti_maeiis.fti.%]",
        "",
        "architecture ClosedMaEIis {",
        "  MaEIis : LFTI4MaEIis0,",
    ]
    members = list(complement.parts)
    for k, (entity, part) in enumerate(members):
        comma = "," if k + 1 < len(members) else ""
        lines.append(f"  {entity} : {part.render()}{comma}")
    lines.append("}")
    lines.append("")
    lines.append("check closed ClosedMaEIis")
    (FIXTURES / "closed_arch.fti").write_text("\n".join(lines) + "\n")
    print(f"wrote {FIXTURES / 'closed_arch.fti'} with {len(members) + 1} member listings")


if __name__ == "__main__":
    main()
