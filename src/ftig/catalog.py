"""Declared name catalogs: entities (a forest), actions, motives, conditions.

The entity hierarchy comes only from declaration nesting; identifier text
(which may contain ``:``) is never parsed for structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class EntityDecl:
    name: str
    parent: str | None = None
    extern: bool = False


@dataclass
class Catalog:
    entities: dict[str, EntityDecl] = field(default_factory=dict)
    actions: dict[str, bool] = field(default_factory=dict)   # name -> extern flag
    motives: dict[str, bool] = field(default_factory=dict)
    condition_vars: set[str] = field(default_factory=set)

    def add_entity(self, name: str, parent: str | None = None, extern: bool = False):
        if not name:
            raise ValueError("empty entity name")
        if name in self.entities:
            raise ValueError(f"duplicate entity declaration: {name}")
        if parent is not None and parent not in self.entities:
            raise ValueError(f"parent entity {parent} not declared before {name}")
        self.entities[name] = EntityDecl(name, parent, extern)

    def add_action(self, name: str, extern: bool = False):
        if not name:
            raise ValueError("empty action name")
        if name in self.actions:
            raise ValueError(f"duplicate action declaration: {name}")
        self.actions[name] = extern

    def add_motive(self, name: str, extern: bool = False):
        if not name:
            raise ValueError("empty motive name")
        if name in self.motives:
            raise ValueError(f"duplicate motive declaration: {name}")
        self.motives[name] = extern

    def add_condition(self, name: str):
        if name in self.condition_vars:
            raise ValueError(f"duplicate condition declaration: {name}")
        self.condition_vars.add(name)

    def has_entity(self, name: str) -> bool:
        return name in self.entities

    def entity_path(self, name: str) -> tuple[str, ...]:
        """Ancestry chain from the root of the forest down to ``name``."""
        chain = []
        cur: str | None = name
        while cur is not None:
            chain.append(cur)
            cur = self.entities[cur].parent
        return tuple(reversed(chain))
