"""Declared name catalogs: entities (a forest), actions, motives, conditions.

The entity hierarchy comes only from declaration nesting; identifier text
(which may contain ``:``) is never parsed for structure.
"""

from __future__ import annotations

from .record import Record


class EntityDecl(Record):
    __slots__ = ("name", "parent", "extern")

    def __init__(self, name: str, parent: str | None = None, extern: bool = False):
        self.name = name
        self.parent = parent
        self.extern = extern


class Catalog(Record):
    __slots__ = ("entities", "actions", "motives", "condition_vars")
    __hash__ = None

    def __init__(self, entities: dict[str, EntityDecl] | None = None,
                 actions: dict[str, bool] | None = None,
                 motives: dict[str, bool] | None = None,
                 condition_vars: set[str] | None = None):
        self.entities = {} if entities is None else entities
        self.actions = {} if actions is None else actions   # name -> extern flag
        self.motives = {} if motives is None else motives
        self.condition_vars = set() if condition_vars is None else condition_vars

    def add_entity(self, name: str, parent: str | None = None, extern: bool = False):
        if not name:
            raise ValueError("empty entity name")
        if name in self.entities:
            raise ValueError(f"duplicate entity declaration: {name}")
        if parent is not None and parent not in self.entities:
            raise ValueError(f"parent entity {parent} not declared before {name}")
        self.entities[name] = EntityDecl(name, parent, extern)

    def add_name(self, kind: str, name: str, extern: bool = False):
        """Declare ``name`` in the table of ``kind``: an entity without a
        parent, an action, a motive, or a condition (which has no extern flag)."""
        if kind == "entity":
            self.add_entity(name, extern=extern)
            return
        table = self.tables()[kind]
        if not name:
            raise ValueError(f"empty {kind} name")
        if name in table:
            raise ValueError(f"duplicate {kind} declaration: {name}")
        if kind == "condition":
            table.add(name)
        else:
            table[name] = extern

    def tables(self) -> dict[str, dict | set]:
        """The declared names of each kind, keyed by kind."""
        return {"entity": self.entities, "action": self.actions, "motive": self.motives,
                "condition": self.condition_vars}

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
