"""Interface-group algebra and specification toolchain for
financial-transfer architectures.

The core value types are :class:`Generator` (one interface element) and
:class:`Interface` (a formal integer combination of elements in canonical
normal form).  On top of those sit reduction modulo the reflection law
with the zero-sum closedness check, localization/globalization, the
structural homomorphisms, a small specification language, and
architecture-level checking.
"""

from .algebra import (
    ALPHA_F, ALPHA_NONE, ALPHA_T, ALPHA_TF, CLIENT, GLOBAL, LOCAL, SERVICE,
    Generator, Interface, client, interface_sum, service,
)
from .architecture import (
    Architecture, ArchitectureReport, ComplianceReport, TransferEvent,
    check_closed, comply_events, diff, global_sum, read_event_log,
)
from .catalog import Catalog, EntityDecl
from .errors import CapacityError, LogFormatError, ParseError, ScopeError, SpecError
from .locglob import Decomposition, decompose, globalize, localize, recompose
from .reflection import Residual, reduce_modulo_reflection, reflect_generator
from .transform import (
    AssignmentReport, ConditionalInterface, ConditionLiteral, RefinementSpec,
    RenameMap, annihilate, closed_under_all_assignments, eval_conditional,
    expand_motives, refine, rename,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA_F", "ALPHA_NONE", "ALPHA_T", "ALPHA_TF", "Architecture",
    "ArchitectureReport", "AssignmentReport", "CapacityError", "Catalog",
    "CLIENT", "ComplianceReport", "ConditionLiteral",
    "ConditionalInterface", "Decomposition", "EntityDecl", "GLOBAL",
    "Generator", "Interface", "LOCAL", "LogFormatError", "ParseError",
    "RefinementSpec", "RenameMap", "Residual", "SERVICE", "ScopeError",
    "SpecError", "TransferEvent", "annihilate", "check_closed", "client",
    "closed_under_all_assignments", "comply_events", "decompose", "diff",
    "eval_conditional", "expand_motives", "global_sum", "globalize",
    "interface_sum", "localize", "read_event_log", "recompose",
    "reduce_modulo_reflection", "refine", "reflect_generator", "rename",
    "service",
]
