"""COST01 — raw cycle literals outside the calibrated cost model.

DESIGN.md's PCU/SOU cycle model lives in one place —
``model/costs.py`` — so every latency in the simulator traces back to a
named, documented, calibrated constant (``FpgaCosts``,
``DurabilityCosts``, ...).  A raw ``cycles += 5`` scattered in an
engine silently forks the cost model: figures stop tracing to §IV-A and
re-calibration misses it.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from repro.analysis.reprolint.diagnostics import Diagnostic
from repro.analysis.reprolint.engine import Rule

#: Variable names that denote billed simulated time.
_BILLING_NAME = re.compile(r"(cycles|latency|_ns$|_us$)", re.IGNORECASE)

#: Powers of ten are unit conversions (ns/us/s, GB), not cycle amounts.
_UNIT_FACTORS = frozenset(
    [float(10 ** e) for e in range(1, 13)]
    + [10 ** e for e in range(1, 13)]
    + [10.0 ** -e for e in range(1, 13)]
)


def _billing_target_name(target: ast.AST) -> Optional[str]:
    if isinstance(target, ast.Name):
        name = target.id
    elif isinstance(target, ast.Attribute):
        name = target.attr
    else:
        return None
    return name if _BILLING_NAME.search(name) else None


def _raw_literal(value: ast.AST) -> Optional[ast.Constant]:
    """A bare nonzero numeric literal in an arithmetic expression.

    Walks BinOp/UnaryOp chains only — never into calls or
    comprehensions, whose literals (``range(3)``, format widths, ...)
    are not cycle amounts.
    """
    if isinstance(value, ast.Constant):
        if isinstance(value.value, (int, float)) \
                and not isinstance(value.value, bool) \
                and value.value != 0 and value.value not in _UNIT_FACTORS:
            return value
        return None
    if isinstance(value, ast.BinOp):
        return _raw_literal(value.left) or _raw_literal(value.right)
    if isinstance(value, ast.UnaryOp):
        return _raw_literal(value.operand)
    return None


class Cost01RawCycleLiteral(Rule):
    """COST01 — cycle/latency arithmetic with a raw numeric literal.

    **Failing pattern**: ``<x>cycles += 28``, ``latency = base + 5``,
    ``stall_ns = 90.0`` — any assignment or augmented assignment to a
    billing-named variable (``*cycles*``, ``*latency*``, ``*_ns``,
    ``*_us``) whose value embeds a bare nonzero numeric literal, outside
    ``model/costs.py``.  Zero initialisers (``cycles = 0``) are allowed.

    **Contract**: all billed time flows through the calibrated constants
    of ``model/costs.py`` (``FpgaCosts``, ``DurabilityCosts``, ...), so
    the paper's cycle model stays auditable in one file.

    **Escape hatch**: ``# reprolint: disable=COST01 -- <why>`` — e.g. a
    unit conversion factor that is arithmetic, not billing.
    """

    code = "COST01"
    name = "raw-cycle-literal"

    def check(self, tree, path, source) -> Iterator[Diagnostic]:
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign):
                name = _billing_target_name(node.target)
                if name is None:
                    continue
                literal = _raw_literal(node.value)
                if literal is not None:
                    yield self.diagnostic(
                        path, node,
                        f"raw literal {literal.value!r} billed into "
                        f"'{name}'; route it through a named model/costs "
                        f"constant",
                    )
            elif isinstance(node, ast.Assign):
                literal = _raw_literal(node.value)
                if literal is None:
                    continue
                for target in node.targets:
                    name = _billing_target_name(target)
                    if name is not None:
                        yield self.diagnostic(
                            path, node,
                            f"raw literal {literal.value!r} assigned to "
                            f"'{name}'; cycle amounts belong in "
                            f"model/costs.py",
                        )
