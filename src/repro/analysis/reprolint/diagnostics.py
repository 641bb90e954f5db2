"""Diagnostic records emitted by the reprolint rule engine.

A diagnostic pins one rule violation to one source location.  The
``file:line:col: CODE message`` rendering matches the GNU error format
so editors, CI annotations, and humans can all jump to the finding.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding: where, which rule, and what contract it breaks."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }
