"""The control corpus of `corpus-run`: positive and negative
equidistribution controls, one representative per hypothesis class of the
underlying equivalence.

The control verdicts are decided by the equidistribution criterion, so the
corpus doubles as a cross-check between the decision procedure and the
measured discrepancies.  Importing this module loads no other part of the
package; an entry's literal is parsed when its `expr` is read.  The model
systems of the recurrence commands are example configs under `examples/`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .hardy import HardyExpr


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    literal: str
    expected_ud: bool
    klass: str

    @property
    def expr(self) -> HardyExpr:
        from .literals import parse_expr

        return parse_expr(self.literal)


CONTROL_CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry("sqrt-plus-logsq", "x^(1/2) + log^2", True,
                "sublinear, outgrows log, no polynomial part"),
    CorpusEntry("pow-3-2", "x^(3/2)", True,
                "strictly between x and x^2"),
    CorpusEntry("pow-3-2-plus-irr-quad", "x^(3/2) + sqrt(2)*x^2", True,
                "window part plus real polynomial"),
    CorpusEntry("sqrt-plus-quad", "x^(1/2) + x^2", True,
                "sublinear part plus rational polynomial"),
    CorpusEntry("log-plus-irr-quad", "log + sqrt(2)*x^2", True,
                "bounded x*f' part plus irrational polynomial"),
    CorpusEntry("irr-quad", "sqrt(2)*x^2", True,
                "polynomial with an irrational coefficient"),
    CorpusEntry("log", "log", False,
                "negative control: comparable to log"),
    CorpusEntry("rational-poly", "x^2 + 1/3*x", False,
                "negative control: rational polynomial"),
)
