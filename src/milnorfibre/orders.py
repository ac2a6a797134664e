"""Monomial orders encoded as additive key vectors.

Each order maps an exponent tuple to an integer key tuple such that
key(a*b) = key(a) + key(b) componentwise and monomial comparison is plain
tuple comparison on keys (bigger key = bigger monomial).  Additivity lets the
division engine shift cached keys instead of recomputing them.
"""

from __future__ import annotations

from dataclasses import dataclass

GLOBAL_GRADED_REVLEX = "global_graded_revlex"
LOCAL_ANTIGRADED_REVLEX = "local_antigraded_revlex"
ELIM_LAST_LOCAL_BODY = "eliminate_last_then_local"
ELIM_LAST_GLOBAL_BODY = "eliminate_last_then_global"

_KINDS = (
    GLOBAL_GRADED_REVLEX,
    LOCAL_ANTIGRADED_REVLEX,
    ELIM_LAST_LOCAL_BODY,
    ELIM_LAST_GLOBAL_BODY,
)


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order on a fixed number of variables.

    Kinds:
      global_graded_revlex        total degree up, revlex tie-break (Groebner)
      local_antigraded_revlex     total degree down, revlex tie-break (local)
      eliminate_last_then_local / eliminate_last_then_global
          block orders used internally for tag elimination: the last variable
          compares globally and dominates, the remaining block compares by the
          named body order.
    """

    kind: str
    nvars: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.nvars < 1:
            raise ValueError("order needs at least one variable")
        if self.kind.startswith("eliminate") and self.nvars < 2:
            raise ValueError("elimination order needs a block and a tag variable")

    def key(self, expo: tuple[int, ...]) -> tuple[int, ...]:
        if self.kind == GLOBAL_GRADED_REVLEX:
            return (sum(expo), *(-e for e in reversed(expo)))
        if self.kind == LOCAL_ANTIGRADED_REVLEX:
            return (-sum(expo), *(-e for e in reversed(expo)))
        body = expo[:-1]
        deg = sum(body)
        if self.kind == ELIM_LAST_GLOBAL_BODY:
            return (expo[-1], deg, *(-e for e in reversed(body)))
        return (expo[-1], -deg, *(-e for e in reversed(body)))

    def is_global(self) -> bool:
        """True when 1 is the smallest monomial (well-ordering)."""
        return self.kind == GLOBAL_GRADED_REVLEX


def global_order(nvars: int) -> MonomialOrder:
    return MonomialOrder(GLOBAL_GRADED_REVLEX, nvars)


def local_order(nvars: int) -> MonomialOrder:
    return MonomialOrder(LOCAL_ANTIGRADED_REVLEX, nvars)


def elimination_order(nvars: int, body_kind: str) -> MonomialOrder:
    """Order on nvars variables whose last variable is the eliminated tag.

    body_kind selects how the non-tag block compares: the local kind keeps the
    ambient local semantics, the global kind keeps Groebner semantics.
    """
    if body_kind == LOCAL_ANTIGRADED_REVLEX:
        return MonomialOrder(ELIM_LAST_LOCAL_BODY, nvars)
    if body_kind == GLOBAL_GRADED_REVLEX:
        return MonomialOrder(ELIM_LAST_GLOBAL_BODY, nvars)
    raise ValueError(f"unsupported body kind {body_kind!r}")
