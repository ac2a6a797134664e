"""Monomial orders encoded as additive key vectors.

Each order maps an exponent tuple to an integer key tuple such that
key(a*b) = key(a) + key(b) componentwise and monomial comparison is plain
tuple comparison on keys (bigger key = bigger monomial).  Additivity lets the
division engine shift cached keys instead of recomputing them.
"""

from __future__ import annotations

from dataclasses import dataclass

LOCAL_ANTIGRADED_REVLEX = "local_antigraded_revlex"
ELIM_LAST_LOCAL_BODY = "eliminate_last_then_local"

_KINDS = (LOCAL_ANTIGRADED_REVLEX, ELIM_LAST_LOCAL_BODY)


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order on a fixed number of variables, for the local ring
    Q[x]_(x).

    Kinds:
      local_antigraded_revlex     total degree down, revlex tie-break (local)
      eliminate_last_then_local   block order used internally for tag
          elimination: the last variable compares globally and dominates,
          the remaining block compares by the local order.
    """

    kind: str
    nvars: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.nvars < 1:
            raise ValueError("order needs at least one variable")
        if self.kind == ELIM_LAST_LOCAL_BODY and self.nvars < 2:
            raise ValueError("elimination order needs a block and a tag variable")

    def key(self, expo: tuple[int, ...]) -> tuple[int, ...]:
        if self.kind == LOCAL_ANTIGRADED_REVLEX:
            return (-sum(expo), *(-e for e in reversed(expo)))
        body = expo[:-1]
        return (expo[-1], -sum(body), *(-e for e in reversed(body)))


def local_order(nvars: int) -> MonomialOrder:
    return MonomialOrder(LOCAL_ANTIGRADED_REVLEX, nvars)


def elimination_order(nvars: int) -> MonomialOrder:
    """Order on nvars variables whose last variable is the eliminated tag,
    the rest comparing by the local order."""
    return MonomialOrder(ELIM_LAST_LOCAL_BODY, nvars)
