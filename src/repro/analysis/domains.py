"""Abstract domains for the ElementIR type checker.

One abstract value describes everything the checker knows about a field,
variable, or expression result — a product of four small domains:

* **type set** — which :class:`~repro.dsl.schema.FieldType`\\ s the value
  may inhabit (``None`` means unconstrained / TOP);
* **nullability** — whether the value may be SQL NULL (Python ``None``);
* **constancy** — the exact value, when statically known;
* **interval** — numeric bounds ``[lo, hi]`` (``None`` = unbounded),
  used to decide "divisor can/cannot be zero".

Handlers are straight-line (no loops), so plain forward propagation with
joins at CASE/emit merge points reaches a fixed point in one pass and no
widening is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Optional, Tuple

from ..dsl.schema import NUMERIC, FieldType, statically_comparable

#: Distinct sentinel for "constant not statically known" — ``None`` is a
#: legitimate constant (SQL NULL), so it cannot double as the marker.
UNKNOWN = type("_Unknown", (), {"__repr__": lambda self: "UNKNOWN"})()


@dataclass(frozen=True)
class AbstractValue:
    """Product-domain abstraction of one runtime value."""

    types: Optional[FrozenSet[FieldType]] = None  # None = any type (TOP)
    nullable: bool = True
    const: object = field(default=UNKNOWN)
    lo: Optional[float] = None
    hi: Optional[float] = None

    # -- constructors ----------------------------------------------------

    @staticmethod
    def typed(
        field_type: FieldType, nullable: bool = False
    ) -> "AbstractValue":
        """The value of one type, one shared instance per pair (values
        are frozen, so sharing is safe)."""
        key = (field_type, nullable)
        if key not in _TYPED:
            _TYPED[key] = AbstractValue(
                types=frozenset({field_type}), nullable=nullable
            )
        return _TYPED[key]

    @staticmethod
    def of_const(value: object) -> "AbstractValue":
        if value is None:
            return AbstractValue(types=None, nullable=True, const=None)
        field_type = FieldType.of_value(value)
        lo = hi = None
        if field_type in NUMERIC:
            lo = hi = float(value)  # type: ignore[arg-type]
        return AbstractValue(
            types=frozenset({field_type}) if field_type else None,
            nullable=False,
            const=value,
            lo=lo,
            hi=hi,
        )

    # -- predicates ------------------------------------------------------

    @property
    def is_null(self) -> bool:
        """Statically known to be SQL NULL."""
        return self.const is None and self.const is not UNKNOWN

    @property
    def known(self) -> bool:
        return self.const is not UNKNOWN

    def must_be(self, field_type: FieldType) -> bool:
        return self.types is not None and self.types == {field_type}

    def may_be_numeric(self) -> bool:
        return self.types is None or bool(self.types & NUMERIC)

    def definitely_not_numeric(self) -> bool:
        return self.types is not None and not (self.types & NUMERIC)

    def must_be_zero(self) -> bool:
        if self.known and not self.is_null:
            return self.const == 0
        return self.lo == 0.0 and self.hi == 0.0

    def may_be_zero(self) -> bool:
        """Whether the (numeric) value could be exactly zero."""
        if self.known:
            return self.is_null or self.const == 0
        if self.lo is not None and self.lo > 0:
            return False
        if self.hi is not None and self.hi < 0:
            return False
        return True

    def interval(self) -> Tuple[Optional[float], Optional[float]]:
        return (self.lo, self.hi)

    def widened(self) -> "AbstractValue":
        """Same types, nothing else known — how a variable of this shape
        looks at the start of an arbitrary handler invocation."""
        return AbstractValue(types=self.types, nullable=self.nullable)


_TYPED: Dict[Tuple[FieldType, bool], AbstractValue] = {}
TOP = AbstractValue()
NULL = AbstractValue.of_const(None)
BOOL = AbstractValue.typed(FieldType.BOOL)


def join(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    """Least upper bound: what is known when control merges."""
    if a is b:
        return a
    if a.types is None or b.types is None:
        types = None
    else:
        types = a.types | b.types
    const = a.const if (a.known and b.known and a.const == b.const) else UNKNOWN
    lo = None if (a.lo is None or b.lo is None) else min(a.lo, b.lo)
    hi = None if (a.hi is None or b.hi is None) else max(a.hi, b.hi)
    return AbstractValue(
        types=types,
        nullable=a.nullable or b.nullable,
        const=const,
        lo=lo,
        hi=hi,
    )


def comparable(a: AbstractValue, b: AbstractValue) -> bool:
    """Whether *some* inhabitant of ``a`` can be ordered/equated with some
    inhabitant of ``b`` under
    :func:`~repro.dsl.schema.statically_comparable`."""
    if a.types is None or b.types is None:
        return True
    for left in a.types:
        for right in b.types:
            if statically_comparable(left, right):
                return True
    return False


def compatible(a: AbstractValue, b: AbstractValue) -> bool:
    """Whether two abstract values could describe the same runtime value
    (used when comparing pre/post-rewrite environments)."""
    if a.types is None or b.types is None:
        return True
    if a.is_null or b.is_null:
        return a.nullable and b.nullable
    return bool(a.types & b.types) or comparable(a, b)


# -- interval arithmetic (conservative) ---------------------------------


def iv_neg(value: AbstractValue) -> Tuple[Optional[float], Optional[float]]:
    lo = None if value.hi is None else -value.hi
    hi = None if value.lo is None else -value.lo
    return lo, hi


def _iv_add(a, b):
    lo = None if (a.lo is None or b.lo is None) else a.lo + b.lo
    hi = None if (a.hi is None or b.hi is None) else a.hi + b.hi
    return lo, hi


def _iv_sub(a, b):
    lo = None if (a.lo is None or b.hi is None) else a.lo - b.hi
    hi = None if (a.hi is None or b.lo is None) else a.hi - b.lo
    return lo, hi


def _iv_mul(a, b):
    bounds = (a.lo, a.hi, b.lo, b.hi)
    if any(bound is None for bound in bounds):
        return None, None
    products = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
    return min(products), max(products)


def arith_result(op: str, a: AbstractValue, b: AbstractValue) -> AbstractValue:
    """Abstract result of ``a <op> b`` for numeric operands."""
    if a.must_be(FieldType.INT) and b.must_be(FieldType.INT) and op != "/":
        types = frozenset({FieldType.INT})
    elif op == "/":
        types = frozenset({FieldType.FLOAT})  # Python true division
    else:
        types = NUMERIC
    lo: Optional[float]
    hi: Optional[float]
    if op == "+":
        lo, hi = _iv_add(a, b)
    elif op == "-":
        lo, hi = _iv_sub(a, b)
    elif op == "*":
        lo, hi = _iv_mul(a, b)
    elif op == "%":
        # sign follows the divisor in Python; magnitude below |divisor|
        lo, hi = None, None
        if b.lo is not None and b.lo > 0 and b.hi is not None:
            lo, hi = 0.0, b.hi
    else:
        lo, hi = None, None
    return AbstractValue(
        types=types, nullable=a.nullable or b.nullable, lo=lo, hi=hi
    )
