"""SQL value semantics: three-valued logic and NULL-propagating operators.

Values are plain Python objects: ``int``, ``float``, ``str``, ``bool``,
and ``None`` for SQL NULL. Predicates evaluate to ``True``, ``False``,
or ``None`` (UNKNOWN); a WHERE clause keeps a row only when its
predicate is ``True``.
"""

from __future__ import annotations

from operator import itemgetter

from repro.errors import EvaluationError

SqlValue = object  # int | float | str | bool | None

_TYPE_RANK = {type(None): 0, bool: 1, int: 2, float: 2, str: 3}


def sort_key(value: SqlValue) -> tuple:
    """A total-order key across mixed-type values (for canonical forms).

    NULLs sort first, then booleans, then numbers, then strings. This
    ordering is only used for deterministic serialization, never exposed
    to SQL semantics.
    """
    rank = _TYPE_RANK.get(type(value))
    if rank is None:
        raise EvaluationError(f"unsupported value type: {type(value).__name__}")
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    return (3, value)


def row_sort_key(values: tuple) -> tuple:
    """Sort key for a whole row of values.

    This is the reference definition of canonical row order:
    :func:`sorted_rows` returns exactly ``sorted(rows, key=row_sort_key)``
    and falls back to this key whenever native tuple order could differ.
    """
    return tuple(sort_key(value) for value in values)


def pair_sort_key(pair: tuple) -> tuple:
    """Sort key for an update's ``(old, new)`` pair of rows (the reference
    for :func:`sorted_rows` with ``pairs=True``)."""
    return (row_sort_key(pair[0]), row_sort_key(pair[1]))


def _one_rank_per_column(rows) -> bool:
    """True when *rows* share one width and each column's values all
    belong to a single ``_TYPE_RANK`` class."""
    widths = set(map(len, rows))
    if len(widths) > 1:
        return False
    for index in range(widths.pop() if widths else 0):
        kinds = set(map(type, map(itemgetter(index), rows)))
        ranks = {_TYPE_RANK.get(kind) for kind in kinds}
        if len(ranks) != 1 or None in ranks:
            return False
    return True


def sorted_rows(rows, *, pairs: bool = False) -> list:
    """``sorted(rows, key=row_sort_key)``, without a key call when possible.

    :func:`row_sort_key` stays the reference: the result is the same
    list, element for element, as the keyed sort. With ``pairs`` the
    items are updates' ``(old, new)`` row pairs and the reference is
    ``sorted(rows, key=pair_sort_key)``.

    When every column holds values of a single ``_TYPE_RANK`` class
    (decided from the values present, not from a schema), comparing two
    keys ``(rank, a)`` and ``(rank, b)`` runs exactly the ``==`` and
    ``<`` of ``a`` and ``b`` that comparing the rows natively runs. Both
    sorts are stable and see the same outcome for every comparison, so
    they produce the same permutation, ties (``1``/``1.0``, ``0``/``-0.0``)
    and NaNs included. Any other input (a NULL beside values, a bool
    beside numbers, mixed widths, an unsupported type) takes the keyed
    sort, which raises the usual :class:`EvaluationError` for an
    unsupported type.
    """
    rows = list(rows)
    if pairs:
        olds = [old for old, __ in rows]
        news = [new for __, new in rows]
        native = _one_rank_per_column(olds) and _one_rank_per_column(news)
        key = pair_sort_key
    else:
        native = _one_rank_per_column(rows)
        key = row_sort_key
    if native:
        rows.sort()
    else:
        rows.sort(key=key)
    return rows


class CanonicalFragment(tuple):
    """A memoized canonical form that hashes itself once.

    Execution-graph state keys embed whole tables' canonical forms and
    are hashed at every dict operation; a plain tuple re-hashes every
    row each time. Hash and equality are exactly the plain tuple's, so
    a fragment and the plain tuple of its items are interchangeable as
    dict keys and compare equal. The cached hash is only valid in the
    process that computed it (string hashes are salted per process),
    so pickling and copying rebuild the fragment without it.
    """

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = value = tuple.__hash__(self)
            return value

    def __reduce__(self):
        return (CanonicalFragment, (tuple(self),))


def _numeric(value: SqlValue, op: str) -> float | int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise EvaluationError(
            f"operator {op!r} needs numeric operands, got {type(value).__name__}"
        )
    return value


def sql_arithmetic(op: str, left: SqlValue, right: SqlValue) -> SqlValue:
    """Evaluate ``+ - * / %`` with NULL propagation."""
    if left is None or right is None:
        return None
    if op == "||":
        if not isinstance(left, str) or not isinstance(right, str):
            raise EvaluationError("'||' needs string operands")
        return left + right
    left_num = _numeric(left, op)
    right_num = _numeric(right, op)
    if op == "+":
        return left_num + right_num
    if op == "-":
        return left_num - right_num
    if op == "*":
        return left_num * right_num
    if op == "/":
        if right_num == 0:
            raise EvaluationError("division by zero")
        if isinstance(left_num, int) and isinstance(right_num, int):
            # SQL integer division truncates toward zero.
            quotient = abs(left_num) // abs(right_num)
            if (left_num < 0) != (right_num < 0):
                quotient = -quotient
            return quotient
        return left_num / right_num
    if op == "%":
        if right_num == 0:
            raise EvaluationError("modulo by zero")
        if not isinstance(left_num, int) or not isinstance(right_num, int):
            raise EvaluationError("'%' needs integer operands")
        return left_num - right_num * (
            abs(left_num) // abs(right_num)
            * (1 if (left_num < 0) == (right_num < 0) else -1)
        )
    raise EvaluationError(f"unknown arithmetic operator {op!r}")


def _comparable(left: SqlValue, right: SqlValue, op: str) -> None:
    left_is_num = isinstance(left, (int, float)) and not isinstance(left, bool)
    right_is_num = isinstance(right, (int, float)) and not isinstance(right, bool)
    if left_is_num and right_is_num:
        return
    if isinstance(left, str) and isinstance(right, str):
        return
    if isinstance(left, bool) and isinstance(right, bool):
        return
    raise EvaluationError(
        f"cannot compare {type(left).__name__} with {type(right).__name__} "
        f"using {op!r}"
    )


def sql_compare(op: str, left: SqlValue, right: SqlValue) -> bool | None:
    """Evaluate a comparison, returning True/False/None (UNKNOWN)."""
    if left is None or right is None:
        return None
    _comparable(left, right, op)
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise EvaluationError(f"unknown comparison operator {op!r}")


def sql_and(left: bool | None, right: bool | None) -> bool | None:
    """Kleene AND."""
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def sql_or(left: bool | None, right: bool | None) -> bool | None:
    """Kleene OR."""
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def sql_not(value: bool | None) -> bool | None:
    """Kleene NOT."""
    if value is None:
        return None
    return not value


def sql_is_truthy(value: SqlValue) -> bool:
    """Collapse a three-valued predicate result to row-keeping semantics."""
    return value is True


def sql_like(value: SqlValue, pattern: SqlValue) -> bool | None:
    """SQL LIKE with ``%`` (any run) and ``_`` (any single char)."""
    if value is None or pattern is None:
        return None
    if not isinstance(value, str) or not isinstance(pattern, str):
        raise EvaluationError("'like' needs string operands")

    # Dynamic-programming match, avoiding regex construction costs.
    memo: dict[tuple[int, int], bool] = {}

    def match(i: int, j: int) -> bool:
        key = (i, j)
        if key in memo:
            return memo[key]
        if j == len(pattern):
            result = i == len(value)
        else:
            char = pattern[j]
            if char == "%":
                result = match(i, j + 1) or (i < len(value) and match(i + 1, j))
            elif char == "_":
                result = i < len(value) and match(i + 1, j + 1)
            else:
                result = i < len(value) and value[i] == char and match(i + 1, j + 1)
        memo[key] = result
        return result

    return match(0, 0)


_SCALAR_FUNCTIONS = {
    "abs": lambda x: None if x is None else abs(_numeric(x, "abs")),
    "lower": lambda x: None if x is None else _require_str(x, "lower").lower(),
    "upper": lambda x: None if x is None else _require_str(x, "upper").upper(),
    "length": lambda x: None if x is None else len(_require_str(x, "length")),
}


def _require_str(value: SqlValue, name: str) -> str:
    if not isinstance(value, str):
        raise EvaluationError(f"{name}() needs a string operand")
    return value


def sql_scalar_function(name: str, args: list[SqlValue]) -> SqlValue:
    """Evaluate a non-aggregate function call."""
    try:
        function = _SCALAR_FUNCTIONS[name]
    except KeyError:
        raise EvaluationError(f"unknown function {name!r}") from None
    if len(args) != 1:
        raise EvaluationError(f"{name}() takes exactly one argument")
    return function(args[0])


def aggregate(name: str, values: list[SqlValue], distinct: bool) -> SqlValue:
    """Evaluate an aggregate over a column of values (NULLs dropped)."""
    present = [value for value in values if value is not None]
    if distinct:
        seen: list[SqlValue] = []
        for value in present:
            if value not in seen:
                seen.append(value)
        present = seen
    if name == "count":
        return len(present)
    if not present:
        return None
    if name == "sum":
        return sum(_numeric(value, "sum") for value in present)
    if name == "min":
        return min(present, key=sort_key)
    if name == "max":
        return max(present, key=sort_key)
    if name == "avg":
        total = sum(_numeric(value, "avg") for value in present)
        return total / len(present)
    raise EvaluationError(f"unknown aggregate {name!r}")
