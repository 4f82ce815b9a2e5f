"""Hypothesis strategies generated from a spec grammar's schema.

:func:`valid_items` draws the ``key=value,...`` text of any subset of a
:class:`repro.specs.Schema`'s keys, every value inside its key's range;
:func:`spec_text` draws arbitrary text over a grammar's alphabet.  The
grammar tests use one of each per schema: valid specs must parse (and
round-trip through ``describe()`` where the grammar has one); any text
must parse or raise that grammar's ``SpecError`` subclass, within
:data:`FUZZ`'s deadline.
"""

from __future__ import annotations

from datetime import timedelta

from hypothesis import settings, strategies as st

from repro.specs import Key, Schema, format_value

#: a parse takes microseconds to milliseconds: a second means a hang
FUZZ = settings(max_examples=300, deadline=timedelta(seconds=1))

#: the characters and words every grammar is spelled with
ALPHABET = (*":,=|@x.-", *"0123456789", "nan", "inf")


def value_text(key: Key) -> st.SearchStrategy[str]:
    """Spec text of a value of ``key`` inside its range."""

    if key.type is int:
        lo = -10**9 if key.lo is None else int(key.lo)
        hi = 10**9 if key.hi is None else int(key.hi)
        return st.integers(lo, hi).map(str)
    if key.type is float:
        return st.floats(
            -1e12 if key.lo is None else key.lo,
            1e12 if key.hi is None else key.hi,
            exclude_min=key.open_lo,
            allow_nan=False,
            allow_infinity=False,
        ).map(format_value)
    raise TypeError(f"{key.name}: pass a strategy for {key.type.__name__}")


def valid_items(schema: Schema, **overrides) -> st.SearchStrategy[str]:
    """``key=value,...`` over any subset of ``schema``'s keys, in table
    order; ``overrides`` maps a key to its own value-text strategy."""

    return st.fixed_dictionaries({}, optional={
        name: overrides[name] if name in overrides else value_text(key)
        for name, key in schema.keys.items()
    }).map(lambda d: ",".join(f"{k}={v}" for k, v in d.items()))


def spec_text(*words: str) -> st.SearchStrategy[str]:
    """Arbitrary text over :data:`ALPHABET` and ``words`` (heads and
    key names)."""

    return st.lists(
        st.sampled_from(ALPHABET + words), max_size=24
    ).map("".join)
