"""One grammar for every ``head[:key=value,...]`` spec string.

Topologies (``torus:k=4,n=2``), fault scenarios (``faults:seed=7,...``),
power policies (``policy:hca=gate,...``) and job streams
(``poisson:n=3,...``) all share it.  :func:`tokenize` splits a spec into
its head and ``(key, value)`` items.  A :class:`Schema` of :class:`Key`
rows (name, type, default, range) coerces and checks the items, checks a
directly built dataclass the same way, and prints ``describe()`` and the
help text from the same table.  The rules are the same everywhere: an
empty item, an item without ``=``, an unknown and a repeated key are
errors; a number must be finite and in its key's range; a value prints
back to exactly itself (:func:`format_value`).  Each grammar adds only
its own semantics and its own :class:`SpecError` subclass.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Iterable


class SpecError(ValueError):
    """A malformed spec string or value: the service answers it with
    ``BAD_REQUEST``, the CLI with one line and exit status 2."""


def split_item(
    item: str, error: type[SpecError] = SpecError
) -> tuple[str, str]:
    """``" key = value "`` -> ``("key", "value")``, both non-empty."""

    key, sep, value = item.partition("=")
    key, value = key.strip(), value.strip()
    if not (sep and key and value):
        raise error(f"spec entry {item!r} is not key=value")
    return key, value


def tokenize(
    text: str, error: type[SpecError] = SpecError
) -> tuple[str, list[tuple[str, str]]]:
    """``head[:key=value,...]`` -> ``(head, [(key, value), ...])``.

    Repeated keys are the reading :class:`Schema`'s to reject: a policy
    spec repeats a key legitimately, once per link class.
    """

    head, _, body = text.strip().partition(":")
    if not body:
        return head.strip(), []
    return head.strip(), [split_item(item, error) for item in body.split(",")]


def format_value(value) -> str:
    """Spec text that parses back to exactly ``value``: a float prints
    as ``:g`` (``400``, ``0.25``) when that is exact, else as ``repr``."""

    if isinstance(value, float):
        text = f"{value:g}"
        return text if float(text) == value else repr(value)
    return str(value)


@dataclasses.dataclass(frozen=True, slots=True)
class Key:
    """One parameter: its coercion, default and ``[lo, hi]`` range
    (``open_lo``: ``lo`` itself is excluded)."""

    name: str
    type: Callable[[str], object]
    default: object = None
    lo: float | None = None
    hi: float | None = None
    open_lo: bool = False
    #: the default as help texts show it, when not its value
    shown: str | None = None
    #: what the value is, for range errors (``"a probability"``)
    what: str = ""

    def problem(self, value) -> str | None:
        """Why ``value`` is not acceptable, or None."""

        if value is None or self.type is str:
            return None
        if isinstance(value, float) and not math.isfinite(value):
            return f"{self.name} must be finite, got {value}"
        lo, hi = self.lo, self.hi
        if lo is not None and (value <= lo if self.open_lo else value < lo):
            bound = f"{'>' if self.open_lo else '>='} {lo:g}"
        elif hi is not None and value > hi:
            bound = f"<= {hi:g}"
        else:
            return None
        if lo is not None and hi is not None:
            bound = f"in {'(' if self.open_lo else '['}{lo:g}, {hi:g}]"
        what = f"{self.what} " if self.what else ""
        return f"{self.name} must be {what}{bound}, got {value}"

    def help(self) -> str:
        if self.shown is not None:
            return f"{self.name}={self.shown}"
        if self.default is None:
            return self.name
        return f"{self.name}={format_value(self.default)}"


def spec_field(default, type=None, **rules) -> dataclasses.Field:
    """A dataclass field that is also a :class:`Key` of its class's
    :meth:`Schema.of` table (``type`` defaults to the default's)."""

    rules["type"] = type or default.__class__
    return dataclasses.field(default=default, metadata={"key": rules})


class Schema:
    """The keys of one grammar, topology family or stream kind.

    ``label`` prefixes every error, raised as ``error``; an unknown key's
    error shows the syntax ``head[:key=default,...]``.
    """

    def __init__(
        self, label: str, error: type[SpecError], keys: Iterable[Key],
        head: str | None = None,
    ) -> None:
        self.label = label
        self.error = error
        self.keys = {k.name: k for k in keys}
        self.head = head or label

    @classmethod
    def of(cls, datacls, label: str, error: type[SpecError],
           head: str | None = None) -> "Schema":
        """The table of ``datacls``'s :func:`spec_field` fields."""

        return cls(label, error, (
            Key(f.name, default=f.default, **f.metadata["key"])
            for f in dataclasses.fields(datacls) if "key" in f.metadata
        ), head)

    def parse(
        self, items: Iterable[tuple[str, str]], spec: str, *,
        defaults: bool = False,
    ) -> dict:
        """Coerce and check ``items``; ``defaults`` fills in the rest."""

        out: dict = {}
        for name, raw in items:
            key = self.keys.get(name)
            if key is None:
                raise self.error(
                    f"{self.label}: unknown parameter {name!r} in {spec!r}; "
                    f"syntax: {self.syntax()}"
                )
            if name in out:
                problem = f"{name} given twice"
            else:
                try:
                    out[name] = key.type(raw)
                except ValueError:
                    problem = (f"{name}={raw!r} is not numeric "
                               f"(want {key.type.__name__})")
                else:
                    problem = key.problem(out[name])
            if problem:
                raise self.error(f"{self.label}: {problem} in {spec!r}")
        for key in self.keys.values() if defaults else ():
            out.setdefault(key.name, key.default)
        return out

    def check(self, obj) -> None:
        """The per-key rules on ``obj``'s attributes (a dataclass's
        ``__post_init__``: direct construction is checked like a parse)."""

        for key in self.keys.values():
            problem = key.problem(getattr(obj, key.name))
            if problem:
                raise self.error(f"{self.label}: {problem}")

    def describe(self, obj, always: tuple[str, ...] = ()) -> list[str]:
        """``key=value`` per set, non-default (or ``always``) attribute."""

        return [
            f"{key.name}={format_value(value)}"
            for key in self.keys.values()
            if (value := getattr(obj, key.name)) is not None
            and (key.name in always or value != key.default)
        ]

    def help(self) -> str:
        return ", ".join(k.help() for k in self.keys.values())

    def syntax(self) -> str:
        """``head[:key=default,...]``, for help texts."""

        keys = ",".join(k.help() for k in self.keys.values())
        return f"{self.head}[:{keys}]"
