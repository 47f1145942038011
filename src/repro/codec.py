"""The one codec: payloads from dataclass fields and type hints.

Every persisted or shipped value — stage artifacts, run-cache entries,
the measurements file and the service's wire bodies — is encoded by
:func:`encode` and decoded by :func:`decode`, driven by the fields and
type hints of its class.  One rule per shape:

* a dataclass is an object of its fields; a field declared with
  ``compare=False`` is not part of the value, so it is not encoded and
  decodes to its default;
* a class with ``__slots__`` (:class:`~repro.volume.symbolic.Volume`)
  is an object of its annotated slots, rebuilt through its constructor;
* a tuple or list is an array; a frozenset is an array sorted by
  encoded element;
* a dict with ``str`` keys is an object in insertion order; any other
  dict is an array of ``[key, value]`` pairs sorted by encoded key;
* an enum is its value; a float is a JSON number (its ``repr`` round
  trip); an ``np.ndarray`` is an array of floats;
* a value typed ``object`` (or ``Callable``, or an element of a bare
  ``tuple``) takes the *marked* form: ``{"__kind__": ...}`` objects for
  containers, enums, dataclasses and module-level callables, which are
  named ``module:qualname``.  Decoding one imports that module, as
  unpickling would: the campaign service is a cooperative fleet, not a
  boundary against hostile peers.

Decoding is strict.  A payload that does not match its type — a field
dropped, added or retyped, a string where an array belongs, an unknown
enum value, a value its class's constructor rejects with ``ValueError``
— raises :class:`~repro.errors.ArtifactError` naming the path of the bad
field (``nodes[17].calls``).  Nothing else is caught, so a codec bug
raises instead of reading as a cache miss.

Each type's encoder and decoder is generated once, on first use, as
straight-line Python with its primitive checks inline.  Like
:mod:`repro.store`, this module depends only on the standard library,
NumPy and the package's error types.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import importlib
import itertools
import json
import re
import types
import typing
from collections import abc
from operator import itemgetter
from typing import Callable

import numpy as np

from .errors import ArtifactError

#: Key of the marker objects of untyped (``object``) values.
KIND = "__kind__"

_PRIMITIVES = {
    int: "an integer",
    float: "a number",
    str: "a string",
    bool: "true or false",
}


class _Invalid(Exception):
    """A payload that does not match its type; becomes an ArtifactError."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message
        #: Path steps, innermost first (appended while unwinding).
        self.steps: list[str] = []

    def at(self, step: str) -> "_Invalid":
        self.steps.append(step)
        return self

    def path(self) -> str:
        return "".join(reversed(self.steps)).lstrip(".")


def _describe(value: object) -> str:
    kind = {
        dict: "an object",
        list: "an array",
        str: "a string",
        bool: "a boolean",
        int: "an integer",
        float: "a number",
        type(None): "null",
    }.get(type(value), type(value).__name__)
    text = repr(value)
    return f"{kind} {text[:40]}{'...' if len(text) > 40 else ''}"


def _bad(value: object, expected: str):
    raise _Invalid(f"expected {expected}, got {_describe(value)}")


def _float(value: object) -> float:
    if type(value) is int:
        return float(value)
    _bad(value, "a number")


def _bad_fields(value: object, names: frozenset) -> None:
    if type(value) is not dict:
        _bad(value, "an object")
    missing = sorted(names.difference(value))
    extra = sorted(set(value).difference(names))
    detail = []
    if missing:
        detail.append(f"missing {', '.join(missing)}")
    if extra:
        detail.append(f"unexpected {', '.join(map(str, extra))}")
    raise _Invalid(f"fields do not match: {'; '.join(detail)}")


def _locate(error: _Invalid, labelled, decode_item) -> _Invalid:
    """*error* at the first ``(label, item)`` that fails to decode (the
    slow path that names an element, taken only after a failure)."""
    for label, item in labelled:
        try:
            decode_item(item)
        except _Invalid as inner:
            return inner.at(label)
    return error


# ----------------------------------------------------------------------
# encoding helpers (the slow branch of each inline primitive check)


def _enc_error(value: object, expected: str) -> ArtifactError:
    return ArtifactError(
        f"cannot encode {type(value).__name__} value {value!r}: "
        f"expected {expected}"
    )


def _eint(value: object) -> int:
    if isinstance(value, (int, np.integer)) and not isinstance(
        value, (bool, np.bool_)
    ):
        return int(value)
    raise _enc_error(value, "an integer")


def _efloat(value: object) -> float:
    if isinstance(value, (int, float, np.integer, np.floating)) and not (
        isinstance(value, (bool, np.bool_))
    ):
        return float(value)
    raise _enc_error(value, "a number")


def _ebool(value: object) -> bool:
    if isinstance(value, np.bool_):
        return bool(value)
    raise _enc_error(value, "a boolean")


def _enone(value: object) -> None:
    raise _enc_error(value, "None")


def _eseq(value: object) -> list:
    raise _enc_error(value, "a tuple or list")


def _eset(value: object) -> list:
    raise _enc_error(value, "a set or frozenset")


def _earray(value: object) -> list:
    array = np.asarray(value, dtype=float)
    if array.ndim != 1:
        raise _enc_error(value, "a one-dimensional array")
    return array.tolist()


def _darray(value: object) -> np.ndarray:
    if type(value) is not list:
        _bad(value, "an array of numbers")
    for item in value:
        if type(item) is not float and type(item) is not int:
            _bad(item, "a number")
    return np.array(value, dtype=float)


def _strs(value: list) -> bool:
    """Whether every item of *value* is a string (one C-level pass)."""
    try:
        "".join(value)
    except TypeError:
        return False
    return True


def _json_key(encoded: object) -> str:
    return json.dumps(encoded, sort_keys=True)


# ----------------------------------------------------------------------
# untyped values: the marked form


def _ref_of(obj: object) -> str:
    module = getattr(obj, "__module__", None)
    qualname = getattr(obj, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname:
        raise ArtifactError(
            f"cannot encode {obj!r}: only module-level functions and "
            "classes are addressable by reference (define it at module "
            "scope so workers can import it)"
        )
    return f"{module}:{qualname}"


def _resolve(ref: object):
    module_name, _, qualname = str(ref).partition(":")
    if not module_name or not qualname:
        raise _Invalid(f"malformed reference {ref!r}")
    try:
        obj = importlib.import_module(module_name)
    except (ImportError, TypeError, ValueError) as exc:
        raise _Invalid(
            f"cannot resolve reference {ref!r}: {exc} — the decoding "
            "process must have the same code importable as the encoder"
        ) from None
    for part in qualname.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            raise _Invalid(
                f"cannot resolve reference {ref!r}: module "
                f"'{module_name}' has no attribute path '{qualname}'"
            ) from None
    return obj


def _encode_any(value: object) -> object:
    """The marked form of an untyped value."""
    # Enums before primitives: str-mixin enums keep their identity.
    if isinstance(value, enum.Enum):
        return {
            KIND: "enum",
            "ref": _ref_of(type(value)),
            "value": _encode_any(value.value),
        }
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            KIND: "dataclass",
            "ref": _ref_of(type(value)),
            "fields": {
                f.name: _encode_any(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, (list, tuple)):
        return {
            KIND: "tuple" if isinstance(value, tuple) else "list",
            "items": [_encode_any(item) for item in value],
        }
    if isinstance(value, (set, frozenset)):
        return {
            KIND: "frozenset" if isinstance(value, frozenset) else "set",
            "items": sorted(map(_encode_any, value), key=_json_key),
        }
    if isinstance(value, abc.Mapping):
        return {
            KIND: "dict",
            "items": [[_encode_any(k), _encode_any(v)] for k, v in value.items()],
        }
    if callable(value):
        return {KIND: "ref", "ref": _ref_of(value)}
    raise ArtifactError(
        f"cannot encode {type(value).__name__} value {value!r}: supported "
        "are JSON primitives, containers, enums, dataclasses and "
        "module-level callables"
    )


def _items(value: dict, key: str) -> list:
    items = value.get(key)
    if type(items) is not list:
        raise _Invalid(f"expected an array, got {_describe(items)}").at(
            f".{key}"
        )
    return items


def _decode_any(value: object) -> object:
    """Inverse of :func:`_encode_any`."""
    if value is None or type(value) in (bool, int, float, str):
        return value
    if type(value) is list:
        return [_decode_any(item) for item in value]
    if type(value) is not dict:
        _bad(value, "a JSON value")
    kind = value.get(KIND)
    if kind in ("tuple", "list", "set", "frozenset"):
        items = [_decode_any(item) for item in _items(value, "items")]
        if kind == "list":
            return items
        try:
            return {"tuple": tuple, "set": set, "frozenset": frozenset}[kind](
                items
            )
        except TypeError as exc:
            raise _Invalid(f"cannot build a {kind}: {exc}") from None
    if kind == "dict":
        out = {}
        for pair in _items(value, "items"):
            if type(pair) is not list or len(pair) != 2:
                _bad(pair, "a [key, value] pair")
            key = _decode_any(pair[0])
            try:
                out[key] = _decode_any(pair[1])
            except TypeError as exc:
                raise _Invalid(f"unusable dict key: {exc}") from None
        return out
    if kind == "enum":
        cls = _resolve(value.get("ref"))
        if not (isinstance(cls, type) and issubclass(cls, enum.Enum)):
            raise _Invalid(f"reference {value.get('ref')!r} is not an enum")
        try:
            return cls(_decode_any(value.get("value")))
        except ValueError as exc:
            raise _Invalid(str(exc)) from None
    if kind == "dataclass":
        cls = _resolve(value.get("ref"))
        if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
            raise _Invalid(
                f"reference {value.get('ref')!r} is not a dataclass"
            )
        fields = value.get("fields")
        if type(fields) is not dict:
            _bad(fields, "an object of fields")
        try:
            return cls(**{k: _decode_any(v) for k, v in fields.items()})
        except (TypeError, ValueError) as exc:
            raise _Invalid(
                f"cannot rebuild {value.get('ref')!r} from its fields: {exc}"
            ) from None
    if kind == "ref":
        return _resolve(value.get("ref"))
    raise _Invalid(f"unknown value kind {kind!r}")


def _decode_callable(value: object) -> Callable:
    out = _decode_any(value)
    if not callable(out):
        raise _Invalid(f"{value!r} did not resolve to a callable")
    return out


# ----------------------------------------------------------------------
# generated codecs

_SEQUENCES = (tuple, list, abc.Sequence)
_SETS = (frozenset, set, abc.Set)
_MAPPINGS = (dict, abc.Mapping)

#: Namespace of every generated function: the helpers above plus one
#: entry per built function and per constant it needs.
_NS: dict = {
    name: value
    for name, value in globals().items()
    if name.startswith(("_e", "_d", "_bad", "_float", "_locate", "_json"))
}
_NS.update(
    _Invalid=_Invalid,
    _strs=_strs,
    _first=itemgetter(0),
    _SEQS=(tuple, list),
    _SETS=(frozenset, set),
    _NUMS=frozenset({float, int}),
    _INTS=frozenset({int}),
    _BOOLS=frozenset({bool}),
)
_ENCODERS: dict = {}
_DECODERS: dict = {}
_ids = itertools.count()


def _normalise(tp) -> tuple:
    """``(kind, args)`` of a type hint."""
    if tp is typing.Any or tp is object:
        return "any", ()
    if tp is None or tp is type(None):
        return "none", ()
    if tp in _PRIMITIVES:
        return "primitive", (tp,)
    if tp is np.ndarray:
        return "ndarray", ()
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union or origin is types.UnionType:
        if len(args) != 2 or type(None) not in args:
            raise TypeError(f"codec supports only X | None unions, not {tp}")
        return "optional", tuple(a for a in args if a is not type(None))
    if tp is abc.Callable or origin is abc.Callable:
        return "callable", ()
    if origin is None and (tp in _SEQUENCES or tp in _SETS or tp in _MAPPINGS):
        origin = tp
    if origin in _SEQUENCES:
        if origin is tuple and args and (len(args) != 2 or args[1] is not ...):
            return "fixed", args
        return ("tuple" if origin is tuple else "list"), (args or (object,))[:1]
    if origin in _SETS:
        return "set", args or (object,)
    if origin in _MAPPINGS:
        args = args or (object, object)
        return ("object" if args[0] is str else "pairs"), args
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return "enum", (tp,)
    if dataclasses.is_dataclass(tp) or hasattr(tp, "__slots__"):
        return "record", (tp,)
    raise TypeError(f"codec has no rule for {tp!r}")


def _inline(tp) -> bool:
    """Whether *tp* codes in an inline expression (no function of its own):
    primitives, arrays of primitives, and fixed tuples of such."""
    kind, args = _normalise(tp)
    if kind in ("tuple", "list", "set"):
        return args[0] in _PRIMITIVES
    if kind == "fixed":
        return all(_inline(a) for a in args)
    return kind in ("primitive", "none", "any", "callable", "ndarray")


@functools.cache
def _record_fields(cls) -> tuple[list, bool]:
    """``([(name, hint)], positional)``: the encoded fields of *cls* and
    whether its constructor takes them positionally."""
    hints = typing.get_type_hints(cls)
    if not dataclasses.is_dataclass(cls):
        return [(name, hints[name]) for name in cls.__slots__], False
    encoded, init = [], []
    for f in dataclasses.fields(cls):
        if f.init:
            init.append(f.name)
        if f.compare:
            encoded.append((f.name, hints[f.name]))
        elif f.init and f.default is f.default_factory is dataclasses.MISSING:
            raise TypeError(
                f"{cls.__name__}.{f.name}: a field left out of the value "
                "(compare=False) needs a default"
            )
    names = [name for name, _ in encoded]
    return encoded, names == init[: len(names)]


def _const(value: object) -> str:
    name = f"_c{next(_ids)}"
    _NS[name] = value
    return name


def _function(prefix: str, body: str, cache: dict, tp) -> Callable:
    name = f"{prefix}{next(_ids)}"
    source = f"def {name}({'v' if prefix == '_d' else 'x'}):\n{body}\n"
    exec(compile(source, f"<codec {name}>", "exec"), _NS)
    cache[tp] = fn = _NS[name]
    return fn


# -- decoders -------------------------------------------------------------


def _dexpr(tp, v: str) -> str:
    """Source of an expression decoding *v* (a local or a subscript) as
    *tp*; primitives and arrays of primitives are checked inline."""
    kind, args = _normalise(tp)
    if kind == "primitive":
        t = args[0]
        if t is float:
            return f"({v} if type({v}) is float else _float({v}))"
        return f"({v} if type({v}) is {t.__name__} else _bad({v}, {_PRIMITIVES[t]!r}))"
    if kind in ("tuple", "list", "set") and _inline(tp):
        t = args[0]
        build = {"tuple": "tuple", "list": "list", "set": "frozenset"}[kind]
        check = {
            str: f"_strs({v})",
            float: f"_NUMS.issuperset(map(type, {v}))",
            int: f"_INTS.issuperset(map(type, {v}))",
            bool: f"_BOOLS.issuperset(map(type, {v}))",
        }[t]
        items = f"map(float, {v})" if t is float else v
        return (
            f"({build}({items}) if type({v}) is list and {check} "
            f"else _bad({v}, 'an array of {t.__name__}'))"
        )
    if kind == "fixed" and _inline(tp):
        items = "".join(f"{_dexpr(a, f'{v}[{i}]')}, " for i, a in enumerate(args))
        return (
            f"(({items}) if type({v}) is list and len({v}) == {len(args)} "
            f"else _bad({v}, 'an array of {len(args)}'))"
        )
    if kind == "none":
        return f"({v} if {v} is None else _bad({v}, 'null'))"
    if kind in ("any", "callable", "ndarray"):
        return f"_{'darray' if kind == 'ndarray' else 'decode_' + kind}({v})"
    return f"{(_DECODERS.get(tp) or _build_decoder(tp)).__name__}({v})"


def _build_decoder(tp) -> Callable:
    kind, args = _normalise(tp)
    if _inline(tp):
        body = f"    return {_dexpr(tp, 'v')}"
    elif kind == "optional":
        body = f"    return None if v is None else {_dexpr(args[0], 'v')}"
    elif kind == "enum":
        members = {m.value: m for m in args[0]}
        types_ = _const(tuple({type(k) for k in members}))
        body = (
            f"    m = {_const(members)}.get(v) if type(v) in {types_} else None\n"
            f"    return m if m is not None else "
            f"_bad(v, {'one of ' + ', '.join(map(repr, members))!r})"
        )
    elif kind == "fixed":
        body = _fields_body(
            [(f"[{i}]", i, a) for i, a in enumerate(args)],
            f"type(v) is not list or len(v) != {len(args)}",
            f"_bad(v, 'an array of {len(args)}')",
        ) + f"\n    return ({''.join(f'a{i}, ' for i in range(len(args)))})"
    elif kind == "record":
        body = _record_body(args[0])
    else:
        body = _container_body(kind, args)
    return _function("_d", body, _DECODERS, tp)


def _container_body(kind: str, args: tuple) -> str:
    item = _dexpr(args[-1], "e")
    call = re.fullmatch(r"(\w+)\(e\)", item)  # one function per item
    labels = "(('[%d]' % i, e) for i, e in enumerate(v))"
    slow = f"lambda e: {item}"
    if kind == "object":  # JSON object keys are strings
        loop = (
            f"dict(zip(v, map({call.group(1)}, v.values())))"
            if call
            else f"{{k: {item} for k, e in v.items()}}"
        )
        labels = "(('[%r]' % (k,), e) for k, e in v.items())"
    elif kind == "pairs":
        loop = (
            f"{{{_dexpr(args[0], 'k')}: {item} for p in v for k, e in "
            "[p if type(p) is list and len(p) == 2 else "
            "_bad(p, 'a [key, value] pair')]}"
        )
        slow = f"lambda q: {loop.replace(' for p in v ', ' for p in [q] ')}"
    else:
        build = {"tuple": "tuple", "list": "list", "set": "frozenset"}[kind]
        loop = (
            f"{build}(map({call.group(1)}, v))"
            if call
            else f"{build}([{item} for e in v])"
        )
    json_type = "dict" if kind == "object" else "list"
    marked = f" or {KIND!r} in v" if kind == "object" else ""
    return (
        f"    if type(v) is not {json_type}{marked}:\n"
        f"        _bad(v, {'a plain object' if marked else 'an array'!r})\n"
        f"    try:\n        return {loop}\n"
        f"    except _Invalid as exc:\n"
        f"        raise _locate(exc, {labels}, {slow}) from None"
    )


def _fields_body(fields, mismatch: str, fail: str) -> str:
    """Statements binding ``a0``, ``a1``, ... to the decoded *fields*
    ``(path step, subscript, hint)`` of ``v``; *fail* runs when
    *mismatch* holds or a subscript is missing."""
    lines = [f"    if {mismatch}:", f"        {fail}", "    f = ''", "    try:"]
    for i, (step, subscript, hint) in enumerate(fields):
        lines.append(f"        f = {step!r}; a{i} = v[{subscript!r}]")
        lines.append(f"        a{i} = {_dexpr(hint, f'a{i}')}")
    lines += ["    except _Invalid as exc:", "        raise exc.at(f) from None"]
    lines += ["    except (KeyError, IndexError):", f"        {fail}"]
    return "\n".join(lines)


def _record_body(cls) -> str:
    fields, positional = _record_fields(cls)
    keys = _const(frozenset(n for n, _ in fields))
    body = _fields_body(
        [(f".{n}", n, hint) for n, hint in fields],
        f"type(v) is not dict or len(v) != {len(fields)}",
        f"_bad_fields(v, {keys})",
    )
    args = ", ".join(
        f"a{i}" if positional else f"{n}=a{i}" for i, (n, _) in enumerate(fields)
    )
    call = f"{_const(cls)}({args})"
    if getattr(cls, "__post_init__", None) is None and positional:
        return body + f"\n    return {call}"
    # A constructor may reject the decoded fields (an arity check, a
    # canonical form): that is a malformed payload, not a codec bug.
    return body + (
        f"\n    try:\n        return {call}\n"
        "    except ValueError as exc:\n"
        "        raise _Invalid(str(exc)) from None"
    )


# -- encoders -------------------------------------------------------------


def _eexpr(tp, v: str, depth: int = 0) -> str:
    """Source of one expression encoding *v* (a local, subscript or
    attribute) as *tp*: every rule is inlined, comprehensions binding
    ``e<depth>``/``k<depth>``, so encoding calls no function per value."""
    kind, args = _normalise(tp)
    e, k, d = f"e{depth}", f"k{depth}", depth + 1
    if kind == "primitive":
        if args[0] is str:  # json writes str subclasses as strings
            return v
        t = args[0].__name__
        return f"({v} if type({v}) is {t} else _e{t}({v}))"
    if kind == "none":
        return f"({v} if {v} is None else _enone({v}))"
    if kind in ("any", "callable", "ndarray"):
        return f"_{'earray' if kind == 'ndarray' else 'encode_any'}({v})"
    if kind == "optional":
        return f"(None if {v} is None else {_eexpr(args[0], v, depth)})"
    if kind == "enum":
        cls = _const(args[0])
        return f"({v}.value if type({v}) is {cls} else {cls}({v}).value)"
    if kind == "record":
        fields, _ = _record_fields(args[0])
        items = ", ".join(
            f"{n!r}: {_eexpr(hint, f'{v}.{n}', depth)}" for n, hint in fields
        )
        return f"{{{items}}}"
    if kind == "fixed":
        items = ", ".join(
            _eexpr(a, f"{v}[{i}]", depth) for i, a in enumerate(args)
        )
        return f"([{items}] if len({v}) == {len(args)} else _eseq({v}))"
    if kind == "object":
        return f"{{{k}: {_eexpr(args[1], e, d)} for {k}, {e} in {v}.items()}}"
    if kind == "pairs":
        return (
            f"sorted([[{_eexpr(args[0], k, d)}, {_eexpr(args[1], e, d)}] "
            f"for {k}, {e} in {v}.items()], key=_first)"
        )
    items = f"[{_eexpr(args[0], e, d)} for {e} in {v}]"
    if args[0] in _PRIMITIVES:
        items = f"map(float, {v})" if args[0] is float else v
    if kind == "set":
        return f"(sorted({items}) if type({v}) in _SETS else _eset({v}))"
    if args[0] in _PRIMITIVES:
        items = f"list({items})"
    return f"({items} if type({v}) in _SEQS else _eseq({v}))"


def _build_encoder(tp) -> Callable:
    return _function("_e", f"    return {_eexpr(tp, 'x')}", _ENCODERS, tp)


# ----------------------------------------------------------------------
# the interface


def encode(value: object, cls: object = None) -> object:
    """JSON-able data of *value*, by the type hints of *cls* (default:
    the value's own type).  Raises :class:`ArtifactError` for a value
    that does not fit its type."""
    tp = type(value) if cls is None else cls
    fn = _ENCODERS.get(tp)
    if fn is None:
        fn = _build_encoder(tp)
    return fn(value)


def decode(cls: object, payload: object):
    """The *cls* value *payload* encodes.

    Raises :class:`ArtifactError`, naming the path of the bad field, for
    a payload that does not match *cls*.
    """
    fn = _DECODERS.get(cls)
    if fn is None:
        fn = _build_decoder(cls)
    try:
        return fn(payload)
    except _Invalid as exc:
        where = exc.path()
        raise ArtifactError(
            f"malformed {getattr(cls, '__name__', cls)} payload"
            f"{f' at {where}' if where else ''}: {exc.message}"
        ) from None
