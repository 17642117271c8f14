"""Information-model registry and payload codec.

Gives the fleet M2M semantic interoperability: a vocabulary of thing
classes arranged in a single-parent taxonomy, typed-scalar payload
encoding (``n:``/``s:``/``b:``/``t:`` prefixes), and payload
validation against class definitions. A number must lie within its
property's ``min`` and ``max``; ``nan`` lies within no bound, so it is
``out_of_range`` under any bound, as an infinity beyond one is.

The report codec resolves what repeats once and handles per frame only
what changes. One frame template per (node, channel, unit, tags) serves
both directions: the JSON text around a float value, ``DateTime`` and an
int ``seq``, built once by the one shared JSON encoder.

- Edge: ``encode_report`` writes such a reading from its template. Any
  other reading, or one whose unit or tag is not a str or whose tag key
  is ``id``, ``unit``, ``DateTime``, ``seq`` or the channel's own, is
  encoded whole.
- Gateway: ``ModelRegistry.report_plan`` resolves a class into its
  effective properties and the names of the required ones on the
  class's first report, and the full decode of ``decode_report`` checks
  each key against that plan as it parses it, so a frame is parsed and
  validated in one pass.
- Learning a shape: when the full decode accepts a one-line frame under
  a plan and the template of the decoded reading renders it byte for
  byte, the plan keeps the frame's shape, keyed by its text up to the
  value: the template's three texts, the ``ChannelKey``, the unit, one
  tags dict that all readings of the shape share, and the value's
  ``PropertyDef``. A shape lives in its plan, so it never serves another
  class or another registry.
- Fast path: a frame that starts with a learned key is split at the
  shape's texts, and its value, ``DateTime`` and seq must be in the
  grammars the template writes (``_NUMBER_RE``, ``FORMAT_TS_RE``,
  ``[1-9][0-9]*``); none of them needs JSON escaping, so the frame is the
  learned one with three fields changed, and only the value is checked
  against its property. Any mismatch falls back to the full decode, so a
  frame gets the verdict, readings and exception it would get there.

The templates, the shapes of each plan, the parsed ``TypedScalar`` of a
repeated unit or tag value and the ``ChannelKey`` of a repeated
node/channel pair sit in memos of ``TEXT_MEMO_SIZE`` entries each. They
are bounded because their keys come from outside the program (payload
text, and the units and tags a fleet is configured with); a text that
fails to parse is never cached. Other modules' memos keyed by outside
input (the audit text and route plans of ``cloudgw``, the source plans of
``streams``) are bounded the same way, the dict ones through
``reading.remember``.
"""

from __future__ import annotations

import json
import math
import re
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType

from .reading import TEXT_MEMO_SIZE, ChannelKey, Reading, is_token, remember
from .timeutil import FORMAT_TS_RE, BadTimestamp, format_ts, parse_ts

DATATYPES = {"number", "integer", "string", "boolean", "timestamp", "enum"}
INTERACTION_KINDS = {"read", "write", "invoke", "event"}
RESERVED_KEYS = {"id", "DateTime", "seq"}
# The relations class links may use.
DEFAULT_RELATIONS = frozenset({"part_of", "regulated_by", "composed_of", "contains"})

SCALAR_PREFIXES = {"n", "s", "b", "t"}

# The text of an ``n:`` scalar: JSON's number grammar, plus the texts
# number_text writes for values that are not finite. Matched whole.
_NUMBER_RE = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|nan|-?inf")


def number_text(value: float) -> str:
    """Canonical decimal text for a numeric value.

    Integral values drop the trailing ``.0`` so that 72 and 72.0 compare
    equal after encoding; everything else uses the shortest repr that
    round-trips through float exactly.
    """
    v = float(value)
    if v.is_integer() and abs(v) < 1e15:
        return repr(int(v))
    return repr(v)


class ModelError(Exception):
    """Base for information-model violations."""


class DuplicateClass(ModelError):
    pass


class UnknownParent(ModelError):
    pass


class TaxonomyCycle(ModelError):
    pass


class PropertyConflict(ModelError):
    pass


class UnknownClass(ModelError):
    pass


class UnknownRelation(ModelError):
    pass


class MalformedText(ModelError):
    """Payload text is not decodable at all."""


class UnknownPrefix(ModelError):
    """Typed scalar carries a prefix outside {n, s, b, t}."""


@dataclass(frozen=True, slots=True)
class TypedScalar:
    """A value with an explicit wire type: kind prefix + canonical text."""

    kind: str  # n | s | b | t
    text: str

    def __post_init__(self):
        if self.kind not in SCALAR_PREFIXES:
            raise UnknownPrefix(f"unknown scalar prefix {self.kind!r}")

    def encode(self) -> str:
        return f"{self.kind}:{self.text}"


def parse_scalar(text: str) -> TypedScalar:
    """Parse a wire value. ``x:...`` with an unknown single-letter prefix
    is an error; anything without a prefix shape is a bare string."""
    if type(text) is not str:
        raise MalformedText(f"a scalar is text, not {text!r}")
    if len(text) >= 2 and text[1] == ":" and text[0].isalpha():
        prefix, body = text[0], text[2:]
        if prefix not in SCALAR_PREFIXES:
            raise UnknownPrefix(f"unknown scalar prefix {prefix!r} in {text!r}")
        if prefix == "n" and not _NUMBER_RE.fullmatch(body):
            raise MalformedText(f"bad number text: {body!r}")
        if prefix == "t":
            body, _ = _parse_t_body(body)
        return TypedScalar(prefix, body)
    return TypedScalar("s", text)


def _parse_t_body(body: str) -> tuple[str, float]:
    """Canonical text and epoch seconds of a ``t:`` body; raises
    BadTimestamp."""
    # tolerate the legacy "...Z UTC" form on input
    if body.endswith(" UTC"):
        body = body[:-4]
    return body, parse_ts(body)


@dataclass(slots=True)
class PropertyDef:
    name: str
    datatype: str
    unit: str = ""
    writable: bool = False
    min: float | None = None
    max: float | None = None
    required: bool = False
    enum_values: tuple[str, ...] = ()

    def __post_init__(self):
        if not is_token(self.name):
            raise ModelError(f"property name is not a vocabulary token: {self.name!r}")
        if self.datatype not in DATATYPES:
            raise ModelError(f"unknown datatype {self.datatype!r}")
        if (self.min is not None or self.max is not None) and self.datatype not in (
            "number",
            "integer",
        ):
            raise ModelError(f"bounds only apply to numeric properties: {self.name}")
        if self.min is not None and self.max is not None and self.min > self.max:
            raise ModelError(f"min > max on {self.name}")
        if self.datatype == "enum" and not self.enum_values:
            raise ModelError(f"enum property {self.name} needs allowed values")


@dataclass(slots=True)
class InteractionDef:
    name: str
    kind: str
    target_property: str | None = None

    def __post_init__(self):
        if not is_token(self.name):
            raise ModelError(f"interaction name is not a vocabulary token: {self.name!r}")
        if self.kind not in INTERACTION_KINDS:
            raise ModelError(f"unknown interaction kind {self.kind!r}")


@dataclass(slots=True)
class LinkDef:
    relation: str
    target: str  # instance id or class name
    cardinality: str = "one"  # one | many

    def __post_init__(self):
        if not is_token(self.relation):
            raise ModelError(f"relation is not a vocabulary token: {self.relation!r}")
        if self.cardinality not in ("one", "many"):
            raise ModelError(f"bad cardinality {self.cardinality!r}")


@dataclass(slots=True)
class ObjectClass:
    name: str
    parent: str | None = None
    properties: list[PropertyDef] = field(default_factory=list)
    interactions: list[InteractionDef] = field(default_factory=list)
    links: list[LinkDef] = field(default_factory=list)

    def __post_init__(self):
        if not is_token(self.name):
            raise ModelError(f"class name is not a vocabulary token: {self.name!r}")
        seen = set()
        for p in self.properties:
            if p.name in seen:
                raise PropertyConflict(f"duplicate property {p.name} in {self.name}")
            seen.add(p.name)
        by_name = {p.name: p for p in self.properties}
        for ia in self.interactions:
            if ia.kind == "write" and ia.target_property:
                tgt = by_name.get(ia.target_property)
                if tgt is not None and not tgt.writable:
                    raise ModelError(
                        f"write interaction {ia.name} targets read-only "
                        f"property {ia.target_property}"
                    )


@dataclass(slots=True)
class Violation:
    kind: str  # type_mismatch | out_of_range | missing_required | unknown_key | bad_enum
    key: str
    detail: str = ""


@dataclass(slots=True)
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


class ReportPlan(namedtuple("ReportPlan", ("props", "required"))):
    """(effective properties, names of the required ones) of a class, and
    ``shapes``: the frame shapes decode_report has learned under this
    plan (see the module docstring). A shape therefore never serves
    another class or another registry. decode_report adds to
    ``shapes``, so decodes under one plan are serialized by the owner."""

    def __new__(cls, props: Mapping[str, PropertyDef], required: tuple[str, ...]):
        plan = super().__new__(cls, props, required)
        plan.shapes = {}
        return plan


class ModelRegistry:
    """Class vocabulary and taxonomy; class links use the relations in
    DEFAULT_RELATIONS.

    Read-mostly: callers may read concurrently; registration is expected
    to be serialized by the owner. A class must not change once
    registered.
    """

    def __init__(self):
        self._classes: dict[str, ObjectClass] = {}
        self._effective: dict[str, Mapping[str, PropertyDef]] = {}
        self._plans: dict[str, ReportPlan] = {}

    # -- vocabulary ------------------------------------------------------

    def register_class(self, cls: ObjectClass) -> str:
        if cls.name in self._classes:
            raise DuplicateClass(cls.name)
        if cls.parent == cls.name:
            raise TaxonomyCycle(f"{cls.name} is its own parent")
        if cls.parent is not None:
            if cls.parent not in self._classes:
                raise UnknownParent(cls.parent)
            # walk the ancestor chain; registry classes are acyclic by
            # induction, but guard against future mutation anyway
            seen = {cls.name}
            anc = cls.parent
            while anc is not None:
                if anc in seen:
                    raise TaxonomyCycle(f"cycle through {anc}")
                seen.add(anc)
                anc = self._classes[anc].parent
            inherited = self.effective_properties(cls.parent)
            for p in cls.properties:
                old = inherited.get(p.name)
                if old is not None and old.datatype != p.datatype:
                    raise PropertyConflict(
                        f"{cls.name}.{p.name} redefines datatype "
                        f"{old.datatype} -> {p.datatype}"
                    )
        for link in cls.links:
            if link.relation not in DEFAULT_RELATIONS:
                raise UnknownRelation(link.relation)
        self._classes[cls.name] = cls
        return cls.name

    def get_class(self, name: str) -> ObjectClass:
        try:
            return self._classes[name]
        except KeyError:
            raise UnknownClass(name) from None

    def has_class(self, name: str) -> bool:
        return name in self._classes

    def effective_properties(self, name: str) -> Mapping[str, PropertyDef]:
        """Flattened property set: union over the ancestor chain, child
        definitions shadowing parent ones of the same name.

        Computed once per class and returned read-only. Registration
        never changes it: a parent is registered before its children.
        """
        cached = self._effective.get(name)
        if cached is not None:
            return cached
        chain = []
        cur: str | None = name
        while cur is not None:
            cls = self.get_class(cur)
            chain.append(cls)
            cur = cls.parent
        merged: dict[str, PropertyDef] = {}
        for cls in reversed(chain):  # root first, child overrides
            for p in cls.properties:
                merged[p.name] = p
        view = self._effective[name] = MappingProxyType(merged)
        return view

    def report_plan(self, name: str) -> ReportPlan:
        """The class resolved for validation, cached like
        effective_properties."""
        plan = self._plans.get(name)
        if plan is None:
            props = self.effective_properties(name)
            required = tuple(p.name for p in props.values() if p.required)
            plan = self._plans[name] = ReportPlan(props, required)
        return plan

    # -- model files -----------------------------------------------------

    def load_model_file(self, path: Path) -> str:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        return self.register_class(class_from_dict(doc))

    def load_model_dir(self, path: Path) -> list[str]:
        """Load every ``*.json`` class file, lexicographic filename order
        (by convention parents sort before children)."""
        names = []
        for f in sorted(Path(path).glob("*.json")):
            names.append(self.load_model_file(f))
        return names

    # -- validation ------------------------------------------------------

    def validate_payload(
        self, class_name: str, payload: dict[str, TypedScalar]
    ) -> ValidationReport:
        props, required = self.report_plan(class_name)  # raises UnknownClass
        report = ValidationReport()
        for key, scalar in payload.items():
            if key not in RESERVED_KEYS:
                report.violations.extend(_key_violations(props, key, scalar))
        report.violations.extend(Violation("missing_required", name)
                                 for name in required if name not in payload)
        return report


# The scalar prefix each datatype travels under.
_DATATYPE_PREFIX = {
    "number": "n",
    "integer": "n",
    "string": "s",
    "boolean": "b",
    "timestamp": "t",
    "enum": "s",
}


def _key_violations(props: Mapping[str, PropertyDef], key: str,
                    scalar: TypedScalar) -> list[Violation]:
    prop = props.get(key)
    return [Violation("unknown_key", key)] if prop is None else check_value(prop, scalar)


def check_value(prop: PropertyDef, scalar: TypedScalar) -> list[Violation]:
    """The ways ``scalar`` is not a valid value of ``prop``; empty if none."""
    if scalar.kind != _DATATYPE_PREFIX[prop.datatype]:
        return [Violation("type_mismatch", prop.name, f"expected {prop.datatype}")]
    if prop.datatype in ("number", "integer"):
        return _number_violations(prop, float(scalar.text))
    if prop.datatype == "enum" and scalar.text not in prop.enum_values:
        return [Violation("bad_enum", prop.name, scalar.text)]
    return []


def _number_violations(prop: PropertyDef, v: float) -> list[Violation]:
    """check_value of an ``n:`` scalar worth v under a numeric prop."""
    out: list[Violation] = []
    if prop.datatype == "integer" and not (math.isfinite(v) and v.is_integer()):
        out.append(Violation("type_mismatch", prop.name, "not an integer"))
    # "not >=" and "not <=", so that nan is out of range under any bound
    if prop.min is not None and not v >= prop.min:
        out.append(Violation("out_of_range", prop.name, f"{v} < min {prop.min}"))
    if prop.max is not None and not v <= prop.max:
        out.append(Violation("out_of_range", prop.name, f"{v} > max {prop.max}"))
    return out


def class_from_dict(doc: dict) -> ObjectClass:
    """Build an ObjectClass from its model-file JSON form."""
    props = [
        PropertyDef(
            name=p["name"],
            datatype=p["datatype"],
            unit=p.get("unit", ""),
            writable=p.get("writable", False),
            min=p.get("min"),
            max=p.get("max"),
            required=p.get("required", False),
            enum_values=tuple(p.get("enum_values", ())),
        )
        for p in doc.get("properties", [])
    ]
    inters = [
        InteractionDef(i["name"], i["kind"], i.get("target_property"))
        for i in doc.get("interactions", [])
    ]
    links = [
        LinkDef(l["relation"], l["target"], l.get("cardinality", "one"))
        for l in doc.get("links", [])
    ]
    return ObjectClass(
        name=doc["name"],
        parent=doc.get("parent"),
        properties=props,
        interactions=inters,
        links=links,
    )


# -- report codec --------------------------------------------------------

_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)

# Parsed forms of texts that repeat from one report to the next, and the
# frame templates (see the module docstring); every result type is
# immutable, so sharing is safe.
_repeated_scalar = lru_cache(maxsize=TEXT_MEMO_SIZE)(parse_scalar)
_channel_key = lru_cache(maxsize=TEXT_MEMO_SIZE)(ChannelKey)

# A template frame's text between the DateTime and the seq, and the seq
# texts the fast path takes (the ints decode_report accepts, as written).
_SEQ_KEY = '","seq":'
_SEQ_RE = re.compile(r"[1-9][0-9]*")


def encode_report(node_id: str, readings: list[Reading]) -> str:
    """Encode readings as one compact JSON object per line.

    Key order is fixed: id, channel value, unit, DateTime, seq (when the
    reading carries one), then tags sorted by key. Tag values are
    string-typed (``s:`` prefix); the unit travels as a bare string.
    """
    lines = []
    for r in readings:
        if r.channel.node_id != node_id:
            raise ValueError(
                f"reading on {r.channel} does not belong to node {node_id}"
            )
        template = None
        if type(r.value) is float and type(r.seq) is int:
            try:
                template = _frame_template(node_id, r.channel.sensor_name, r.unit,
                                           tuple(r.tags.items()))
            except TypeError:  # an unhashable tag value
                pass
        if template is not None:
            lines.append(_render(template, number_text(r.value), format_ts(r.ts), r.seq))
            continue
        obj: dict[str, object] = {"id": node_id}
        obj[r.channel.sensor_name] = scalar_of(r.value).encode()
        obj["unit"] = r.unit
        obj["DateTime"] = f"t:{format_ts(r.ts)}"
        if r.seq is not None:
            obj["seq"] = r.seq
        for k in sorted(r.tags):
            obj[k] = f"s:{r.tags[k]}"
        lines.append(_ENCODER.encode(obj))
    return "\n".join(lines)


@lru_cache(maxsize=TEXT_MEMO_SIZE)
def _frame_template(node_id: str, sensor: str, unit: str,
                    tags: tuple[tuple[str, str], ...]) -> tuple[str, str, str] | None:
    """The fixed text around a float value, DateTime and int seq in a
    frame of this channel, unit and tags: head, middle and tail. None
    when a key would collide or a unit or tag is not exactly a str (1,
    1.0 and True are equal memo keys but encode apart)."""
    tag_map = dict(tags)
    if (type(unit) is not str
            or any(type(k) is not str or type(v) is not str for k, v in tags)
            or not tag_map.keys().isdisjoint(("id", "unit", "DateTime", "seq", sensor))):
        return None
    # the value, timestamp and seq texts never need JSON escaping
    head = _ENCODER.encode({"id": node_id, sensor: "n:"})[:-2]
    mid = _ENCODER.encode({"unit": unit, "DateTime": "t:"})[1:-2]
    tail = _ENCODER.encode({k: f"s:{tag_map[k]}" for k in sorted(tag_map)})[1:]
    return head, f'",{mid}', f",{tail}" if tag_map else tail


def _render(template: tuple[str, str, str], value: str, ts: str, seq: int) -> str:
    """The frame a template makes of these value and DateTime texts and
    seq."""
    head, mid, tail = template
    return f"{head}{value}{mid}{ts}{_SEQ_KEY}{seq}{tail}"


def decode_report(text: str, plan: ReportPlan | None = None):
    """Decode a report payload back into (node_id, readings).

    Inverse of encode_report for everything it produces; additionally
    accepts the legacy ``t:...Z UTC`` timestamp form by stripping the
    suffix.

    With the report_plan of the sender's class, each line is validated in
    the same pass as validate_payload validates its payload_to_scalars
    map; a violation raises ModelError. A frame of a shape learned under
    the plan is decoded without json.loads (see the module docstring),
    with the same result; its reading's ``tags`` is the shape's one dict,
    which the caller must not change.
    """
    if plan is not None:
        decoded = _decode_learned(text, plan.shapes)
        if decoded is not None:
            return decoded
    readings: list[Reading] = []
    node_id: str | None = None
    # "\n" alone: JSON escapes it inside a string, while str.splitlines()
    # would also split at a raw U+2028 in a unit or tag
    for line in text.split("\n"):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedText(f"bad JSON: {exc}") from None
        if not isinstance(obj, dict) or "id" not in obj:
            raise MalformedText("report object missing 'id'")
        if node_id is None:
            node_id = _text_of(obj, "id")
        elif obj["id"] != node_id:
            raise MalformedText("mixed node ids in one report")
        if "DateTime" not in obj:
            raise MalformedText("report object missing 'DateTime'")
        raw_ts = _text_of(obj, "DateTime")
        if not raw_ts.startswith("t:"):
            parse_scalar(raw_ts)  # a bad prefix or number raises its own error
            raise BadTimestamp(f"DateTime is not t-typed: {raw_ts!r}")
        ts = _parse_t_body(raw_ts[2:])[1]

        unit = _text_of(obj, "unit") if "unit" in obj else ""
        seq = obj.get("seq")
        if seq is not None and (type(seq) is not int or seq < 1):
            raise MalformedText(f"seq is not an integer >= 1: {seq!r}")

        value_key: str | None = None
        value = None
        tags: dict[str, str] = {}
        for key in obj:
            # a unit is parsed only to be checked; an id like x:... fails ChannelKey
            if key in RESERVED_KEYS or (key == "unit" and plan is None):
                continue
            raw = _text_of(obj, key)  # before the memo: a list is unhashable
            if key == "unit":
                scalar = _repeated_scalar(raw)
            elif value_key is None:
                scalar = parse_scalar(raw)
                value_key = key
                value = _scalar_to_value(scalar)
            else:
                scalar = _repeated_scalar(raw)
                tags[key] = scalar.text
            bad = plan is not None and _key_violations(plan.props, key, scalar)
            if bad:
                raise ModelError(f"{bad[0].kind}: {key}")
        if value_key is None:
            raise MalformedText("report object carries no channel value")
        if plan is not None and not all(name in obj for name in plan.required):
            raise ModelError(f"missing_required: one of {plan.required}")
        readings.append(
            Reading(
                channel=_channel_key(node_id, value_key),
                value=value,
                unit=unit,
                ts=ts,
                seq=seq,
                tags=tags,
            )
        )
    if node_id is None:
        raise MalformedText("empty report")
    if plan is not None and len(readings) == 1:
        _learn(plan, text, readings[0])
    return node_id, readings


def _text_of(obj: dict, key: str) -> str:
    """obj[key], which must be a JSON string: no other JSON value is
    stringified into a scalar."""
    raw = obj[key]
    if type(raw) is not str:
        raise MalformedText(f"{key!r} is not text: {raw!r}")
    return raw


def _learn(plan: ReportPlan, text: str, r: Reading) -> None:
    """Keep the shape of a frame the full decode accepted under plan, if
    its template renders r as exactly text: the fast path then takes only
    frames whose fixed text a full decode has checked."""
    if type(r.value) is not float or r.seq is None:
        return
    template = _frame_template(r.channel.node_id, r.channel.sensor_name, r.unit,
                               tuple(r.tags.items()))
    if (template is not None
            and _render(template, number_text(r.value), format_ts(r.ts), r.seq) == text):
        remember(plan.shapes, template[0], (*template, r.channel, r.unit, dict(r.tags),
                                            plan.props[r.channel.sensor_name]))


def _decode_learned(text: str, shapes: dict) -> tuple[str, list[Reading]] | None:
    """(node_id, [reading]) of a frame that is a learned shape's text
    around a value, DateTime and seq in the grammars the template writes,
    with a value the shape's property accepts; None for any other text,
    which the full decode then decides. Every text this takes has the
    fixed parts of a frame the full decode accepted and variable parts
    that need no JSON escaping, so the full decode would return the same.
    """
    shape = shapes.get(text[:text.find('"n:') + 3])
    if shape is None:
        return None
    head, mid, tail, channel, unit, tags, prop = shape
    value, found_mid, rest = text[len(head):].partition(mid)
    ts_text, found_seq, rest = rest.partition(_SEQ_KEY)
    seq = rest[:len(rest) - len(tail)]
    if not (found_mid and found_seq and rest.endswith(tail)
            and _NUMBER_RE.fullmatch(value) and FORMAT_TS_RE.fullmatch(ts_text)
            and _SEQ_RE.fullmatch(seq)):
        return None
    try:
        ts = parse_ts(ts_text)
    except BadTimestamp:  # the full decode raises it
        return None
    v = float(value)
    if _number_violations(prop, v):  # check_value: the learned prop is numeric
        return None
    return channel.node_id, [Reading(channel, v, unit, ts, int(seq), tags)]


def _scalar_to_value(scalar: TypedScalar):
    if scalar.kind == "n":
        return float(scalar.text)
    if scalar.kind == "b":
        return scalar.text == "true"
    if scalar.kind == "t":
        return scalar  # keep timestamps typed
    return scalar.text


def scalar_of(value) -> TypedScalar:
    """The one rule for a value's wire type, the inverse of
    _scalar_to_value: a bool is ``b:``, an int or float ``n:`` in
    number_text, a str ``s:``, and a TypedScalar (a decoded ``t:``) is
    itself."""
    if isinstance(value, TypedScalar):
        return value
    if isinstance(value, bool):
        return TypedScalar("b", "true" if value else "false")
    if isinstance(value, (int, float)):
        return TypedScalar("n", number_text(value))
    return TypedScalar("s", value)


def payload_to_scalars(text_line: str) -> dict[str, TypedScalar]:
    """Decode one report object into the key -> TypedScalar map that
    validate_payload consumes. Every value is a typed-scalar string but an
    int seq."""
    try:
        obj = json.loads(text_line)
    except json.JSONDecodeError as exc:
        raise MalformedText(f"bad JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise MalformedText("payload is not a JSON object")
    out: dict[str, TypedScalar] = {}
    for key, raw in obj.items():
        if key == "seq" and type(raw) is int:
            out[key] = TypedScalar("n", repr(raw))
        else:
            out[key] = parse_scalar(raw)  # raises MalformedText for a non-string
    return out
