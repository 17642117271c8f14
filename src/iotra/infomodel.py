"""Information-model registry and payload codec.

Gives the fleet M2M semantic interoperability: a vocabulary of thing
classes arranged in a single-parent taxonomy, typed-scalar payload
encoding (``n:``/``s:``/``b:``/``t:`` prefixes), payload validation
against class definitions, and tag/link resolution across instances.

The report codec does no per-call setup: one shared JSON encoder, a
constant datatype -> prefix table, and bounded memos
(``TEXT_MEMO_SIZE`` entries each) that reuse the parsed ``TypedScalar``
of a repeated node id, unit or tag value and the ``ChannelKey`` of a
repeated node/channel pair. The memos are bounded because their keys
are payload text that arrives from outside the program; a text that
fails to parse is never cached.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType

from .reading import ChannelKey, Reading, is_token, ID_RE
from .timeutil import BadTimestamp, format_ts, parse_ts

DATATYPES = {"number", "integer", "string", "boolean", "timestamp", "enum"}
INTERACTION_KINDS = {"read", "write", "invoke", "event"}
RESERVED_KEYS = {"id", "DateTime", "seq"}
# The relations class and instance links may use.
DEFAULT_RELATIONS = frozenset({"part_of", "regulated_by", "composed_of", "contains"})

SCALAR_PREFIXES = {"n", "s", "b", "t"}


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


class UnknownInstance(ModelError):
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

    @classmethod
    def number(cls, value: float) -> "TypedScalar":
        return cls("n", number_text(value))

    @classmethod
    def string(cls, value: str) -> "TypedScalar":
        return cls("s", value)

    @classmethod
    def boolean(cls, value: bool) -> "TypedScalar":
        return cls("b", "true" if value else "false")

    @classmethod
    def timestamp(cls, epoch: float) -> "TypedScalar":
        return cls("t", format_ts(epoch))


def parse_scalar(text: str) -> TypedScalar:
    """Parse a wire value. ``x:...`` with an unknown single-letter prefix
    is an error; anything without a prefix shape is a bare string."""
    if len(text) >= 2 and text[1] == ":" and text[0].isalpha():
        prefix, body = text[0], text[2:]
        if prefix not in SCALAR_PREFIXES:
            raise UnknownPrefix(f"unknown scalar prefix {prefix!r} in {text!r}")
        if prefix == "n":
            try:
                float(body)
            except ValueError:
                raise MalformedText(f"bad number text: {body!r}") from None
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
class ThingInstance:
    instance_id: str
    class_name: str
    tags: dict[str, str] = field(default_factory=dict)
    links: list[LinkDef] = field(default_factory=list)

    def __post_init__(self):
        if not ID_RE.match(self.instance_id):
            raise ModelError(f"bad instance id: {self.instance_id!r}")
        for key in self.tags:
            if not is_token(key):
                raise ModelError(f"tag key is not a vocabulary token: {key!r}")


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


class ModelRegistry:
    """Class vocabulary, taxonomy, and thing instances; links use the
    relations in DEFAULT_RELATIONS.

    Read-mostly: callers may read concurrently; registration is expected
    to be serialized by the owner. A class must not change once
    registered.
    """

    def __init__(self):
        self._classes: dict[str, ObjectClass] = {}
        self._effective: dict[str, Mapping[str, PropertyDef]] = {}
        self._instances: dict[str, ThingInstance] = {}

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

    # -- instances and links ---------------------------------------------

    def register_instance(self, inst: ThingInstance) -> str:
        if inst.instance_id in self._instances:
            raise ModelError(f"duplicate instance id {inst.instance_id}")
        self.get_class(inst.class_name)  # raises UnknownClass
        for link in inst.links:
            if link.relation not in DEFAULT_RELATIONS:
                raise UnknownRelation(link.relation)
        self._instances[inst.instance_id] = inst
        return inst.instance_id

    def get_instance(self, instance_id: str) -> ThingInstance:
        try:
            return self._instances[instance_id]
        except KeyError:
            raise UnknownInstance(instance_id) from None

    def resolve_links(
        self, instance_id: str, relation: str, transitive: bool = False
    ) -> list[str]:
        """Targets reachable from the instance via ``relation`` edges.

        One hop by default; breadth-first closure when transitive. Output
        is deduplicated and sorted lexicographically.
        """
        self.get_instance(instance_id)
        if relation not in DEFAULT_RELATIONS:
            raise UnknownRelation(relation)
        found: set[str] = set()
        frontier = [instance_id]
        visited = {instance_id}
        while frontier:
            nxt: list[str] = []
            for iid in frontier:
                inst = self._instances.get(iid)
                if inst is None:
                    continue  # link to a class name or external id: terminal
                for link in inst.links:
                    if link.relation != relation:
                        continue
                    found.add(link.target)
                    if transitive and link.target not in visited:
                        visited.add(link.target)
                        nxt.append(link.target)
            if not transitive:
                break
            frontier = nxt
        return sorted(found)

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
        props = self.effective_properties(class_name)  # raises UnknownClass
        report = ValidationReport()
        for key, scalar in payload.items():
            if key in RESERVED_KEYS:
                continue
            prop = props.get(key)
            if prop is None:
                report.violations.append(Violation("unknown_key", key))
                continue
            report.violations.extend(_check_value(prop, scalar))
        for prop in props.values():
            if prop.required and prop.name not in payload:
                report.violations.append(Violation("missing_required", prop.name))
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


def _check_value(prop: PropertyDef, scalar: TypedScalar) -> list[Violation]:
    if scalar.kind != _DATATYPE_PREFIX[prop.datatype]:
        return [Violation("type_mismatch", prop.name, f"expected {prop.datatype}")]
    out: list[Violation] = []
    if prop.datatype in ("number", "integer"):
        v = float(scalar.text)
        if prop.datatype == "integer" and not (math.isfinite(v) and v.is_integer()):
            out.append(Violation("type_mismatch", prop.name, "not an integer"))
        if prop.min is not None and v < prop.min:
            out.append(Violation("out_of_range", prop.name, f"{v} < min {prop.min}"))
        if prop.max is not None and v > prop.max:
            out.append(Violation("out_of_range", prop.name, f"{v} > max {prop.max}"))
    elif prop.datatype == "enum" and scalar.text not in prop.enum_values:
        out.append(Violation("bad_enum", prop.name, scalar.text))
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

# Parsed forms of texts that repeat from one report to the next (see the
# module docstring); both result types are frozen, so sharing is safe.
TEXT_MEMO_SIZE = 4096
_repeated_scalar = lru_cache(maxsize=TEXT_MEMO_SIZE)(parse_scalar)
_channel_key = lru_cache(maxsize=TEXT_MEMO_SIZE)(ChannelKey)


def _encode_value(value) -> str:
    if isinstance(value, TypedScalar):
        return value.encode()
    if isinstance(value, bool):
        return TypedScalar.boolean(value).encode()
    if isinstance(value, (int, float)):
        return f"n:{number_text(value)}"
    return f"s:{value}"


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
        obj: dict[str, object] = {"id": node_id}
        obj[r.channel.sensor_name] = _encode_value(r.value)
        obj["unit"] = r.unit
        obj["DateTime"] = f"t:{format_ts(r.ts)}"
        if r.seq is not None:
            obj["seq"] = r.seq
        for k in sorted(r.tags):
            obj[k] = f"s:{r.tags[k]}"
        lines.append(_ENCODER.encode(obj))
    return "\n".join(lines)


def decode_report(text: str, with_scalars: bool = False):
    """Decode a report payload back into (node_id, readings).

    Inverse of encode_report for everything it produces; additionally
    accepts the legacy ``t:...Z UTC`` timestamp form by stripping the
    suffix.

    With ``with_scalars`` the result is (node_id, readings, scalars):
    per line, the key -> TypedScalar map that payload_to_scalars gives
    and validate_payload consumes, taken from the same parse. Its keys
    ``id`` and ``unit`` are then parsed as scalars too, so a bad prefix
    there raises as well.
    """
    readings: list[Reading] = []
    line_scalars: list[dict[str, TypedScalar]] = []
    node_id: str | None = None
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedText(f"bad JSON: {exc}") from None
        if not isinstance(obj, dict) or "id" not in obj:
            raise MalformedText("report object missing 'id'")
        if node_id is None:
            node_id = str(obj["id"])
        elif obj["id"] != node_id:
            raise MalformedText("mixed node ids in one report")
        if "DateTime" not in obj:
            raise MalformedText("report object missing 'DateTime'")
        raw_ts = str(obj["DateTime"])
        if not raw_ts.startswith("t:"):
            parse_scalar(raw_ts)  # a bad prefix or number raises its own error
            raise BadTimestamp(f"DateTime is not t-typed: {obj['DateTime']!r}")
        ts_text, ts = _parse_t_body(raw_ts[2:])

        unit = str(obj.get("unit", ""))
        seq = obj.get("seq")
        if seq is not None and not isinstance(seq, int):
            raise MalformedText(f"seq is not an integer: {seq!r}")

        value_key: str | None = None
        value = None
        tags: dict[str, str] = {}
        scalars: dict[str, TypedScalar] = {}
        for key, raw in obj.items():
            if key in RESERVED_KEYS or key == "unit":
                if not with_scalars:
                    continue
                if key == "DateTime":
                    scalar = TypedScalar("t", ts_text)
                elif key == "seq" and isinstance(raw, int):
                    scalar = TypedScalar("n", repr(raw))
                else:
                    scalar = _repeated_scalar(str(raw))
            elif value_key is None:
                scalar = parse_scalar(str(raw))
                value_key = key
                value = _scalar_to_value(scalar)
            else:
                scalar = _repeated_scalar(str(raw))
                tags[key] = scalar.text
            scalars[key] = scalar
        if value_key is None:
            raise MalformedText("report object carries no channel value")
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
        line_scalars.append(scalars)
    if node_id is None:
        raise MalformedText("empty report")
    if with_scalars:
        return node_id, readings, line_scalars
    return node_id, readings


def _scalar_to_value(scalar: TypedScalar):
    if scalar.kind == "n":
        return float(scalar.text)
    if scalar.kind == "b":
        return scalar.text == "true"
    if scalar.kind == "t":
        return scalar  # keep timestamps typed
    return scalar.text


def payload_to_scalars(text_line: str) -> dict[str, TypedScalar]:
    """Decode one report object into the key -> TypedScalar map that
    validate_payload consumes."""
    try:
        obj = json.loads(text_line)
    except json.JSONDecodeError as exc:
        raise MalformedText(f"bad JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise MalformedText("payload is not a JSON object")
    out: dict[str, TypedScalar] = {}
    for key, raw in obj.items():
        if key == "seq" and isinstance(raw, int):
            out[key] = TypedScalar("n", repr(raw))
        else:
            out[key] = parse_scalar(str(raw))
    return out
