"""Declarative machine specifications: schema, validation, round-trip.

A :class:`MachineSpec` is a machine model *as data*: a typed, validated,
dict/YAML-loadable description of everything the timing engine (and the
PPA/physdesign models) read about one machine — lanes, queue depths,
dispatch/issue latencies, unit pipeline depths, memory latencies and
bandwidths, and the interconnect quantities that distinguish the lumped
Ara2 all-to-all design from AraXL's REQI/GLSU/RINGI interfaces.

The schema is the :data:`SPEC_FIELDS` table: one :class:`SpecField` per
quantity, carrying its section, type, default, valid range, applicable
families, the configuration attribute it maps onto, and the timing law
that consumes it.  ``docs/machine-models.md`` renders the same table for
humans; :func:`spec_field_rows` is the single source both share.

Key properties:

* **Validation** — unknown keys are rejected (with a close-match
  suggestion), types are checked (``bool`` is not an ``int``), ranges
  are enforced, and family-specific interconnect fields may only appear
  under their family.  All errors are :class:`SpecError` (a
  :class:`~repro.errors.ConfigError`) with actionable messages.
* **Defaulting** — every field except ``family`` and ``lanes`` has a
  documented default, so a minimal spec is just those two lines.
* **Round-trip** — :func:`to_spec` / :func:`from_spec` are inverses for
  every shipped configuration: ``from_spec(to_spec(cfg)) == cfg``.
* **Fingerprints** — :attr:`MachineSpec.fingerprint` hashes the
  canonical (fully defaulted, key-sorted) spec *minus its display
  name*: two specs with the same timing identity share a fingerprint
  regardless of key order or label, which is what keys replay results
  in the sweep planner.  Capture keys never include the fingerprint —
  traces stay machine-independent.
"""

from __future__ import annotations

import copy
import difflib
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from ..errors import ConfigError
from ..params import (Ara2Config, AraXLConfig, MemoryConfig,
                      ScalarCoreConfig, SystemConfig)

#: Machine families the spec layer knows how to build.
FAMILIES = ("ara2", "araxl")

#: Sentinel default for fields that must be present in every spec.
REQUIRED = object()


@dataclass(frozen=True)
class SpecField:
    """One schema entry: a named, documented machine quantity."""

    #: Spec section the field lives in ("" = top level).
    section: str
    #: Key inside the section.
    key: str
    #: Python type of the value (``int`` | ``float`` | ``str``).
    kind: type
    #: Default value, or :data:`REQUIRED`.
    default: object
    #: Configuration attribute the field maps onto (constructor kwarg
    #: of :class:`SystemConfig` / :class:`MemoryConfig` /
    #: :class:`ScalarCoreConfig` or the family config class).
    target: str
    #: Families the field applies to (() = every family).
    families: tuple = ()
    #: Inclusive lower bound, if any.
    minimum: float | None = None
    #: Inclusive upper bound, if any.
    maximum: float | None = None
    #: Which timing/PPA law reads the quantity.
    law: str = ""

    @property
    def path(self) -> str:
        """Dotted display path, e.g. ``pipeline.fpu_latency``."""
        return f"{self.section}.{self.key}" if self.section else self.key

    def check_value(self, value: object, source: str) -> object:
        """Validate one raw value against this field; returns it coerced."""
        if self.kind is float and isinstance(value, int) \
                and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, self.kind) or isinstance(value, bool):
            raise SpecError(
                f"{source}: field '{self.path}' expects "
                f"{self.kind.__name__}, got {value!r} "
                f"({type(value).__name__})")
        if self.minimum is not None and value < self.minimum:
            raise SpecError(
                f"{source}: field '{self.path}' = {value!r} is out of "
                f"range (must be >= {self.minimum})")
        if self.maximum is not None and value > self.maximum:
            raise SpecError(
                f"{source}: field '{self.path}' = {value!r} is out of "
                f"range (must be <= {self.maximum})")
        return value


class SpecError(ConfigError):
    """A machine spec failed validation; the message says how to fix it."""


#: The machine-spec schema.  Section order here is the canonical dump
#: order; ``docs/machine-models.md`` mirrors this table.
SPEC_FIELDS: tuple = (
    # ---- identity ----------------------------------------------------
    SpecField("", "family", str, REQUIRED, "",
              law="selects the interconnect laws: 'ara2' (lumped "
                  "all-to-all) or 'araxl' (REQI/GLSU/RINGI clusters); "
                  "also dispatches the PPA area/frequency/power models"),
    SpecField("", "lanes", int, REQUIRED, "lanes", minimum=1,
              law="VLEN = 1024*lanes; datapath rates scale with lanes; "
                  "area and frequency laws"),
    SpecField("", "name", str, None, "label",
              law="display only — never part of the spec fingerprint "
                  "or any cache key"),
    # ---- memory ------------------------------------------------------
    SpecField("memory", "read_bytes_per_cycle_per_lane", float, 8.0,
              "read_bytes_per_cycle_per_lane", minimum=1e-9,
              law="unit-stride load rate: mem_rate(UNIT/MASK, load)"),
    SpecField("memory", "write_bytes_per_cycle_per_lane", float, 8.0,
              "write_bytes_per_cycle_per_lane", minimum=1e-9,
              law="unit-stride store rate: mem_rate(UNIT/MASK, store)"),
    SpecField("memory", "l2_latency_cycles", int, 12, "l2_latency_cycles",
              minimum=0,
              law="load_first_data_latency (plus the interface pipe) "
                  "and the scalar frontend's D$-miss cost"),
    # ---- scalar core -------------------------------------------------
    SpecField("scalar", "alu_latency", int, 1, "alu_latency", minimum=1,
              law="scalar frontend: ALU op cost"),
    SpecField("scalar", "dcache_hit_latency", int, 3, "dcache_hit_latency",
              minimum=1, law="scalar frontend: load-to-use on a D$ hit"),
    SpecField("scalar", "dcache_miss_penalty", int, 8,
              "dcache_miss_penalty", minimum=0,
              law="scalar frontend: added on a D$ miss (on top of L2)"),
    SpecField("scalar", "dcache_bytes", int, 32 * 1024, "dcache_bytes",
              minimum=1, law="scalar frontend: D$ capacity"),
    SpecField("scalar", "dcache_line_bytes", int, 64, "dcache_line_bytes",
              minimum=1, law="scalar frontend: D$ line size"),
    SpecField("scalar", "branch_penalty", int, 2, "branch_penalty",
              minimum=0, law="scalar frontend: taken-branch cost"),
    SpecField("scalar", "fpu_latency", int, 4, "fpu_latency", minimum=1,
              law="scalar frontend: scalar FP op cost"),
    # ---- vector pipeline (family-independent) ------------------------
    SpecField("pipeline", "dispatch_latency", int, 4, "dispatch_latency",
              minimum=1,
              law="issue-to-arrive: request_latency + dispatch_latency"),
    SpecField("pipeline", "unit_queue_depth", int, 4, "unit_queue_depth",
              minimum=1,
              law="per-unit instruction queue depth (issue back-pressure)"),
    SpecField("pipeline", "fpu_latency", int, 5, "fpu_latency", minimum=1,
              law="VMFPU first-result latency; reduction tree step cost"),
    SpecField("pipeline", "valu_latency", int, 1, "valu_latency",
              minimum=1, law="VALU first-result latency"),
    SpecField("pipeline", "lane_width_bits", int, 64, "lane_width_bits",
              minimum=8,
              law="vfu/sldu rates = lanes*(width/sew); mask bit rate; "
                  "SIMD reduction fold steps"),
    SpecField("pipeline", "sldu_latency", int, 1, "sldu_latency",
              minimum=0,
              law="slide latency floor; reduction inter-lane step cost"),
    SpecField("pipeline", "masku_latency", int, 2, "masku_latency",
              minimum=0, law="MASKU op latency"),
    SpecField("pipeline", "vsetvli_cycles", int, 3, "vsetvli_cycles",
              minimum=0, law="cost of every vsetvli in the trace"),
    SpecField("pipeline", "reduction_writeback_cycles", int, 3,
              "reduction_writeback_cycles", minimum=0,
              law="fixed tail of every reduction (both families)"),
    SpecField("pipeline", "indexed_throughput_factor", float, 0.5,
              "indexed_throughput_factor", minimum=1e-9, maximum=1.0,
              law="indexed rate = strided rate * factor"),
    # ---- interconnect: the lumped Ara2 quantities --------------------
    SpecField("interconnect", "accelerator_ack_latency", int, 1,
              "accelerator_ack_latency", families=("ara2",), minimum=0,
              law="request_latency of the lumped design"),
    SpecField("interconnect", "issue_gap_cycles", float, 1.0,
              "issue_gap_cycles", families=("ara2",), minimum=1,
              law="minimum cycles between vector issues"),
    SpecField("interconnect", "scalar_result_latency", int, 2,
              "scalar_result_latency", families=("ara2",), minimum=0,
              law="vector-to-scalar result sync latency"),
    SpecField("interconnect", "vlsu_pipe_latency", int, 2,
              "vlsu_pipe_latency", families=("ara2",), minimum=0,
              law="load_first_data_latency = l2_latency + this"),
    SpecField("interconnect", "store_pipe_latency", int, 2,
              "store_pipe_latency", families=("ara2",), minimum=0,
              law="posted-store datapath latency"),
    SpecField("interconnect", "strided_addrgens", int, 1,
              "strided_addrgens", families=("ara2",), minimum=1,
              law="strided rate (elems/cycle); indexed rate via factor"),
    # ---- interconnect: the AraXL REQI/GLSU/RINGI quantities ----------
    SpecField("interconnect", "ring_hop_latency", int, 2,
              "ring_hop_latency", families=("araxl",), minimum=1,
              law="RINGI: cycles per ring hop (slides, reduction tree)"),
    SpecField("interconnect", "ringi_extra_regs", int, 0,
              "ringi_extra_regs", families=("araxl",), minimum=0,
              law="RINGI: +1 cycle per hop per register (Fig 5/7 knob)"),
    SpecField("interconnect", "reqi_broadcast_latency", int, 2,
              "reqi_broadcast_latency", families=("araxl",), minimum=0,
              law="REQI: CVA6-to-cluster request latency"),
    SpecField("interconnect", "reqi_ack_base_latency", int, 1,
              "reqi_ack_base_latency", families=("araxl",), minimum=0,
              law="REQI: cluster-0-to-CVA6 ack latency floor"),
    SpecField("interconnect", "reqi_issue_base_gap", int, 2,
              "reqi_issue_base_gap", families=("araxl",), minimum=1,
              law="REQI: issue gap = base + 2*extra_regs"),
    SpecField("interconnect", "reqi_extra_regs", int, 0,
              "reqi_extra_regs", families=("araxl",), minimum=0,
              law="REQI: +1 cycle out and back per register (Fig 5/7)"),
    SpecField("interconnect", "glsu_base_stages", int, 3,
              "glsu_base_stages", families=("araxl",), minimum=0,
              law="GLSU: pipe depth = base + align + shuffle + extra"),
    SpecField("interconnect", "glsu_extra_regs", int, 0,
              "glsu_extra_regs", families=("araxl",), minimum=0,
              law="GLSU: +2 cycles round trip per register (Fig 5/7)"),
    SpecField("interconnect", "ring_reduction_op_overhead", float, 1.0,
              "ring_reduction_op_overhead", families=("araxl",),
              minimum=0,
              law="RINGI reduction step cost = fpu_latency + this"),
    SpecField("interconnect", "strided_addrgens_per_cluster", int, 1,
              "strided_addrgens_per_cluster", families=("araxl",),
              minimum=1,
              law="strided rate = this * clusters; indexed via factor"),
)

#: Section names in canonical order.
SECTIONS = ("", "memory", "scalar", "pipeline", "interconnect")

_CONFIG_CLASSES = {"ara2": Ara2Config, "araxl": AraXLConfig}


def _fields_for(family: str) -> list[SpecField]:
    """Schema fields applicable to one family, in canonical order."""
    return [f for f in SPEC_FIELDS
            if not f.families or family in f.families]


def spec_field_rows(family: str | None = None) -> list[SpecField]:
    """The schema table (optionally filtered to one family).

    ``docs/machine-models.md`` documents exactly these rows; tests
    assert the doc table and this function agree.
    """
    if family is None:
        return list(SPEC_FIELDS)
    if family not in FAMILIES:
        raise SpecError(f"unknown machine family {family!r}; "
                        f"choose from {FAMILIES}")
    return _fields_for(family)


def _suggest(key: str, valid: list[str]) -> str:
    """Closest valid key, rendered as a hint (empty when none is close)."""
    close = difflib.get_close_matches(key, valid, n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


class MachineSpec:
    """A validated, fully-defaulted machine description.

    Construct via :meth:`from_dict`, :meth:`from_yaml` or
    :func:`to_spec`; treat instances as immutable.  ``spec.to_config()``
    builds the runnable :class:`~repro.params.SystemConfig`.
    """

    def __init__(self, data: dict) -> None:
        """Internal: wrap an already-canonical data dict (no validation)."""
        self._data = data

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def family(self) -> str:
        """Machine family ('ara2' | 'araxl')."""
        return self._data["family"]

    @property
    def lanes(self) -> int:
        """Total vector-lane count."""
        return self._data["lanes"]

    @property
    def name(self) -> str:
        """Display name (defaults to ``{lanes}L-{Family}``)."""
        return self._data["name"]

    @property
    def fingerprint(self) -> str:
        """Stable identity of the spec's *timing-relevant* content.

        A SHA-256 over the canonical, key-sorted JSON of every field
        except ``name``: insensitive to key ordering and display
        labels, sensitive to any quantity a timing or PPA law reads.
        The sweep planner keys replay results by this value; capture
        keys never include it (traces are machine-independent).
        """
        content = {k: v for k, v in self._data.items() if k != "name"}
        blob = json.dumps(content, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Deep copy of the canonical (fully defaulted) spec dict."""
        return copy.deepcopy(self._data)

    def to_config(self) -> SystemConfig:
        """Build the runnable configuration object for this spec."""
        data = self._data
        family = data["family"]
        kwargs: dict = {"lanes": data["lanes"]}
        derived = f"{data['lanes']}L-{'Ara2' if family == 'ara2' else 'AraXL'}"
        kwargs["label"] = data["name"] if data["name"] != derived else None
        kwargs["memory"] = MemoryConfig(**data["memory"])
        kwargs["scalar"] = ScalarCoreConfig(**data["scalar"])
        for field in _fields_for(family):
            if field.section in ("pipeline", "interconnect"):
                kwargs[field.target] = data[field.section][field.key]
        return _CONFIG_CLASSES[family](**kwargs)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, raw: dict, source: str = "<dict>") -> "MachineSpec":
        """Validate a (possibly partial) raw dict into a spec.

        Unknown keys, wrong types, out-of-range values and
        family-mismatched interconnect fields raise :class:`SpecError`
        with the offending path and a fix hint; everything omitted
        takes its documented default.
        """
        if not isinstance(raw, dict):
            raise SpecError(f"{source}: a machine spec must be a mapping, "
                            f"got {type(raw).__name__}")
        family = raw.get("family")
        if family is None:
            raise SpecError(
                f"{source}: machine spec is missing required field "
                f"'family' (one of {', '.join(FAMILIES)})")
        if family not in FAMILIES:
            raise SpecError(
                f"{source}: unknown machine family {family!r}; choose "
                f"from {', '.join(FAMILIES)}"
                f"{_suggest(str(family), list(FAMILIES))}")
        if "lanes" not in raw:
            raise SpecError(
                f"{source}: machine spec is missing required field "
                f"'lanes' (the total vector-lane count)")

        fields = _fields_for(family)
        by_section: dict[str, dict[str, SpecField]] = {}
        for field in fields:
            by_section.setdefault(field.section, {})[field.key] = field
        # Family-mismatched keys get a dedicated message instead of a
        # generic "unknown key".
        other_family = {f.key: f.families for f in SPEC_FIELDS
                        if f.families and family not in f.families}

        top_valid = set(by_section.get("", {})) | set(SECTIONS) - {""}
        for key in raw:
            if key not in top_valid:
                raise SpecError(
                    f"{source}: unknown machine-spec key {key!r}"
                    f"{_suggest(key, sorted(top_valid))}")

        data: dict = {}
        for section in SECTIONS:
            section_fields = by_section.get(section, {})
            if section:
                sub = raw.get(section, {})
                if sub is None:
                    sub = {}
                if not isinstance(sub, dict):
                    raise SpecError(
                        f"{source}: section '{section}' must be a "
                        f"mapping, got {type(sub).__name__}")
                for key in sub:
                    if key not in section_fields:
                        if section == "interconnect" and key in other_family:
                            raise SpecError(
                                f"{source}: field 'interconnect.{key}' "
                                f"is not valid for family {family!r} "
                                f"(it is "
                                f"{'/'.join(other_family[key])}-only)")
                        raise SpecError(
                            f"{source}: unknown field "
                            f"'{section}.{key}'"
                            f"{_suggest(key, sorted(section_fields))}")
                out = data.setdefault(section, {})
                for key, field in section_fields.items():
                    if key in sub:
                        out[key] = field.check_value(sub[key], source)
                    else:
                        out[key] = field.default
            else:
                for key, field in section_fields.items():
                    if key in raw and raw[key] is not None:
                        data[key] = field.check_value(raw[key], source)
                    elif field.default is REQUIRED:
                        raise SpecError(
                            f"{source}: machine spec is missing required "
                            f"field '{key}'")
                    else:
                        data[key] = field.default
        if data.get("name") is None:
            fam_title = "Ara2" if family == "ara2" else "AraXL"
            data["name"] = f"{data['lanes']}L-{fam_title}"
        return cls(data)

    @classmethod
    def from_yaml(cls, path: str | Path) -> "MachineSpec":
        """Load and validate a spec from a YAML file on disk."""
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise SpecError(f"cannot read machine spec {path}: "
                            f"{exc.strerror or exc}") from exc
        raw = parse_spec_yaml(text, source=str(path))
        return cls.from_dict(raw, source=str(path))

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        """Specs are equal when their canonical dicts are (names too)."""
        return isinstance(other, MachineSpec) and self._data == other._data

    def __hash__(self) -> int:
        """Hash over the canonical JSON (usable as a dict key)."""
        return hash(json.dumps(self._data, sort_keys=True))

    def __repr__(self) -> str:
        """Short identity: name, family, lanes, fingerprint."""
        return (f"MachineSpec({self.name!r}, family={self.family!r}, "
                f"lanes={self.lanes}, fingerprint={self.fingerprint!r})")


# ----------------------------------------------------------------------
# YAML parsing (PyYAML when available, minimal fallback otherwise)
# ----------------------------------------------------------------------
def parse_spec_yaml(text: str, source: str = "<yaml>") -> dict:
    """Parse YAML text into the raw dict :meth:`MachineSpec.from_dict`
    validates.

    Uses :mod:`yaml` (``safe_load``) when installed; otherwise falls
    back to a minimal parser covering the spec subset — two-level
    mappings of scalars with ``#`` comments — so machine files work in
    bare environments too.
    """
    try:
        import yaml
    except ImportError:
        return _parse_mini_yaml(text, source)
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SpecError(f"{source}: invalid YAML: {exc}") from exc
    return {} if raw is None else raw


def _coerce_scalar(token: str):
    """Interpret one YAML scalar token (int, float, bool, null, str)."""
    token = token.strip()
    if token.startswith(("'", '"')) and token.endswith(token[0]) \
            and len(token) >= 2:
        return token[1:-1]
    low = token.lower()
    if low in ("null", "~", ""):
        return None
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(token, 0)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def _parse_mini_yaml(text: str, source: str) -> dict:
    """Fallback parser for the spec subset of YAML (nested mappings)."""
    root: dict = {}
    section: dict | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        indented = stripped.startswith((" ", "\t"))
        body = stripped.strip()
        if ":" not in body:
            raise SpecError(f"{source}:{lineno}: expected 'key: value', "
                            f"got {body!r}")
        key, _, value = body.partition(":")
        key = key.strip()
        value = value.strip()
        if indented:
            if section is None:
                raise SpecError(f"{source}:{lineno}: indented key "
                                f"{key!r} outside any section")
            section[key] = _coerce_scalar(value)
        elif value:
            root[key] = _coerce_scalar(value)
            section = None
        else:
            section = root.setdefault(key, {})
    return root


# ----------------------------------------------------------------------
# Config <-> spec round trip
# ----------------------------------------------------------------------
def to_spec(config: SystemConfig) -> MachineSpec:
    """Express a configuration object as its declarative spec.

    Inverse of :func:`from_spec` for every supported family:
    ``from_spec(to_spec(cfg)) == cfg`` (asserted by the test suite for
    every :func:`~repro.params.paper_configurations` entry).
    """
    family = getattr(config, "family", None)
    if family not in FAMILIES:
        raise SpecError(
            f"cannot build a machine spec for {type(config).__name__} "
            f"(family {family!r}); supported families: "
            f"{', '.join(FAMILIES)}")
    data: dict = {"family": family, "lanes": config.lanes,
                  "name": config.name}
    for field in _fields_for(family):
        if field.section == "memory":
            value = getattr(config.memory, field.target)
        elif field.section == "scalar":
            value = getattr(config.scalar, field.target)
        elif field.section in ("pipeline", "interconnect"):
            value = getattr(config, field.target)
        else:
            continue
        if field.kind is float:
            value = float(value)
        data.setdefault(field.section, {})[field.key] = value
    return MachineSpec.from_dict(data, source=f"to_spec({config.name})")


def from_spec(spec: MachineSpec | dict, source: str = "<dict>"
              ) -> SystemConfig:
    """Build a configuration from a spec (or a raw spec dict)."""
    if isinstance(spec, dict):
        spec = MachineSpec.from_dict(spec, source=source)
    return spec.to_config()
