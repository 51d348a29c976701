"""Registry of every ``REPRO_*`` environment variable the suite reads.

One module is the single source of truth for environment knobs: their
names, what they control, and their defaults.  Everything follows from
that:

* **Reads go through** :func:`read_env` — the only place in ``src/``
  allowed to touch ``os.environ`` (enforced by the ``RL501`` lint rule,
  see ``docs/static-analysis.md``).  Reading an unregistered name is a
  programming error and raises immediately, so a new knob cannot ship
  without a registry entry.
* **Docs are generated** — the knob table in ``docs/trace-store.md`` is
  rendered by :func:`knob_table` and pinned by a test, so the table can
  never drift from the code.

Resolution order for every knob is always explicit argument →
environment variable → default; this module only owns the middle step.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import ConfigError

#: Environment variable naming the shared trace-store directory.
ENV_STORE_DIR = "REPRO_TRACE_STORE"

#: Environment variable naming the trace-store GC byte budget.
ENV_STORE_BYTES = "REPRO_TRACE_STORE_BYTES"

#: Environment variable holding a fault-injection plan spec string.
ENV_FAULT_PLAN = "REPRO_FAULT_PLAN"

#: Environment variable setting the fuzz property-harness seed count.
ENV_FUZZ_SEEDS = "REPRO_FUZZ_SEEDS"


@dataclass(frozen=True)
class EnvKnob:
    """One suite knob: its env var (if any), CLI spelling, and default.

    ``env`` is ``None`` for CLI-only knobs — they appear in the
    generated docs table (which documents *knobs*, not just variables)
    but register no environment name.
    """

    knob: str                 #: Human label, e.g. "Store directory".
    cli: str                  #: CLI flag spelling(s), or "—".
    env: Optional[str]        #: Environment variable name, or None.
    default: str              #: Default, described for the docs table.
    section: str              #: Docs grouping ("store" | "faults").


#: Every knob, in the order the docs table presents them.
KNOBS: tuple[EnvKnob, ...] = (
    EnvKnob(knob="Store directory",
            cli="`--trace-store DIR` (CLI and `pytest benchmarks/`)",
            env=ENV_STORE_DIR,
            default="`benchmarks/out/trace_cache` (benchmark suite); "
                    "*no store* (CLI)",
            section="store"),
    EnvKnob(knob="GC byte budget",
            cli="`--store-bytes BYTES`",
            env=ENV_STORE_BYTES,
            default="256 MiB",
            section="store"),
    EnvKnob(knob="Run GC",
            cli="`--gc`",
            env=None,
            default="benchmark suite GCs once per session",
            section="store"),
    EnvKnob(knob="Manifest summary",
            cli="`--store-stats`",
            env=None,
            default="off",
            section="store"),
    EnvKnob(knob="Fault injection plan",
            cli="—",
            env=ENV_FAULT_PLAN,
            default="no injected faults",
            section="faults"),
    EnvKnob(knob="Fuzz seed count",
            cli="`--seeds N` (CLI `fuzz`); `--fuzz-seeds N` (pytest)",
            env=ENV_FUZZ_SEEDS,
            default="8 (pytest tier-1); 25 (CLI)",
            section="fuzz"),
)

#: Registered environment-variable names -> their knob entries.
ENV_VARS: dict[str, EnvKnob] = {k.env: k for k in KNOBS if k.env}


def read_env(name: str,
             environ: Optional[Mapping[str, str]] = None) -> Optional[str]:
    """Value of registered env var ``name``, or ``None`` when unset.

    ``environ`` substitutes for ``os.environ`` (tests inject mappings).
    Reading a name missing from :data:`ENV_VARS` raises ``KeyError`` —
    register the knob here first, so the generated docs stay complete.
    """
    if name not in ENV_VARS:
        raise KeyError(
            f"environment variable {name!r} is not registered in "
            f"repro.env.KNOBS; declare it there (the docs knob table "
            f"is generated from the registry)")
    env = os.environ if environ is None else environ
    return env.get(name)


def read_env_count(name: str,
                   environ: Optional[Mapping[str, str]] = None
                   ) -> Optional[int]:
    """Registered env var ``name`` as a non-negative integer, or
    ``None`` when unset or empty.  Any other value raises
    :class:`~repro.errors.ConfigError` naming the variable."""
    text = read_env(name, environ)
    if not text:
        return None
    try:
        value = int(text)
    except ValueError:
        value = -1  # not an integer: reported like a negative count
    if value < 0:
        raise ConfigError(f"${name} must be a non-negative integer, "
                          f"got {text!r}")
    return value


def knob_table(section: str) -> str:
    """Markdown knob table for one docs section (pinned by tests).

    The exact text is embedded in ``docs/trace-store.md``; the pinning
    test re-renders this and asserts the doc contains it verbatim.
    """
    lines = ["| Knob | CLI | Environment | Default |",
             "| --- | --- | --- | --- |"]
    for k in KNOBS:
        if k.section != section:
            continue
        env = f"`{k.env}`" if k.env else "—"
        lines.append(f"| {k.knob} | {k.cli} | {env} | {k.default} |")
    return "\n".join(lines)
