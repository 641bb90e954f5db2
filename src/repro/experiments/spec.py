"""Declarative campaign specs: the single source of truth for a grid.

A campaign is the cross product of four dimensions — engines, workloads,
seeds (each seed is one repeat of every cell), and fault schedules —
evaluated at one scale (``n_keys``/``n_ops``) under one platform-cost
model.  The spec is a frozen dataclass, validated eagerly (unknown
engines, workloads, or fault signatures are :class:`ConfigError`, not
silent typos producing empty grids), and hashed canonically: the
16-hex-digit :meth:`CampaignSpec.content_hash` keys the result store, so
*any* change to the spec — one more seed, a different skew — lands in a
fresh store namespace instead of silently mixing with stale cells.

Specs load from TOML (Python ≥ 3.11, via :mod:`tomllib`) or JSON; both
map to the same flat dictionary, optionally nested under a
``[campaign]`` table so spec files can carry unrelated tooling tables.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.core.config import DCARTConfig
from repro.errors import ConfigError
from repro.faults import (
    BufferStorm,
    CrashFault,
    FaultSchedule,
    HbmThrottle,
    ReplicationLinkSlowdown,
    ShortcutCorruption,
)
from repro.harness.resilience import chaos_config
from repro.harness.runner import ENGINE_ORDER, EXTENSION_ENGINES
from repro.model.costs import DEFAULT_POWER, PowerModel
from repro.workloads import WORKLOAD_NAMES

#: Every engine a campaign may name (the paper's roster + extensions).
KNOWN_ENGINES: Tuple[str, ...] = tuple(ENGINE_ORDER) + tuple(
    EXTENSION_ENGINES
)

#: Engines that accept fault schedules (the chaos harness drives the
#: accelerator model; the CPU/GPU baselines have no SOUs to kill).
FAULT_CAPABLE_ENGINES: Tuple[str, ...] = ("DCART",)

#: The no-fault signature every campaign has by default.
NO_FAULT = "none"

#: The crash-recover-validate signature (a recovery verdict, no throughput).
CRASH_FAULT = "crash"


_COUNT = (int, lambda n: n >= 1, "N must be an integer >= 1")

#: The fault kinds a signature may join with ``+``, each with its
#: argument's parser, check and rule (placement: :func:`fault_schedule`).
_FAULT_KINDS: Dict[str, Tuple[type, Callable[[float], bool], str]] = {
    "sou-failstop": _COUNT,
    "shortcut-corrupt": _COUNT,
    "buffer-storm": (float, lambda f: 0.0 < f <= 1.0, "F must be in (0, 1]"),
    "hbm-throttle": (float, lambda f: 0.0 <= f < 1.0, "F must be in [0, 1)"),
    "shard-failstop": _COUNT,
    "replication-slowdown": (float, lambda f: f > 1.0, "F must be > 1"),
}

#: Kinds that only a cluster can place: their targets are drawn from
#: its shards, and one machine has none.
_SHARD_KINDS = ("shard-failstop", "replication-slowdown")

#: Batches a window kind covers when it lands at a given batch.
_WINDOW_BATCHES = 5


def parse_fault(signature: str) -> Dict[str, Optional[float]]:
    """Validate a fault signature and split it into ``{kind: argument}``.

    Supported signatures:

    * ``"none"`` — the healthy run;
    * ``"crash"`` — kill a durable run at a seed-drawn point, recover,
      and check the recovered tree against the committed prefix;
    * ``"sou-failstop:N"`` — fail-stop N seed-chosen SOUs (N ≥ 1);
    * ``"shortcut-corrupt:N"`` — corrupt N Shortcut_Table entries
      (N ≥ 1);
    * ``"buffer-storm:F"`` — invalidate a fraction F of the Tree_buffer
      (0 < F ≤ 1);
    * ``"hbm-throttle:F"`` — HBM bandwidth × F over a batch window
      (0 ≤ F < 1; 0 is a blackout);
    * ``"shard-failstop:N"`` — fail-stop N seed-chosen shard primaries
      of a cluster (N ≥ 1);
    * ``"replication-slowdown:F"`` — one shard's replication link F×
      slower over a batch window (F > 1);
    * the ``KIND:ARG`` terms joined by ``+`` into one schedule, each
      kind at most once, e.g. ``"sou-failstop:2+buffer-storm:0.5"``.

    Where each kind lands is :func:`fault_schedule`'s business.
    """
    if not isinstance(signature, str):
        raise ConfigError(f"fault signature must be a string: {signature!r}")
    if signature in (NO_FAULT, CRASH_FAULT):
        return {signature: None}
    terms: Dict[str, Optional[float]] = {}
    for term in signature.split("+"):
        kind, sep, arg = term.partition(":")
        if kind in (NO_FAULT, CRASH_FAULT):
            raise ConfigError(
                f"bad fault signature {signature!r}: {kind!r} stands alone"
            )
        if not sep:
            raise ConfigError(
                f"bad fault signature {signature!r}: expected 'none', "
                f"'crash', or KIND:ARG terms joined by '+' (kinds: "
                f"{', '.join(_FAULT_KINDS)})"
            )
        if kind not in _FAULT_KINDS:
            raise ConfigError(f"unknown fault kind {kind!r} in {signature!r}")
        if kind in terms:
            raise ConfigError(
                f"bad fault signature {signature!r}: {kind!r} appears twice"
            )
        parse, valid, rule = _FAULT_KINDS[kind]
        try:
            value = parse(arg)
        except ValueError:
            raise ConfigError(
                f"bad fault signature {signature!r}: {rule}"
            ) from None
        if not valid(value):
            raise ConfigError(f"bad fault signature {signature!r}: {rule}")
        terms[kind] = value
    return terms


def fault_schedule(
    signature: str,
    config: DCARTConfig,
    n_ops: int,
    seed: int,
    *,
    at_batch: Optional[int] = None,
    n_shards: int = 0,
    replicas: int = 0,
) -> FaultSchedule:
    """The schedule a fault signature runs, checked against its run.

    The run is ``config``'s machine (``n_shards == 0``) or a cluster of
    ``n_shards`` such machines with ``replicas`` replicas each, and the
    schedule ends checked by :meth:`FaultSchedule.check_run`.

    With no ``at_batch`` (closed-loop runs and campaigns), seed-chosen
    SOUs fail at batch 0; corruption and the storm land at batch
    ``n_batches // 2``, and the throttle covers batches ``n_batches //
    2`` to ``n_batches - 1``; a mid-run event on a run of fewer than two
    batches is a :class:`ConfigError`.  ``none`` and ``crash`` place
    nothing (``crash`` is the campaign's recovery trial).

    With ``at_batch`` B (``serve`` and ``cluster``), every term lands at
    B: point events at B, a window over the five batches B to B + 4 (a
    replication slowdown on the link of shard ``seed % n_shards``), and
    ``crash`` kills the machine at B's WAL pre-commit point.
    """
    terms = parse_fault(signature)
    if n_shards == 0 and any(kind in terms for kind in _SHARD_KINDS):
        raise ConfigError(
            f"fault {signature!r} needs a cluster, and this run is one machine"
        )
    if at_batch is None:
        n_batches = -(-n_ops // config.batch_size)
        failstop, point = 0, n_batches // 2
        window = (point, n_batches - 1)
    else:
        failstop = point = at_batch
        window = (at_batch, at_batch + _WINDOW_BATCHES - 1)
    events = []
    if "shortcut-corrupt" in terms:
        events.append(ShortcutCorruption(point, int(terms["shortcut-corrupt"])))
    if "buffer-storm" in terms:
        events.append(BufferStorm(point, terms["buffer-storm"]))
    if "hbm-throttle" in terms:
        events.append(HbmThrottle(*window, terms["hbm-throttle"]))
    if at_batch is None and events and n_batches < 2:
        raise ConfigError(
            f"fault {signature!r} lands an event mid-run, which needs a "
            f"second batch, but n_ops={n_ops} is {n_batches} batch of "
            f"{config.batch_size} ops; use n_ops > {config.batch_size}"
        )
    if "sou-failstop" in terms:
        events.extend(FaultSchedule.fail_sous(
            int(terms["sou-failstop"]), seed, n_sous=config.n_sous,
            at_batch=failstop,
        ).events)
    if "shard-failstop" in terms:
        events.extend(FaultSchedule.fail_shards(
            int(terms["shard-failstop"]), seed, n_shards, at_batch=failstop
        ).events)
    if "replication-slowdown" in terms:
        events.append(ReplicationLinkSlowdown(
            *window, seed % n_shards, terms["replication-slowdown"]
        ))
    if CRASH_FAULT in terms and at_batch is not None:
        events.append(CrashFault(at_batch, "wal-pre-commit", seed % 1024))
    schedule = FaultSchedule(seed=seed, events=tuple(events))
    schedule.check_run(config.n_sous, n_shards, replicas)
    return schedule


@dataclass(frozen=True)
class CampaignSpec:
    """One declarative campaign: the full recipe for a result grid."""

    name: str
    engines: Tuple[str, ...]
    workloads: Tuple[str, ...]
    seeds: Tuple[int, ...]
    n_keys: int = 10_000
    n_ops: int = 100_000
    write_ratio: Optional[float] = None
    op_skew: Optional[float] = None
    faults: Tuple[str, ...] = (NO_FAULT,)
    #: Platform power draws (watts) the energy columns are priced at;
    #: ``None`` keys inherit :data:`repro.model.costs.DEFAULT_POWER`.
    power: Optional[Tuple[float, float, float]] = None  # (cpu, gpu, fpga)
    #: Engine every other engine is significance-tested against
    #: (default: the first engine listed).
    baseline_engine: str = field(default="")

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name.replace(
            "-", ""
        ).replace("_", "").isalnum():
            raise ConfigError(
                f"campaign name must be a non-empty [-_a-zA-Z0-9] slug: "
                f"{self.name!r}"
            )
        if not self.engines:
            raise ConfigError("campaign needs at least one engine")
        for engine in self.engines:
            if engine not in KNOWN_ENGINES:
                raise ConfigError(
                    f"unknown engine {engine!r} (known: "
                    f"{', '.join(KNOWN_ENGINES)})"
                )
        if len(set(self.engines)) != len(self.engines):
            raise ConfigError("duplicate engines in campaign")
        if not self.workloads:
            raise ConfigError("campaign needs at least one workload")
        for workload in self.workloads:
            if workload not in WORKLOAD_NAMES:
                raise ConfigError(
                    f"unknown workload {workload!r} (known: "
                    f"{', '.join(WORKLOAD_NAMES)})"
                )
        if len(set(self.workloads)) != len(self.workloads):
            raise ConfigError("duplicate workloads in campaign")
        if not self.seeds:
            raise ConfigError("campaign needs at least one seed (repeat)")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("duplicate seeds in campaign")
        for seed in self.seeds:
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise ConfigError(f"seeds must be integers: {seed!r}")
        if self.n_keys <= 0 or self.n_ops <= 0:
            raise ConfigError(
                f"n_keys/n_ops must be positive: {self.n_keys}/{self.n_ops}"
            )
        if self.write_ratio is not None and not 0.0 <= self.write_ratio <= 1.0:
            raise ConfigError(
                f"write_ratio must be in [0, 1]: {self.write_ratio}"
            )
        if self.op_skew is not None and self.op_skew <= 0.0:
            raise ConfigError(f"op_skew must be positive: {self.op_skew}")
        if not self.faults:
            raise ConfigError(
                "faults must not be empty (use ('none',) for healthy runs)"
            )
        if len(set(self.faults)) != len(self.faults):
            raise ConfigError("duplicate fault signatures in campaign")
        for signature in self.faults:
            if signature != NO_FAULT:
                # A schedule the cells cannot run (a mid-run event on a
                # one-batch run, too many dead SOUs) fails at load.
                config = chaos_config(self.n_keys)
                fault_schedule(signature, config, self.n_ops, self.seeds[0])
                incapable = [
                    e for e in self.engines
                    if e not in FAULT_CAPABLE_ENGINES
                ]
                if incapable:
                    raise ConfigError(
                        f"fault {signature!r} needs fault-capable engines; "
                        f"{', '.join(incapable)} cannot run a fault "
                        f"schedule (only "
                        f"{', '.join(FAULT_CAPABLE_ENGINES)} can)"
                    )
        if self.power is not None:
            cpu, gpu, fpga = self.power
            # PowerModel validates positivity; constructing it here makes
            # a bad override fail at spec load, not mid-campaign.
            PowerModel(cpu_watts=cpu, gpu_watts=gpu, fpga_watts=fpga)
        baseline = self.baseline_engine or self.engines[0]
        if baseline not in self.engines:
            raise ConfigError(
                f"baseline_engine {baseline!r} is not in the campaign's "
                f"engine list"
            )
        object.__setattr__(self, "baseline_engine", baseline)

    def power_model(self) -> PowerModel:
        """The platform-cost dimension as a :class:`PowerModel`."""
        if self.power is None:
            return DEFAULT_POWER
        cpu, gpu, fpga = self.power
        return PowerModel(cpu_watts=cpu, gpu_watts=gpu, fpga_watts=fpga)

    def to_dict(self) -> Dict[str, object]:
        """The canonical plain-data form (hashing + storage)."""
        return {
            "name": self.name,
            "engines": list(self.engines),
            "workloads": list(self.workloads),
            "seeds": list(self.seeds),
            "n_keys": self.n_keys,
            "n_ops": self.n_ops,
            "write_ratio": self.write_ratio,
            "op_skew": self.op_skew,
            "faults": list(self.faults),
            "power": list(self.power) if self.power is not None else None,
            "baseline_engine": self.baseline_engine,
        }

    def content_hash(self) -> str:
        """A stable 16-hex-digit digest of the spec's content.

        Canonical JSON (sorted keys, fixed separators) in, SHA-256 out:
        the same spec always hashes identically across processes and
        Python versions, and any semantic change changes the hash.
        """
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def spec_from_dict(doc: Mapping[str, object]) -> CampaignSpec:
    """Build a validated spec from a plain mapping (TOML/JSON payload)."""
    if not isinstance(doc, Mapping):
        raise ConfigError(
            f"campaign spec must be a table/object, got "
            f"{type(doc).__name__}"
        )
    known = {f.name for f in fields(CampaignSpec)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(
            f"unknown campaign spec key(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})"
        )
    for required in ("name", "engines", "workloads", "seeds"):
        if required not in doc:
            raise ConfigError(f"campaign spec is missing {required!r}")
    kwargs: Dict[str, object] = dict(doc)
    for key in ("engines", "workloads", "seeds", "faults"):
        if key in kwargs:
            value = kwargs[key]
            if isinstance(value, str) or not hasattr(value, "__iter__"):
                raise ConfigError(f"{key} must be a list")
            kwargs[key] = tuple(value)  # type: ignore[arg-type]
    if kwargs.get("power") is not None:
        power = kwargs["power"]
        if isinstance(power, Mapping):
            extra = sorted(
                set(power) - {"cpu_watts", "gpu_watts", "fpga_watts"}
            )
            if extra:
                raise ConfigError(
                    f"unknown power key(s): {', '.join(extra)}"
                )
            try:
                kwargs["power"] = tuple(
                    float(power.get(key, getattr(DEFAULT_POWER, key)))
                    for key in ("cpu_watts", "gpu_watts", "fpga_watts")
                )
            except (TypeError, ValueError):
                raise ConfigError(
                    f"power watts must be numbers: {dict(power)!r}"
                ) from None
        else:
            raise ConfigError(
                "power must be a table of cpu_watts/gpu_watts/fpga_watts"
            )
    try:
        return CampaignSpec(**kwargs)  # type: ignore[arg-type]
    except TypeError as exc:
        raise ConfigError(f"bad campaign spec: {exc}") from exc


def load_spec(path: str) -> CampaignSpec:
    """Load and validate a campaign spec from a ``.toml``/``.json`` file.

    The campaign table may sit at the top level or under ``[campaign]``;
    TOML needs Python ≥ 3.11 (:mod:`tomllib`) — on older interpreters
    write the spec as JSON, which is always supported.
    """
    if not os.path.exists(path):
        raise ConfigError(f"campaign spec not found: {path}")
    ext = os.path.splitext(path)[1].lower()
    if ext not in (".toml", ".json"):
        raise ConfigError(
            f"campaign spec must be .toml or .json, got {path!r}"
        )
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
    except OSError as exc:
        raise ConfigError(
            f"cannot read campaign spec {path}: {exc.strerror}"
        ) from None
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{path} is not valid UTF-8 (byte {exc.start})"
        ) from None
    if ext == ".toml":
        try:
            import tomllib
        except ImportError:
            raise ConfigError(
                f"{path}: TOML specs need Python >= 3.11 (tomllib); "
                f"use a .json spec on this interpreter"
            ) from None
        try:
            doc = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ConfigError(f"{path} is not valid TOML: {exc}") from exc
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if isinstance(doc, Mapping) and isinstance(
        doc.get("campaign"), Mapping
    ):
        doc = doc["campaign"]
    return spec_from_dict(doc)
