"""First-class, serializable description of one simulation run.

A :class:`RunSpec` captures *everything* a run depends on — the resolved
task list, the full scenario, the fully resolved :class:`SystemConfig`
and the measurement windows — so that executing a run is a pure function
``RunSpec -> RunResult`` (see :func:`repro.core.simulator.run_spec`).

Because the spec is pure data it can be:

* hashed — :meth:`RunSpec.content_hash` is the key for both the
  in-memory memo and the on-disk result cache.  It is the sha256 of
  :meth:`RunSpec.canonical_json`, and both are computed once per
  instance (the spec is deeply immutable, so neither can go stale): the
  text is spliced from the stored texts of its tasks, scenario and
  config, and the sweep service and the result cache splice it into
  every frame and entry that carries the spec;
* shipped across process boundaries — the parallel
  :class:`~repro.experiments.runner.SweepRunner` fans specs out over a
  ``ProcessPoolExecutor``;
* stored and replayed — ``to_dict``/``from_dict`` round-trip through
  JSON exactly.

Workload mix names are resolved to explicit :class:`BenchmarkSpec` tuples
at construction time, so a cached result can never silently alias a
different task list (e.g. after a Table 2 mix definition changes).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import serialize
from repro.config.scenarios import SCENARIOS, Scenario
from repro.config.system_configs import SystemConfig
from repro.errors import ConfigError
from repro.workloads.benchmark import BenchmarkSpec

#: Version tag for the serialized spec layout.  Bump on field changes so
#: stale cache entries are recomputed instead of mis-parsed.
SPEC_SCHEMA = 4


@dataclass(frozen=True)
class RunSpec:
    """Pure-data description of one simulation run."""

    workload_name: str
    specs: tuple[BenchmarkSpec, ...]
    scenario: Scenario
    config: SystemConfig
    num_windows: float = 2.0
    warmup_windows: float = 0.25
    banks_per_task: int | None = None
    #: Timeseries samples per retention window attached to the result
    #: (None = no sampling).  Part of the spec — and hence the content
    #: hash — because it changes what the result contains.
    sample_windows: int | None = None
    #: Warm-start: run the warmup phase under this scenario, checkpoint
    #: at the measurement boundary, and resume the measured interval
    #: under ``scenario``.  Sweeps over scenarios that share the same
    #: ``warmup_scenario`` reuse one cached warmup checkpoint.
    warmup_scenario: str | None = None
    #: Provenance of a resumed run (``"<prefix-hash>@<cycle>"``); set by
    #: the resume pipeline so a continuation never aliases a cold run in
    #: the result cache.
    resume_from: str | None = None

    def __post_init__(self):
        # The task list must stay a tuple: a list could change after
        # content_hash() has stored the hash of its old contents.
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))

    def validate(self) -> None:
        """Check the spec.  Its task specs and config are checked once
        per instance (:func:`~repro.serialize.validated`): a sweep's
        cells share them."""
        if not self.specs:
            raise ConfigError("RunSpec: task spec list must not be empty")
        for spec in self.specs:
            serialize.validated(spec)
        serialize.validated(self.config)
        if self.num_windows <= 0:
            raise ConfigError("RunSpec: num_windows must be positive")
        if self.warmup_windows < 0:
            raise ConfigError("RunSpec: warmup_windows cannot be negative")
        if self.banks_per_task is not None and self.banks_per_task < 1:
            raise ConfigError("RunSpec: banks_per_task must be >= 1")
        if self.sample_windows is not None and self.sample_windows < 1:
            raise ConfigError("RunSpec: sample_windows must be >= 1")
        if self.warmup_scenario is not None and self.warmup_scenario not in SCENARIOS:
            raise ConfigError(
                f"RunSpec: unknown warmup_scenario "
                f"{self.warmup_scenario!r}; known: {sorted(SCENARIOS)}"
            )

    def with_(self, **kwargs) -> "RunSpec":
        """Return a copy with the given fields replaced."""
        try:
            return replace(self, **kwargs)
        except TypeError as exc:
            raise ConfigError(f"invalid RunSpec override: {exc}") from None

    def to_dict(self) -> dict:
        return self._layout(
            [s.to_dict() for s in self.specs],
            self.scenario.to_dict(),
            self.config.to_dict(),
        )

    def _layout(self, specs, scenario, config) -> dict:
        """The serialized field layout, the one definition behind
        :meth:`to_dict` and :meth:`canonical_json`: *specs*, *scenario*
        and *config* come as dicts or as their stored canonical texts."""
        # The warm-start fields are emitted only when set, so the content
        # hash of every pre-existing spec (and its cached result) is
        # unchanged by their introduction.
        data = {
            "workload_name": self.workload_name,
            "specs": specs,
            "scenario": scenario,
            "config": config,
            "num_windows": self.num_windows,
            "warmup_windows": self.warmup_windows,
            "banks_per_task": self.banks_per_task,
            "sample_windows": self.sample_windows,
        }
        if self.warmup_scenario is not None:
            data["warmup_scenario"] = self.warmup_scenario
        if self.resume_from is not None:
            data["resume_from"] = self.resume_from
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        if not isinstance(data, dict):
            raise ConfigError(
                f"RunSpec: expected a dict, got {type(data).__name__}"
            )
        data = dict(data)
        try:
            specs = tuple(BenchmarkSpec.from_dict(s) for s in data.pop("specs"))
            scenario = Scenario.from_dict(data.pop("scenario"))
            config = SystemConfig.from_dict(data.pop("config"))
        except KeyError as exc:
            raise ConfigError(f"RunSpec: missing field {exc}") from None
        except TypeError as exc:
            raise ConfigError(f"RunSpec: malformed payload ({exc})") from None
        spec = serialize.dataclass_from_dict(
            cls, {**data, "specs": specs, "scenario": scenario, "config": config}
        )
        spec.validate()
        return spec

    def canonical_json(self) -> serialize.CanonicalJSON:
        """The spec's canonical JSON text (the hash pre-image), computed
        on the first call and stored on the instance.

        The text is spliced from the stored texts of the task list,
        scenario and config, which a sweep's specs share, so each is
        encoded once per instance, not once per spec.  Raises
        :class:`ConfigError` when any embedded value is not serializable
        (rather than a bare ``TypeError`` from ``json``).
        """
        return serialize.stored(self, "_canonical_json", RunSpec._splice)

    def _splice(self) -> serialize.CanonicalJSON:
        return serialize.CanonicalJSON(serialize.encode_canonical(self._layout(
            serialize.canonical_array(s.canonical_json() for s in self.specs),
            self.scenario.canonical_json(),
            self.config.canonical_json(),
        )))

    def content_hash(self) -> str:
        """Stable content hash over the complete spec: the hash of
        :meth:`canonical_json`, computed on the first call and stored on
        the instance beside the text.

        ``with_``, ``dataclasses.replace`` and ``from_dict`` build new
        instances, which compute their own; a pickled spec carries its
        text and hash along.
        """
        return serialize.stored(self, "_content_hash", RunSpec._hash)

    def _hash(self) -> str:
        return serialize.text_hash(self.canonical_json())
