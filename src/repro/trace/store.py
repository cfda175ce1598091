"""Content-addressed storage for recorded power traces.

The store answers one question for the sweep machinery: *"has the
emulation side of this scenario already been run?"*.  Its key is
:func:`scenario_trace_digest` — a SHA-256 over the canonical JSON of
exactly the scenario fields that determine the power/frequency stream
at the dispatcher boundary:

* platform architecture, workload, policy and run bounds always count;
* cosmetic fields (``name``, ``description``) never count;
* the **thermal-side knobs** (``grid_mode``, ``refine_critical``,
  ``die_resolution``, ``spreader_resolution``, ``solver_backend``,
  ``initial_temperature_kelvin``) are excluded when the policy is
  ``none`` — an unmanaged run's boundary stream does not
  depend on how the SW side discretizes or solves the die, so one
  recording serves every thermal variant (the Figure 3 / Table 2
  sweeps).  A *reactive* policy closes the loop (temperature feeds back
  into frequency, hence power), so for any other policy the full
  scenario participates and only an exact re-run replays.
* ``emulation_backend`` is **not** thermal-side: the backend *produces*
  the boundary stream (an approximate backend like ``windowed`` yields
  slightly different power vectors than ``event_driven``), so it
  participates in the digest and recordings from different emulation
  backends never alias.  A run that builds no platform (no
  ``platform``, or a workload in
  :data:`~repro.scenario.registry.PLATFORM_FREE_WORKLOADS`) builds no
  backend either, so its digest ignores the knob.

On disk the store shards archives as
``<root>/<digest[:2]>/<digest>.npz`` (+ JSON sidecars).  A store built
with ``root=None`` keeps archives in memory — the runner uses that for
single-call record-once/fan-out sweeps that need no persistence.

The disk backend is safe for a whole *fleet* of concurrent writers
(the :mod:`repro.farm` workers): every archive/sidecar write goes
through a uniquely named temp file plus ``os.replace``, and each shard
keeps an ``index.json`` of its entries' metadata — updated under a
per-shard :class:`~repro.util.locking.FileLock` — so enumerating a
large shared store (``entries()``) costs one small JSON read per shard
instead of one sidecar read per archive.  Archives themselves remain
the ground truth: a digest missing from an index (a legacy store, or a
writer that died between rename and index update) is healed into the
index on the next enumeration.
"""

import hashlib
import json
import pathlib

from repro.obs import catalog as obs_catalog
from repro.scenario.registry import PLATFORM_FREE_WORKLOADS
from repro.thermal.grid import used_die_knobs
from repro.trace.format import load_archive, sidecar_path
from repro.util.locking import FileLock, atomic_write_json

#: Default on-disk location used by the ``python -m repro trace`` CLI.
DEFAULT_STORE_DIR = ".repro-traces"

#: FrameworkConfig fields whose value shapes the recorded boundary
#: stream — changing any of them changes what the HW emulation side
#: does, so they must stay inside the digest's scenario projection.
#: Every FrameworkConfig field must appear either here or in
#: :data:`DIGEST_EXEMPT`; the ``digest-participation`` analysis rule
#: (``python -m repro lint``) enforces the classification.
DIGEST_PARTICIPANTS = (
    "sampling_period_s",
    "virtual_hz",
    "physical_hz",
    "sensor_upper_kelvin",
    "sensor_lower_kelvin",
    "monitored_components",
    "ethernet_bandwidth_bps",
    "bram_capacity_bytes",
    "emulation_backend",
    "tech_node",
)

#: FrameworkConfig fields that only the SW thermal side consumes, with
#: the reason each is safe to drop from open-loop digests.
DIGEST_EXEMPT = {
    "grid_mode": "thermal grid refinement; never reaches the HW side",
    "refine_critical": "thermal grid refinement; never reaches the HW side",
    "die_resolution": "thermal mesh density; boundary stream unchanged",
    "spreader_resolution": "thermal mesh density; boundary stream unchanged",
    "solver_backend": (
        "backends differ in temperature (cached_lu freezes conductivity "
        "within 1 K), but an open loop's boundary stream reads none"
    ),
    "initial_temperature_kelvin": "thermal state only; open-loop HW ignores it",
}

#: Exempt fields in declaration order (dropped from open-loop digests).
THERMAL_SIDE_KEYS = tuple(DIGEST_EXEMPT)

#: Policy names whose runs never feed temperature back into the clock.
_OPEN_LOOP_POLICIES = ("none",)


def _scenario_dict(scenario):
    """The *normalized* dict form of a scenario, in canonical JSON form.

    Raw dicts may abbreviate (missing sections keep their defaults, a
    policy can be a bare name), so they are round-tripped through
    :class:`~repro.scenario.spec.Scenario` first — otherwise the same
    experiment would hash differently depending on how it was spelled.
    """
    if isinstance(scenario, dict):
        from repro.scenario.spec import Scenario

        scenario = Scenario.from_dict(scenario)
    return scenario.canonical_dict()


def _policy_name(data):
    """Policy name out of a *normalized* scenario dict."""
    policy = data.get("policy") or {}
    if isinstance(policy, str):
        return policy
    return policy.get("name", "none")


def is_open_loop(scenario):
    """True when the scenario's policy cannot react to temperature, so
    its boundary stream is independent of every thermal-side knob."""
    return _policy_name(_scenario_dict(scenario)) in _OPEN_LOOP_POLICIES


def emulation_projection(scenario):
    """The sub-dict of a scenario that determines its boundary stream,
    in canonical JSON form."""
    data = _scenario_dict(scenario)
    data.pop("name", None)
    data.pop("description", None)
    config = data.get("config")
    if not isinstance(config, dict):
        return data
    if _policy_name(data) in _OPEN_LOOP_POLICIES:
        for key in THERMAL_SIDE_KEYS:
            config.pop(key, None)
    else:  # a closed loop keeps its grid knobs, bar the one unread
        refine, die = used_die_knobs(config["grid_mode"],
                                     config["refine_critical"],
                                     config["die_resolution"])
        config["refine_critical"], config["die_resolution"] = refine, list(die)
    if (data.get("platform") is None
            or data["workload"]["name"] in PLATFORM_FREE_WORKLOADS):
        # A run without a platform never builds an emulation backend,
        # so every spelling of the knob is the same stream.
        config["emulation_backend"] = "event_driven"
    return data


def scenario_trace_digest(scenario):
    """The canonical content digest a :class:`TraceStore` keys on."""
    projection = emulation_projection(scenario)
    canonical = json.dumps(projection, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def content_digest(archive):
    """Digest of an archive's own arrays + component order — the key for
    unscripted captures that have no scenario to hash."""
    digest = hashlib.sha256()
    digest.update(json.dumps(list(archive.components)).encode())
    for name in ("power_w", "frequency_hz", "time_s"):
        digest.update(getattr(archive, name).tobytes())
    return digest.hexdigest()


class TraceStore:
    """Archives by scenario digest, on disk or in memory.

    ``TraceStore("path/to/dir")`` persists; ``TraceStore()`` is an
    in-memory store whose entries die with the process (used for
    one-call sweep fan-out).
    """

    def __init__(self, root=None):
        self.root = pathlib.Path(root) if root is not None else None
        self._memory = {} if root is None else None

    @property
    def in_memory(self):
        return self.root is None

    def path_for(self, digest):
        if self.in_memory:
            raise ValueError("an in-memory TraceStore has no paths")
        return self.root / digest[:2] / f"{digest}.npz"

    # -- per-shard index ---------------------------------------------------
    def _shard_dir(self, digest):
        return self.root / digest[:2]

    def _index_path(self, shard_dir):
        return shard_dir / "index.json"

    def _shard_lock(self, shard_dir):
        return FileLock(shard_dir / ".index.lock")

    @staticmethod
    def _read_index(path):
        """The shard's ``{digest: metadata}`` map; tolerant of a missing
        or torn index (archives are the ground truth, not the index)."""
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return {}
        return data if isinstance(data, dict) else {}

    def _index_add(self, digest, metadata):
        """Merge one entry into its shard index, under the shard lock."""
        shard_dir = self._shard_dir(digest)
        with self._shard_lock(shard_dir):
            index = self._read_index(self._index_path(shard_dir))
            index[digest] = metadata
            atomic_write_json(self._index_path(shard_dir), index)

    # -- lookup ------------------------------------------------------------
    def has(self, digest):
        if not digest:
            return False
        if self.in_memory:
            return digest in self._memory
        return self.path_for(digest).is_file()

    def get(self, digest):
        """The archive recorded under ``digest``, or ``None``."""
        if not digest:
            return None
        if self.in_memory:
            archive = self._memory.get(digest)
        else:
            path = self.path_for(digest)
            archive = load_archive(path) if path.is_file() else None
        obs_catalog.counter(
            "repro_store_hits_total" if archive is not None
            else "repro_store_misses_total"
        ).inc()
        return archive

    def get_for(self, scenario):
        """Store lookup by scenario (the runner's entry point)."""
        return self.get(scenario_trace_digest(scenario))

    # -- insertion ---------------------------------------------------------
    def put(self, archive):
        """File the archive under its own scenario digest; returns the
        digest.  Re-putting an existing digest overwrites (the content
        address makes that a no-op for identical recordings)."""
        digest = archive.scenario_digest
        if not digest:
            raise ValueError(
                "archive has no scenario digest; record through a "
                "Scenario (or stamp metadata['scenario_digest']) first"
            )
        archive.validate()
        if self.in_memory:
            self._memory[digest] = archive
        else:
            archive.save(self.path_for(digest))
            self._index_add(digest, dict(archive.metadata))
        obs_catalog.counter("repro_store_puts_total").inc()
        return digest

    # -- enumeration -------------------------------------------------------
    def digests(self):
        if self.in_memory:
            return sorted(self._memory)
        if self.root is None or not self.root.is_dir():
            return []
        return sorted(
            path.stem for path in self.root.glob("??/*.npz")
        )

    def entries(self):
        """``[(digest, metadata dict)]`` without loading the arrays.

        Served from the per-shard indexes (one JSON read per shard);
        archives the indexes have not caught up with — legacy stores,
        or a writer that died between the archive rename and its index
        update — fall back to their sidecar and are healed into the
        shard index for the next caller.
        """
        if self.in_memory:
            return [
                (digest, dict(self._memory[digest].metadata))
                for digest in self.digests()
            ]
        indexed = {}
        if self.root is not None and self.root.is_dir():
            for index_file in self.root.glob("??/index.json"):
                indexed.update(self._read_index(index_file))
        rows = []
        for digest in self.digests():
            if digest in indexed:
                rows.append((digest, indexed[digest]))
                continue
            side = sidecar_path(self.path_for(digest))
            if side.is_file():
                metadata = json.loads(side.read_text())
            else:  # lone .npz: fall back to the embedded copy
                metadata = dict(load_archive(self.path_for(digest)).metadata)
            self._index_add(digest, metadata)
            rows.append((digest, metadata))
        return rows

    def __len__(self):
        return len(self.digests())

    def __contains__(self, digest):
        return self.has(digest)
