"""Sharded sweep service: resumable manifests, shared cache, serving.

The service layer turns the single-machine parallel engine into
production-shaped infrastructure (see ``docs/sweep_service.md``):

* :mod:`~repro.experiments.service.stores` — pluggable content-addressed
  cache backends (local directory, sqlite) behind one byte-level
  protocol, shared safely across processes;
* :mod:`~repro.experiments.service.manifest` — a sweep of job specs
  partitioned into content-keyed shards with a resumable on-disk
  manifest (done/pending/failed, atomic checkpoints);
* :mod:`~repro.experiments.service.sweeper` — the shard executor behind
  ``pearl-sim sweep [--resume]``;
* :mod:`~repro.experiments.service.server` /
  :mod:`~repro.experiments.service.client` — the asyncio
  ``pearl-sim serve`` API with request coalescing and backpressure,
  plus its stdlib client.

Attributes resolve lazily (PEP 562): ``repro.experiments.cache`` builds
on :mod:`.stores` and :mod:`.spec_codec`, so eager submodule imports
here would cycle back into a half-initialised ``cache`` module.
"""

from __future__ import annotations

_EXPORTS = {
    "CacheStore": "stores",
    "LocalDirStore": "stores",
    "SqliteStore": "stores",
    "StoreStats": "stores",
    "open_store": "stores",
    "MANIFEST_FORMAT": "manifest",
    "Shard": "manifest",
    "SweepManifest": "manifest",
    "partition_specs": "manifest",
    "sweep_key": "manifest",
    "SweepReport": "sweeper",
    "SweepRunner": "sweeper",
    "spec_from_doc": "spec_codec",
    "spec_to_doc": "spec_codec",
    "SweepServer": "server",
    "ServeClient": "client",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
