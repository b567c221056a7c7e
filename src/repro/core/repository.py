"""The metadata repository (paper, Figure 1, "Metadata Repository").

Named, versioned storage of schemas and mappings, with optional JSON
persistence to disk.  Versions are append-only: saving under an
existing name creates a new version; loads default to the latest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.errors import RepositoryError
from repro.mappings.mapping import Mapping
from repro.metamodels.serialization import (
    mapping_from_dict,
    mapping_to_dict,
    schema_from_dict,
    schema_to_dict,
)
from repro.metamodel.schema import Schema


@dataclass
class VersionedArtifact:
    """One stored version of a schema or mapping."""

    name: str
    version: int
    kind: str  # "schema" | "mapping"
    payload: dict
    comment: str = ""


class MetadataRepository:
    """In-memory repository with optional directory-backed persistence."""

    def __init__(self, directory: Optional[Union[str, Path]] = None):
        self._store: dict[tuple[str, str], list[VersionedArtifact]] = {}
        self.directory = Path(directory) if directory else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._load_from_disk()

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------
    def save_schema(self, schema: Schema, name: Optional[str] = None,
                    comment: str = "") -> VersionedArtifact:
        return self._save("schema", name or schema.name,
                          schema_to_dict(schema), comment)

    def save_mapping(self, mapping: Mapping, name: Optional[str] = None,
                     comment: str = "") -> VersionedArtifact:
        return self._save("mapping", name or mapping.name,
                          mapping_to_dict(mapping), comment)

    def _save(self, kind: str, name: str, payload: dict,
              comment: str) -> VersionedArtifact:
        versions = self._store.setdefault((kind, name), [])
        artifact = VersionedArtifact(
            name=name,
            version=len(versions) + 1,
            kind=kind,
            payload=payload,
            comment=comment,
        )
        versions.append(artifact)
        if self.directory is not None:
            path = self.directory / f"{kind}__{name}__v{artifact.version}.json"
            path.write_text(json.dumps(
                {"comment": comment, "payload": payload}, default=str
            ))
        return artifact

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------
    def load_schema(self, name: str, version: Optional[int] = None) -> Schema:
        return schema_from_dict(self._load("schema", name, version).payload)

    def load_mapping(self, name: str, version: Optional[int] = None) -> Mapping:
        return mapping_from_dict(self._load("mapping", name, version).payload)

    def _load(self, kind: str, name: str,
              version: Optional[int]) -> VersionedArtifact:
        versions = self._store.get((kind, name))
        if not versions:
            raise RepositoryError(f"no {kind} named {name!r}")
        if version is None:
            return versions[-1]
        for artifact in versions:
            if artifact.version == version:
                return artifact
        raise RepositoryError(
            f"{kind} {name!r} has no version {version} "
            f"(latest is {versions[-1].version})"
        )

    def versions_of(self, kind: str, name: str) -> list[int]:
        return [a.version for a in self._store.get((kind, name), [])]

    def list_schemas(self) -> list[str]:
        return sorted(n for k, n in self._store if k == "schema")

    def list_mappings(self) -> list[str]:
        return sorted(n for k, n in self._store if k == "mapping")

    def history(self, kind: str, name: str) -> list[VersionedArtifact]:
        return list(self._store.get((kind, name), []))

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _load_from_disk(self) -> None:
        assert self.directory is not None
        for path in sorted(self.directory.glob("*__*__v*.json")):
            stem_parts = path.stem.split("__")
            if len(stem_parts) != 3:
                continue
            kind, name, version_tag = stem_parts
            data = json.loads(path.read_text())
            versions = self._store.setdefault((kind, name), [])
            versions.append(
                VersionedArtifact(
                    name=name,
                    version=int(version_tag[1:]),
                    kind=kind,
                    payload=data["payload"],
                    comment=data.get("comment", ""),
                )
            )
        for versions in self._store.values():
            versions.sort(key=lambda a: a.version)
