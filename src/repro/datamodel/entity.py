"""Entity profile data model.

The paper (Section 2) defines an *entity profile* as a set of textual
name-value pairs.  This simple model accommodates structured records
(relational tuples), semi-structured entity descriptions (RDF, JSON) and
free text, which is what makes schema-agnostic blocking applicable.

Two containers are provided:

* :class:`EntityProfile` — a single entity with an identifier and its
  attribute name/value pairs.
* :class:`EntityCollection` — an ordered, indexable collection of profiles,
  flagged as *clean* (duplicate-free, for Clean-Clean ER) or *dirty*
  (may contain duplicates, for Dirty ER / deduplication).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple


@dataclass(frozen=True)
class EntityProfile:
    """A single entity described by textual name/value pairs.

    Parameters
    ----------
    entity_id:
        Application-level identifier, unique within its collection.
    attributes:
        Mapping from attribute name to attribute value.  Values are kept as
        strings; ``None`` and empty values are allowed and simply contribute
        no blocking signatures.
    """

    entity_id: str
    attributes: Mapping[str, str] = field(default_factory=dict)

    def values(self) -> List[str]:
        """Return all non-empty attribute values."""
        return [value for value in self.attributes.values() if value]

    def text(self) -> str:
        """Return the concatenation of all attribute values.

        Schema-agnostic blocking treats the profile as a bag of tokens drawn
        from every attribute value, so the concatenated text is the natural
        input to signature extraction.
        """
        return " ".join(self.values())

    def attribute(self, name: str, default: str = "") -> str:
        """Return the value of ``name`` or ``default`` when absent/empty."""
        value = self.attributes.get(name)
        return value if value else default

    def is_empty(self) -> bool:
        """Return ``True`` when the profile carries no non-empty value."""
        return not self.values()

    def __len__(self) -> int:
        return len(self.attributes)


class EntityCollection:
    """An ordered collection of :class:`EntityProfile` objects.

    The collection assigns every profile a dense integer index (its position)
    used throughout the library: blocks, candidate pairs and feature matrices
    all reference entities by index, which keeps the hot paths array-friendly.

    Parameters
    ----------
    profiles:
        The entity profiles, in a stable order.
    name:
        Human-readable name (e.g. the source dataset name).
    is_clean:
        ``True`` when the collection is known to be duplicate-free
        (Clean-Clean ER source), ``False`` for dirty collections.
    """

    def __init__(
        self,
        profiles: Iterable[EntityProfile],
        name: str = "collection",
        is_clean: bool = True,
    ) -> None:
        self.name = name
        self.is_clean = is_clean
        self._profiles: List[EntityProfile] = list(profiles)
        self._id_to_index: Dict[str, int] = {}
        for index, profile in enumerate(self._profiles):
            if profile.entity_id in self._id_to_index:
                raise ValueError(
                    f"duplicate entity_id {profile.entity_id!r} in collection {name!r}"
                )
            self._id_to_index[profile.entity_id] = index

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._profiles)

    def __iter__(self) -> Iterator[EntityProfile]:
        return iter(self._profiles)

    def __getitem__(self, index: int) -> EntityProfile:
        return self._profiles[index]

    def __contains__(self, entity_id: object) -> bool:
        return entity_id in self._id_to_index

    # -- lookups -------------------------------------------------------------
    def index_of(self, entity_id: str) -> int:
        """Return the dense index of ``entity_id``.

        Raises
        ------
        KeyError
            If the identifier is unknown.
        """
        return self._id_to_index[entity_id]

    def ids(self) -> List[str]:
        """Return all entity identifiers in collection order."""
        return [profile.entity_id for profile in self._profiles]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "clean" if self.is_clean else "dirty"
        return f"EntityCollection(name={self.name!r}, size={len(self)}, {kind})"


def make_profile(entity_id: str, **attributes: str) -> EntityProfile:
    """Convenience constructor used heavily in tests and examples."""
    return EntityProfile(entity_id=entity_id, attributes=dict(attributes))


def collection_from_dicts(
    rows: Sequence[Mapping[str, str]],
    id_field: Optional[str] = None,
    name: str = "collection",
    is_clean: bool = True,
) -> EntityCollection:
    """Build an :class:`EntityCollection` from a sequence of dictionaries.

    Parameters
    ----------
    rows:
        One mapping per entity.  Keys become attribute names.
    id_field:
        Key holding the entity identifier.  When ``None``, sequential ids
        ``"0", "1", ...`` are assigned.
    name, is_clean:
        Forwarded to :class:`EntityCollection`.
    """
    profiles = []
    for position, row in enumerate(rows):
        if id_field is not None:
            if id_field not in row:
                raise KeyError(f"row {position} misses id field {id_field!r}")
            entity_id = str(row[id_field])
            attributes = {k: str(v) for k, v in row.items() if k != id_field and v is not None}
        else:
            entity_id = str(position)
            attributes = {k: str(v) for k, v in row.items() if v is not None}
        profiles.append(EntityProfile(entity_id=entity_id, attributes=attributes))
    return EntityCollection(profiles, name=name, is_clean=is_clean)


@dataclass(frozen=True)
class EntityIndexSpace:
    """Describes how entity indices of one or two collections map to node ids.

    In Clean-Clean ER the blocking graph contains nodes for both collections.
    We assign node ids ``0 .. |E1|-1`` to the first collection and
    ``|E1| .. |E1|+|E2|-1`` to the second one.  In Dirty ER there is a single
    collection and node ids coincide with entity indices.
    """

    size_first: int
    size_second: int = 0

    @property
    def total(self) -> int:
        """Total number of node ids."""
        return self.size_first + self.size_second

    @property
    def is_clean_clean(self) -> bool:
        """True when two collections are involved."""
        return self.size_second > 0

    def node_of_first(self, index: int) -> int:
        """Node id of the ``index``-th entity of the first collection."""
        if not 0 <= index < self.size_first:
            raise IndexError(f"index {index} out of range for first collection")
        return index

    def node_of_second(self, index: int) -> int:
        """Node id of the ``index``-th entity of the second collection."""
        if not self.is_clean_clean:
            raise ValueError("no second collection in a Dirty ER index space")
        if not 0 <= index < self.size_second:
            raise IndexError(f"index {index} out of range for second collection")
        return self.size_first + index

    def side_of(self, node: int) -> Tuple[int, int]:
        """Return ``(side, local_index)`` for a node id.

        ``side`` is 0 for the first collection and 1 for the second.
        """
        if not 0 <= node < self.total:
            raise IndexError(f"node {node} out of range")
        if node < self.size_first:
            return 0, node
        return 1, node - self.size_first
