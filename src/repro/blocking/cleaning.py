"""Block Purging and Block Filtering as one membership-level array kernel.

The paper refines *cleaned* blocks: Block Purging drops every block holding
more than half of the entities, Block Filtering keeps each entity in the
``ceil(0.8 k)`` smallest of its ``k`` blocks.  Both are functions of the
``(block, node)`` memberships alone, so one kernel serves both engines:

* batch preparation (:func:`repro.blocking.arrayops.purge_matrix` /
  :func:`~repro.blocking.arrayops.filter_matrix`) calls the two steps on its
  membership matrix, one stage each;
* the streamed answer (:meth:`repro.incremental.IndexStatistics.live_candidates`)
  runs the whole chain, :func:`clean_memberships`, on the live rows of the
  index (or of K merged shards) in the canonical batch numbering.

Filtering ranks blocks by ``(cardinality, member-set key)``, never by block
id: batch block ids are sorted-signature ranks, an index's are arrival order
and a merged view's are shard-major, so an id tie-break would make the
answer depend on who numbered the blocks.  The member-set key
(:func:`member_set_keys`) is the wrapping ``uint64`` sum of the
:func:`splitmix64` images of a block's canonical member ids: independent of
member order and of block numbering.  Two blocks still tied have equal
member sets — identical for every weighting scheme, so which of them an
entity keeps cannot change any answer — unless two different member sets
collide on 64 bits, which happens with probability about ``2^-64`` per pair
of equally large blocks.

:data:`NO_CLEANING` makes the chain the identity on the valid blocks, which
is the raw collection a streaming index maintains.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Optional

import numpy as np

from ..pairs import key_field_bits


class BlockCleaning(NamedTuple):
    """Which block cleaning a collection is read under (``None``: step off).

    A frozen model records the cleaning its features were computed under
    (:attr:`repro.ml.FrozenModel.cleaning`), and every exact answer scored by
    that model reads the live collection under it.
    """

    #: Block Purging's size limit as a fraction of the live entities
    purging_fraction: Optional[float] = None
    #: Block Filtering's retention ratio
    filtering_ratio: Optional[float] = None

    @property
    def is_identity(self) -> bool:
        """Whether both steps are off: the raw (valid) blocks are read."""
        return self.purging_fraction is None and self.filtering_ratio is None

    def prepare_arguments(self) -> Dict[str, Any]:
        """The :func:`repro.blocking.prepare_blocks` arguments of this cleaning."""
        arguments: Dict[str, Any] = {
            "apply_purging": self.purging_fraction is not None,
            "apply_filtering": self.filtering_ratio is not None,
        }
        if self.purging_fraction is not None:
            arguments["purging_fraction"] = self.purging_fraction
        if self.filtering_ratio is not None:
            arguments["filtering_ratio"] = self.filtering_ratio
        return arguments

    @classmethod
    def restore(cls, state: Optional[Dict[str, Any]]) -> "BlockCleaning":
        """The cleaning ``_asdict()`` exported; a state written before models
        recorded one (``None``) restores as :data:`NO_CLEANING`.

        Raises
        ------
        ValueError
            When the state does not hold exactly the two fields, each ``None``
            or a number in ``(0, 1]``.
        """
        if state is None:
            return NO_CLEANING
        if not isinstance(state, dict) or sorted(state) != sorted(cls._fields):
            raise ValueError(
                f"the snapshot stores a block cleaning {state!r}; expected the "
                f"fields {list(cls._fields)}"
            )
        values = []
        for name in cls._fields:
            value = state[name]
            if value is not None:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ValueError(f"the snapshot's block cleaning {name} is {value!r}")
                value = float(value)
                if not 0.0 < value <= 1.0:
                    raise ValueError(
                        f"the snapshot's block cleaning {name} is {value!r}, outside (0, 1]"
                    )
            values.append(value)
        return cls(*values)


#: the raw collection: no purging, no filtering
NO_CLEANING = BlockCleaning()
#: the paper's pipeline: ``prepare_blocks``' defaults
PAPER_CLEANING = BlockCleaning(purging_fraction=0.5, filtering_ratio=0.8)


def check_filtering_ratio(ratio: float) -> None:
    if not 0.0 < ratio <= 1.0:
        raise ValueError("ratio must be in (0, 1]")


def splitmix64(values: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser of every value, as ``uint64`` (wrapping)."""
    z = np.asarray(values).astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated index ranges ``[start, start + length)``."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum()))


def member_set_keys(
    nodes: np.ndarray, sizes: np.ndarray, blocks: Optional[np.ndarray] = None
) -> np.ndarray:
    """Per block, the wrapping ``uint64`` sum of ``splitmix64(node)`` over its
    members: memberships grouped by block in block-id order, ``nodes``
    canonical ids, ``sizes`` the (non-zero) member count of every block.
    ``blocks`` (default: all, in id order) are the block ids to key; only
    their members are hashed."""
    if blocks is not None:
        nodes = nodes[_ranges((np.cumsum(sizes) - sizes)[blocks], sizes[blocks])]
        sizes = sizes[blocks]
    if nodes.size == 0:
        return np.zeros(sizes.size, dtype=np.uint64)
    starts = np.zeros(sizes.size, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    return np.add.reduceat(splitmix64(nodes), starts)


def block_cardinalities(
    sizes: np.ndarray, first_sizes: np.ndarray, bilateral: bool
) -> np.ndarray:
    """``||b||`` per block, as :meth:`repro.datamodel.Block.cardinality` counts
    it: first x second, or — Dirty ER, and a two-sided block Block Filtering
    stranded with only first-side members — every two members."""
    if not bilateral:
        return sizes * (sizes - 1) // 2
    second = sizes - first_sizes
    return np.where(second > 0, first_sizes * second, first_sizes * (first_sizes - 1) // 2)


def purge_mask(sizes: np.ndarray, num_entities: int, fraction: float) -> np.ndarray:
    """Block Purging: the blocks of at most ``fraction x num_entities`` entities."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("max_entity_fraction must be in (0, 1]")
    return sizes <= fraction * num_entities


def _packed_bits(*extents: int):
    bits = key_field_bits(*extents)
    if bits is None:
        raise OverflowError(
            f"packed membership keys over {' x '.join(map(str, extents))} do not fit an int64"
        )
    return bits


def filter_mask(
    nodes: np.ndarray,
    block_of: np.ndarray,
    sizes: np.ndarray,
    cardinalities: np.ndarray,
    num_nodes: int,
    ratio: float,
) -> np.ndarray:
    """Block Filtering: the memberships every node keeps — its
    ``max(1, ceil(ratio x k))`` blocks smallest by ``(cardinality, key)``.

    Memberships come grouped by block in block-id order (``sizes`` members
    per block).  One stable sort ranks the blocks by cardinality; one sort of
    the packed ``(node, block rank)`` key orders the memberships per node.
    The member-set key decides only where a node's cut falls inside a run of
    its equally large blocks: those runs alone are re-ordered by key (equal
    keys, i.e. equal member sets, stay in block-id order) and only their
    blocks are hashed.  The keep decision is scattered back onto the
    memberships in their input order.
    """
    check_filtering_ratio(ratio)
    num_blocks = cardinalities.size
    block_rank = np.empty(num_blocks, dtype=np.int64)
    block_rank[np.argsort(cardinalities, kind="stable")] = np.arange(num_blocks, dtype=np.int64)
    rank_bits = _packed_bits(num_nodes, num_blocks)[1]
    order = np.argsort((nodes << rank_bits) | block_rank[block_of])
    sorted_nodes = nodes[order]
    counts = np.bincount(nodes, minlength=num_nodes)
    starts = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    keep_counts = np.maximum(1, np.ceil(ratio * counts)).astype(np.int64)
    # the nodes whose last kept and first dropped block are equally large
    cutting = np.flatnonzero(keep_counts < counts)
    cut = starts[cutting] + keep_counts[cutting]
    at_cut = cardinalities[block_of[order[cut]]]
    tied = cardinalities[block_of[order[cut - 1]]] == at_cut
    if tied.any():
        # their slots holding a block as large as the cut's: one run per node
        tied_nodes = cutting[tied]
        slots = _ranges(starts[tied_nodes], counts[tied_nodes])
        slots = slots[
            cardinalities[block_of[order[slots]]] == np.repeat(at_cut[tied], counts[tied_nodes])
        ]
        keys = member_set_keys(nodes, sizes, block_of[order[slots]])
        order[slots] = order[slots[np.lexsort((keys, sorted_nodes[slots]))]]
    rank = np.arange(sorted_nodes.size, dtype=np.int64) - starts[sorted_nodes]
    keep = np.empty(sorted_nodes.size, dtype=bool)
    keep[order] = rank < keep_counts[sorted_nodes]
    return keep


class CleanedBlocks(NamedTuple):
    """A cleaned collection as memberships grouped by block (first side ahead
    of second within a block), canonical node ids, blocks renumbered."""

    nodes: np.ndarray
    block_of: np.ndarray
    #: ``|b|``, first-side members and ``||b||`` per block
    sizes: np.ndarray
    first_sizes: np.ndarray
    cardinalities: np.ndarray

    @property
    def num_blocks(self) -> int:
        return int(self.sizes.size)


def _block_sizes(nodes, block_of, num_blocks, size_first):
    sizes = np.bincount(block_of, minlength=num_blocks)
    if size_first is None:
        return sizes, sizes
    return sizes, np.bincount(block_of[nodes < size_first], minlength=num_blocks)


def _select(nodes, block_of, keep_block, keep_membership=None):
    """The memberships of the kept blocks (and kept memberships), block ids
    renumbered in their relative order."""
    new_id = np.cumsum(keep_block) - 1
    keep = keep_block[block_of]
    if keep_membership is not None:
        keep &= keep_membership
    return nodes[keep], new_id[block_of[keep]], int(np.count_nonzero(keep_block))


def clean_memberships(
    nodes: np.ndarray,
    block_of: np.ndarray,
    num_blocks: int,
    num_entities: int,
    size_first: Optional[int],
    cleaning: BlockCleaning,
) -> CleanedBlocks:
    """The blocks batch preparation would refine, from raw memberships.

    ``nodes`` are canonical ids (first side below ``size_first``; ``None``
    for Dirty ER) sorted within each block, memberships grouped by block id
    (any numbering).  First the blocks batch never assembles go — a block of
    one entity, or a two-source block with one source empty — so that
    filtering's ``k`` counts what batch counts; then Block Purging (limit:
    ``fraction x num_entities``, the live entities) and Block Filtering with
    the :data:`~BlockCleaning` parameters, dropping the blocks filtering left
    without a comparison, exactly as :func:`repro.blocking.arrayops.filter_matrix`.

    Without cleaning the valid blocks keep their relative order (the
    identity).  Otherwise they are renumbered by ``(cardinality, member-set
    key)``, so every per-node and per-pair sum over them is added in an order
    no block numbering can change.
    """
    bilateral = size_first is not None
    sizes, first_sizes = _block_sizes(nodes, block_of, num_blocks, size_first)
    keep = (first_sizes >= 1) & (sizes > first_sizes) if bilateral else sizes >= 2
    if cleaning.purging_fraction is not None:
        keep &= purge_mask(sizes, num_entities, cleaning.purging_fraction)
    nodes, block_of, num_blocks = _select(nodes, block_of, keep)
    sizes, first_sizes = sizes[keep], first_sizes[keep]
    cardinalities = block_cardinalities(sizes, first_sizes, bilateral)
    if cleaning.is_identity:
        return CleanedBlocks(nodes, block_of, sizes, first_sizes, cardinalities)
    if cleaning.filtering_ratio is not None:
        kept = filter_mask(
            nodes, block_of, sizes, cardinalities, num_entities, cleaning.filtering_ratio
        )
        sizes, first_sizes = _block_sizes(nodes[kept], block_of[kept], num_blocks, size_first)
        cardinalities = block_cardinalities(sizes, first_sizes, bilateral)
        spawning = cardinalities > 0
        nodes, block_of, num_blocks = _select(nodes, block_of, spawning, kept)
        sizes, first_sizes = sizes[spawning], first_sizes[spawning]
        cardinalities = cardinalities[spawning]
    # id-independent block order: (cardinality, member-set key); blocks tied
    # on both hold the same members, so their relative order changes no sum
    rank = np.empty(num_blocks, dtype=np.int64)
    by_rank = np.lexsort((member_set_keys(nodes, sizes), cardinalities))
    rank[by_rank] = np.arange(num_blocks, dtype=np.int64)
    node_bits = _packed_bits(num_blocks, num_entities)[1]
    packed = np.sort((rank[block_of] << node_bits) | nodes)
    return CleanedBlocks(
        packed & ((1 << node_bits) - 1),
        packed >> node_bits,
        sizes[by_rank],
        first_sizes[by_rank],
        cardinalities[by_rank],
    )
