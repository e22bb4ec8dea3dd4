"""Graph-based synthetic reasoning datasets for relation prediction tasks.

Deterministic pipeline: grow a relational graph (kinship or spatial), sample
non-repeating reasoning chains, augment them, withhold the head-to-tail
relation as the label, verbalize to plain-language stories, render prompts,
and score model responses by exact relation match.
"""

from .augment import add_edge_noise, flip_edges, no_augment, permute
from .evalkit import ScoreReport, score, stats_table
from .kinship import KINSHIP_LABELS, KinshipEngine
from .promptkit import parse_response, render_prompt, render_target
from .relgraph import RelationalGraph, Triple, grow_graph
from .sampler import ReasoningChain, sample_chain
from .spatial import SPATIAL_LABELS, SpatialEngine
from .taskgen import (DatasetSpec, Example, build_dataset, corrupt,
                      read_jsonl, verify_dataset, write_jsonl)

__version__ = "0.1.0"

__all__ = [
    "DatasetSpec", "Example", "KINSHIP_LABELS",
    "KinshipEngine", "ReasoningChain", "RelationalGraph", "SPATIAL_LABELS",
    "ScoreReport", "SpatialEngine", "Triple",
    "add_edge_noise", "build_dataset", "corrupt", "flip_edges",
    "grow_graph", "no_augment", "parse_response",
    "permute", "read_jsonl", "render_prompt",
    "render_target", "sample_chain", "score", "stats_table",
    "verify_dataset", "write_jsonl",
]
