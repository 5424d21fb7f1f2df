"""Higher-dimensional automata as pointed precubical sets.

The library models concurrent systems whose n-dimensional transitions stand
for n events running independently, and decides history-preserving
bisimilarity for finite models through its one-step characterization,
decided by partition refinement and cross-validated by a run-based check on
unfoldings.
"""

__version__ = "0.1.0"

from .core import (HDA, CapExceeded, EventSet, Labeling, ModelError,
                   PrecubicalMorphism, PrecubicalSet, ValidationReport,
                   Violation, check_morphism, product, reachable, torus,
                   torus_cube_id, torus_hda, validate_labeling, validate_model,
                   validate_precubical)
from .model_io import (LoadedModel, dump_model, load_model, model_from_dict,
                       model_to_dict)
from .paths import (DEFAULT_CAP, AdjacencyInfo, CubePath, adjacency,
                    are_homotopic, canonical_rep, enumerate_pointed_paths,
                    fan_shape, fan_shape_trace, fan_t_bound, homotopy_class,
                    is_adjacent, is_cube_path, is_fan_shaped, path_object,
                    t_measure)
from .unfold import (DepthExceeded, UnfoldNode, Unfolding, is_acyclic,
                     is_tree, lift_path, longest_pointed_path_length,
                     morphism_is_isomorphism, node_id_of, torus_unfolding,
                     unfold)
from .bisim import (BisimDecision, OpenMapResult, bisimilar, hp_bisimilar,
                    hp_oracle, labeled_bisimilar, open_map_check,
                    verify_bisim_relation)

__all__ = [name for name in dir() if not name.startswith("_")]
