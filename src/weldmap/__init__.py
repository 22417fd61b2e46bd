"""Global conformal / quasi-conformal parameterization of multiply-connected
open triangle meshes onto the unit disk with circular holes."""

from .assemble import (
    GlobalParameterization,
    ParamReport,
    area_distortion,
    laplace_dirichlet,
    mobius_area_correct,
    qc_correction,
)
from .errors import WeldmapError
from .flatten import dncp_flatten, lsqc_flatten
from .koebe import circularize_hole, circularize_outer
from .mesh import TriangleMesh, build_mesh, load_mesh, save_obj_with_uv
from .partition import (
    PartitionLabeling,
    Submesh,
    WeldPlan,
    WeldSpec,
    build_weld_specs,
    default_partition,
    extract_submeshes,
    load_labels,
)
from .pipeline import PipelineResult, compute_parameterization
from .welding import multiconnected_weld, partial_weld

__version__ = "0.1.0"

__all__ = [
    "GlobalParameterization",
    "ParamReport",
    "PartitionLabeling",
    "PipelineResult",
    "Submesh",
    "TriangleMesh",
    "WeldPlan",
    "WeldSpec",
    "WeldmapError",
    "area_distortion",
    "build_mesh",
    "build_weld_specs",
    "circularize_hole",
    "circularize_outer",
    "compute_parameterization",
    "default_partition",
    "dncp_flatten",
    "extract_submeshes",
    "laplace_dirichlet",
    "load_labels",
    "load_mesh",
    "lsqc_flatten",
    "mobius_area_correct",
    "multiconnected_weld",
    "partial_weld",
    "qc_correction",
    "save_obj_with_uv",
]
