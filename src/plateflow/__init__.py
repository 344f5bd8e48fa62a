"""Bilayer plate bending by constrained discrete gradient flows.

Large isometric bending deformations of bilayer plates: the reduced bending
energy is discretized with Kirchhoff triangles carrying nodal values and
gradients, minimized by a semi-implicit gradient flow with a nodal
linearization of the isometry constraint, and obstacles enter through a
convex-concave penalty.
"""

from .constraints import apply_dirichlet, tangent_basis
from .dkt import DeformationField, flat_embedding
from .energy import (SimulationParams, assemble_bending_stiffness, curvature_terms,
                     penalty_terms)
from .flow import GradientFlow, RunReport, step_size_safeguard
from .linsolve import TangentSystem
from .mesh import (TriangleMesh, build_edge_data, generate_oshape_mesh,
                   generate_rectangle_mesh, save_mesh, tag_dirichlet_boundary)
from .presets import PRESETS, RunConfig, resolve

__version__ = "0.1.0"

__all__ = [
    "DeformationField", "GradientFlow", "PRESETS", "RunConfig",
    "RunReport", "SimulationParams", "TangentSystem", "TriangleMesh",
    "apply_dirichlet", "assemble_bending_stiffness", "build_edge_data",
    "curvature_terms", "flat_embedding", "generate_oshape_mesh",
    "generate_rectangle_mesh", "penalty_terms", "resolve",
    "save_mesh", "step_size_safeguard", "tag_dirichlet_boundary", "tangent_basis",
]
