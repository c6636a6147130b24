"""Numerical laboratory for quaternionic contact geometry.

Builds the compatible metric and quaternion triple of a coframe-defined
structure, assembles the Biquard connection and its torsion invariants,
computes curvature data, and evaluates the contact-metric structure of the
twistor sphere bundle, including the normality verdict: the twistor contact
structure is normal exactly when the symmetric torsion tensor vanishes.
"""

from .algebra import (FourPartSplit, QuaternionTriple, endo_inner,
                      four_part_decompose, project_P, project_sp1,
                      project_torsion_space, standard_triple, v_cross)
from .catalog import (builtin_charts, conformal, get_chart, heisenberg,
                      load_config, save_config)
from .chart import (FrameJet, PointFrame, QCChart, frame_field, lie_bracket,
                    recover_structure, reeb_solve)
from .connection import (ConnectionAtPoint, TorsionTensors,
                         connection_at_point, horizontal_partial,
                         torsion_reconstruction_check, torsion_split, torsion_tensors,
                         vertical_on_H, xi_derivatives)
from .curvature import (CurvatureAtPoint, FrozenPivotStage,
                        alpha_identity_check, curvature_at_point,
                        curvature_endo, ricci_decomposition_residual)
from .exprlang import evaluate, grad, parse
from .tolerances import DEFAULT_STEPS, DEFAULT_TOLERANCES, Steps, Tolerances
from .twistor import (TwistorPoint, TwistorReport, TwistorTangent,
                      base_point_data, cr_nijenhuis_residual, d_eta_Z,
                      d_eta_Z_fd_oracle, eta_Z, fibonacci_sphere,
                      gauge_rotate, g_signature, lie_chi_G, metric_G,
                      normality_direct_oracle, phi, report_from_base,
                      rotation_from_x, twistor_context)

__version__ = "0.1.0"
