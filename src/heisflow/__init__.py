"""Horizontal geometry of surfaces in the first Heisenberg group.

Group operations and the contact structure live in :mod:`heisflow.heis`;
parametrized patches and their 2-jets in :mod:`heisflow.patch`; horizontal
normals and the induced contact form in :mod:`heisflow.horizontal`; mean
curvature in :mod:`heisflow.curvature`; flow-leaf integration in
:mod:`heisflow.flow`; surface constructors and the file format in
:mod:`heisflow.builders`; locus extraction in :mod:`heisflow.locus`; and
the self-verification suites in :mod:`heisflow.verify`.
"""

from .builders import (
    CATALOG,
    H_MINIMAL_CATALOG,
    AngleField,
    CurveSpec,
    RuledSpec,
    Term,
    TermSum,
    build_cylinder,
    build_graph_separable,
    build_plane_flow_patch,
    build_straight_ruled,
    build_tangent_developable,
    catalog_get,
    load_surface_file,
    plane_contact_factor,
    resolve_surface,
    ruling_form_coeff,
    ruling_form_coefficients,
    random_ruled_spec,
)
from .curvature import (
    MINIMALITY_BAND,
    HMinimalityReport,
    is_h_minimal,
)
from .errors import (
    BasePointMismatch,
    CharacteristicPoint,
    ConstantRulingDirection,
    DegenerateRuling,
    HeisflowError,
    NotHorizontal,
    NotRegular,
    NotRegularProfile,
    NotUnitSpeed,
    OutOfDomain,
    SpecError,
    StraightLine,
    TooFewSamples,
    UnknownName,
    ZeroInRange,
    ZeroSpeed,
)
from .flow import (
    FlowTrace,
    horizontality_residual,
    integrate_flow,
    integrate_flows,
)
from .heis import (
    FrameVector,
    HorizontalVec,
    Point3,
    contact_eval,
    euclidean_to_frame,
    frame_t,
    frame_to_euclidean,
    frame_x,
    frame_y,
    group_inv,
    group_mul,
    h_wedge,
    kc_distance,
    koranyi_gauge,
)
from .horizontal import (
    EPS_CHAR,
    char_threshold,
    horizontal_normal_batch,
    induced_form_batch,
    normal_compatibility,
)
from .locus import LocusPoint, characteristic_locus
from .patch import (
    EPS_REG,
    Domain,
    SurfaceHandle,
    eval_jets,
    make_surface,
    reparametrize_affine,
)
from .rng import Lcg64
from .verify import DEFAULT_SEED, CheckResult, SUITES, run_suite

__version__ = "0.1.0"
