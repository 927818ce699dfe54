"""Stopping rules for deciding whether a Grover-marked set has size M or K.

Core pieces: an exact 2D subspace model of the Grover rotation, the
constructive odd-l stopping rule with numeric certification, exhaustive
torus-orbit searches, instance transforms (database padding, the l
bound), the command-line front end (whose ``table --reduced`` keeps one
triple per proportional family), and a brute-force statevector lab used as
ground truth.
"""

from .core_model import (
    FailurePair,
    GroverAngles,
    ProblemInstance,
    angles_of,
    error_bound,
    failure_kernel,
    failure_probabilities,
    half_angle,
    make_instance,
)
from .diophantine import (
    SearchReport,
    default_horizon,
    minimal_odd_l,
    orbit_coords,
    target_distance,
)
from .statevector import (
    Discrimination,
    DiscriminationOutcome,
    RNG_ALGORITHM,
    init_uniform,
    run_discrimination,
    simulate,
)
from .stopping_rule import (
    Applicability,
    CertificateReport,
    DegenerateM,
    StoppingRule,
    certify,
    check_applicability,
    construct_rule,
    nearest_odd,
)
from .transforms import (
    PaddedInstance,
    PremiseViolated,
    pad_for_ratio,
)

__version__ = "0.1.0"
