"""Exact arithmetic over Q(2^(1/4)) with Galois embeddings, regular
representations, ping-pong freeness certificates and discreteness-margin
experiments for a fixed pair of SL2 generators."""

from .ring import (
    QuadRat,
    QuarticElem,
    EmbeddedComplex,
    Sign,
    Signedness,
    galois,
    signedness,
    field_quantity_N,
    gamma,
    delta,
    gamma1,
    gamma2,
    delta1,
    delta2,
    coeff_norm,
    in_S,
)
from .linalg import (
    MatClass,
    RingMat2,
    EmbeddedMat2,
    RegularRep,
    classify,
    regular_rep,
    eigen2,
    share_eigenvector,
)
from .projective import (
    ProjPoint,
    PingPongCertificate,
    dominant_eigenvalue,
    hyperbolic_like,
    proj_dist,
    pingpong_exponent,
    verify_certificate,
    noncommuting_check,
    free_pair_power,
)
from .construction import (
    paper_generators,
    check_conditions,
    conjugation_record,
    chebyshev,
    pell_divergence,
    inequality_probe,
)
from .probe import (
    ReducedWord,
    enumerate_words,
    evaluate_word,
    discreteness_margin,
    freeness_certificate,
    torsion_probe,
    dual_smallness_scan,
)
from .limits import (
    LimitCandidate,
    LimitTargets,
    default_targets,
    check_limit_conditions,
    search_limit_candidates,
    margin_uniformity_probe,
)

__version__ = "0.1.0"
