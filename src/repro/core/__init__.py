"""The paper's framework: distributed languages, decision, construction,
relaxations, order invariance, and the derandomization machinery.

Map from the paper's Sections to modules:

=========================================  =====================================
Paper concept                              Module
=========================================  =====================================
Input-output configurations, languages     :mod:`repro.core.languages`
(Section 2.2.1)
Locally checkable labellings (LCL),        :mod:`repro.core.lcl`
forbidden balls ``Bad(L)`` (Section 4)
Decision tasks, LD and BPLD deciders,      :mod:`repro.core.decision`
the amos decider (Sections 2.2.2, 2.3)
Construction tasks, Monte-Carlo            :mod:`repro.core.construction`
constructors (Section 2.2.1)
f-resilient and ε-slack relaxations        :mod:`repro.core.relaxations`
(Sections 1.1, 4)
Order-invariant cycle algorithms           :mod:`repro.core.order_invariant`
(Claim 1, Section 4)
Claims 2–5, Eq. (3), the gluing and the    :mod:`repro.core.derandomization`
error amplification (Section 3)
The amos separation LD ⊊ BPLD              :mod:`repro.core.classes`
(Section 2.3.1)
=========================================  =====================================
"""

from repro.core.languages import (
    Configuration,
    DistributedLanguage,
    Amos,
    Majority,
    SELECTED,
)
from repro.core.lcl import (
    LCLLanguage,
    ProperColoring,
    MaximalIndependentSet,
    MaximalMatching,
    MinimalDominatingSet,
    NotAllEqualLLL,
)
from repro.core.decision import (
    Decider,
    DeterministicDecider,
    RandomizedDecider,
    LocalCheckerDecider,
    AmosDecider,
    ResilientDecider,
    DecisionOutcome,
    estimate_guarantee,
    GuaranteeEstimate,
)
from repro.core.construction import (
    Constructor,
    BallConstructor,
    MessagePassingConstructor,
    estimate_success_probability,
)
from repro.core.relaxations import (
    FResilientLanguage,
    EpsSlackLanguage,
    f_resilient,
    eps_slack,
)
from repro.core.order_invariant import (
    enumerate_cycle_ball_types,
    enumerate_order_invariant_cycle_algorithms,
    count_order_invariant_cycle_algorithms,
    monochromatic_core,
)
from repro.core.derandomization import (
    DerandomizationParameters,
    nu_disconnected,
    nu_connected,
    mu_from_guarantee,
    diameter_requirement,
    find_hard_instances,
    amplification_disjoint_union,
    amplification_glued,
    far_acceptance_probability,
    AmplificationReport,
)
from repro.core.classes import amos_separation_report

__all__ = [
    "Configuration",
    "DistributedLanguage",
    "Amos",
    "Majority",
    "SELECTED",
    "LCLLanguage",
    "ProperColoring",
    "MaximalIndependentSet",
    "MaximalMatching",
    "MinimalDominatingSet",
    "NotAllEqualLLL",
    "Decider",
    "DeterministicDecider",
    "RandomizedDecider",
    "LocalCheckerDecider",
    "AmosDecider",
    "ResilientDecider",
    "DecisionOutcome",
    "estimate_guarantee",
    "GuaranteeEstimate",
    "Constructor",
    "BallConstructor",
    "MessagePassingConstructor",
    "estimate_success_probability",
    "FResilientLanguage",
    "EpsSlackLanguage",
    "f_resilient",
    "eps_slack",
    "enumerate_cycle_ball_types",
    "enumerate_order_invariant_cycle_algorithms",
    "count_order_invariant_cycle_algorithms",
    "monochromatic_core",
    "DerandomizationParameters",
    "nu_disconnected",
    "nu_connected",
    "mu_from_guarantee",
    "diameter_requirement",
    "find_hard_instances",
    "amplification_disjoint_union",
    "amplification_glued",
    "far_acceptance_probability",
    "AmplificationReport",
    "amos_separation_report",
]
