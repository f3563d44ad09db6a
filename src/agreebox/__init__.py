"""Agreement and disagreement analysis for bipartite no-signaling boxes.

The package answers, with exact rational arithmetic, whether a box lets
two observers hold common certainty of different probability assignments
about perfectly correlated events, whether the disagreement is singular
(certainty 1 against certainty 0), whether the box is local, and whether
any of the implemented obstructions rule out a quantum realization.
"""

__version__ = "0.1.0"

from .boxes import (
    Box,
    RelabelFrame,
    ValidationResult,
    all_frames,
    box_doc,
    box_from_json,
    box_from_rows,
    box_to_json,
    conditional,
    correlators,
    is_perfectly_correlated,
    make_box,
    relabel,
    validate,
)
from .bridge import (
    MAX_STATES,
    BellCertificate,
    LocalityVerdict,
    bell_local_bound,
    bell_value,
    box_to_model,
    correlator_functional,
    is_local,
    model_to_box,
)
from .classical import (
    AgreementCheckReport,
    EventPair,
    OntologicalModel,
    TowerResult,
    common_certainty_at,
    make_model,
    model_from_json,
    model_to_json,
    perfectly_correlated,
    tower,
    verify_agreement_theorem,
)
from .classify import (
    ClassificationVerdict,
    Conclusion,
    TableForm,
    classify,
    hardy_pattern,
    match_ccd_form,
    match_sd_form,
    tsirelson_obstruction,
    verdict_to_json,
)
from .epistemic import (
    CertaintyHierarchy,
    DisagreementReport,
    detect_ccd,
    hierarchy,
    report_to_json,
)
from .errors import (
    AgreeboxError,
    BudgetError,
    ParseError,
    PreconditionError,
    ReductionRefused,
    ShapeError,
    StructuralError,
)
from .families import (
    ccd_table_box,
    caption_violations,
    deterministic_strategies,
    mix_strategies,
    pr_box,
    sd_table_box,
    strategy_box,
    uniform_box,
)
from .rationals import rat, rat_dec, rat_str
from .reduction import (
    ReductionPlan,
    plan_doc,
    reduce_box,
    split_output,
)
