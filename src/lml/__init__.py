"""Local models of Cayley graphs: verification, reconstruction, witnesses.

The package checks whether a finite graph looks locally like the Cayley
graph of a group (verify_model), finds the radius at which ball
automorphisms rigidify (fixing_radius), recovers Schreier-graph structure
from rigid models (reconstruct), generates such graphs from coset tables
(todd_coxeter, schreier_from_table), and assembles the evidence that a
Baumslag-Solitar witness element rules finite models out past its radius
(witness_report).
"""

from .balls import (
    DEFAULT_MAX_VERTICES,
    FiniteGraph,
    NotReachableError,
    RootedBall,
    cayley_ball,
    distance,
    finite_ball_with_order,
    is_connected,
    parse_graph,
    render_graph,
    render_rooted_ball,
    sphere_sizes,
)
from .cosets import (
    CosetTable,
    IndexExceedsBound,
    SchreierGraph,
    SchreierRealization,
    WitnessReport,
    bs_quotients,
    coset_genset,
    default_witness,
    enumerate_homs,
    schreier_from_table,
    todd_coxeter,
    witness_report,
)
from .fixtures import cycle_graph, fixture_klein, torus_grid
from .iso import (
    RootedIso,
    automorphism_scan,
    canonical_key,
    first_rooted_isomorphism,
    rooted_isomorphisms,
)
from .localmodel import (
    FixingRadiusReport,
    ModelVerdict,
    fixing_radius,
    verify_model,
)
from .reconstruct import (
    AmbiguousLabeling,
    BaseLettersMissingError,
    EdgeLabeling,
    LabelInconsistency,
    NotAModelError,
    NotRegularError,
    ReconstructionResult,
    RelatorViolation,
    build_action,
    check_factors,
    label_edges,
    present_on_S,
    reconstruct,
    stabilizer,
)
from .words import (
    BaumslagSolitarEngine,
    BrittonForm,
    FinitePermutationEngine,
    FreeAbelianEngine,
    FreeEngine,
    GenSet,
    GenSetError,
    GroupEngine,
    LmlError,
    ParseError,
    Presentation,
    PresentationFile,
    ResourceLimitError,
    S10_TEXTS,
    Word,
    bs_presentation,
    bs_s10_setup,
    britton_normal_form,
    concat,
    free_reduce,
    invert,
    parse_presentation,
    parse_word,
    validate_genset,
    word,
)
