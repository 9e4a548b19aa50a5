"""Spectral-gap and bottleneck analysis of quantum-enhanced MCMC on the
marked-state Gibbs sampling problem."""

from .model import (
    GibbsMeasure,
    MarkedStateHamiltonian,
    gibbs_measure,
)
from .proposal import (
    DenseKernel,
    KernelCertificate,
    PermutationInvariantKernel,
    ProposalKernel,
    StructuredMarkedKernel,
    affine_combination,
    single_flip_kernel,
    uniform_kernel,
    validate_kernel,
)
from .quantum import (
    GroverClosedForm,
    MixerSpec,
    apply_hamiltonian,
    dense_hamiltonian,
    evolve,
    evolve_dense,
    grover_closed_form,
    quantum_kernel,
    quantum_kernel_dense,
    quantum_proposal_column,
    resonance_field,
    structured_grover_kernel,
    transverse_marked_column,
)
from .chain import (
    ChainState,
    TransitionMatrix,
    build_transition_matrix,
    exact_mixing_time,
    make_chain,
    sample_chain,
    total_variation,
)
from .spectral import (
    AveragingScheme,
    averaged_grover_gap,
    check_block_route,
    grover_gap_closed_form,
    mixing_time_bounds,
    scaling_fit,
    spectral_gap_blocks,
    spectral_gap_dense,
    time_averaged_kernel,
    uniform_gap_closed_form,
)
from .bottleneck import (
    bottleneck_bound,
    flow,
    marked_state_bound,
    sum_qa_certificate,
)
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
