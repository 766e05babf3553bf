"""Tensor-train toolkit for dominant singular triplets of huge structured
matrices, with block-TT sweep solvers and an experiment harness."""

from .counting import MacCounter, count_macs
from .dense import SvdFactors, dense_qr, truncated_svd
from .environments import (
    Environment,
    dense_local_matrix,
    env_init,
    env_update_left,
    env_update_right,
    environment_deviation,
    local_operator_macs,
    local_solve_macs,
    projected_matvec,
    projected_rmatvec,
)
from .generators import (
    full_toeplitz_tt,
    hankel_submatrix_tt,
    hankel_tt,
    hilbert_submatrix_tt,
    prescribed_svd_matrix,
    random_block_tt,
    random_vector_tt,
    shift_tt,
    toeplitz_tt,
    tridiagonal_tt,
)
from .serialization import load_tt, save_tt
from .solver import (
    LocalSolverError,
    SolverConfig,
    SweepReport,
    als_eig_baseline,
    als_svd,
    mals_eig_baseline,
    mals_svd,
    residual,
)
from .tt import (
    BlockTT,
    MatrixTT,
    VectorTT,
    block_tt_gram,
    block_tt_matvec,
    block_tt_residual_norm,
    block_tt_scale_columns,
    canonicalize,
    diag_embed,
    gram_r_factors,
    gram_tt_round,
    matrix_tt_matmul,
    matrix_tt_round,
    matrix_tt_transpose,
    merge_cores,
    split_block_core,
    tt_add,
    tt_norm,
    tt_reconstruct,
    tt_round,
    tt_scale,
    tt_svd_compress,
    tt_to_vector,
)

__version__ = "0.1.0"
