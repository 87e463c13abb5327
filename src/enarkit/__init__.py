"""Network autoregression with embedded latent positions.

Simulate networked time series from latent-variable graph models, estimate
momentum/peer/latent/covariate effects by least squares on an
embedding-augmented design, and reproduce the consistency and prediction
experiments at desk scale.
"""

from .network import (
    DcsbmSpec,
    DcmmsbmSpec,
    Embedding,
    Graph,
    RdpgSpec,
    connection_matrix,
    normalized_laplacian,
    procrustes_align,
    read_edge_csv,
    sample_graph,
    select_k,
    spectral_embed,
    write_edge_csv,
)
from .process import (
    AmnarParams,
    CovariateSpec,
    EnarParams,
    Panel,
    StationaryMoments,
    autocov,
    check_stationarity,
    read_panel_csv,
    simulate_amnar,
    simulate_enar,
    stationary_moments,
    write_panel_csv,
)
from .estimate import (
    DesignSpec,
    Diagnostics,
    FitResult,
    build_design,
    confint,
    fit_amnar,
    fit_enar,
    fit_ls,
    fit_with_latents,
    predict_one_step,
    rmse_rel,
    rmsp,
)
from .lsm import (
    LsmFit,
    LsmState,
    fit_lsm,
    lsm_gradient,
    lsm_loglik,
    project_constraints,
    sample_lsm_graph,
)
from .bench import (
    Cell,
    ExperimentConfig,
    ReplicationResult,
    run_grid,
    run_replication,
    summarize,
)

__version__ = "0.1.0"
