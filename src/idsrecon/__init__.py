"""Coded trace reconstruction over insertion-deletion-substitution channels."""

from .alphabet import BINARY, DNA, Alphabet
from .bcjr import PosteriorTable, compute_posteriors
from .bmala import bmala_map, bmala_reconstruct
from .channel import (IDSParams, estimate_params, expected_trace_length,
                      transmit, transmit_batch)
from .codes import (FSMEncoder, cc_encoder, identity_encoder, mr_encoder,
                    parse_encoder_spec, scramble, unscramble)
from .errors import ConfigError, DatasetError, IdsReconError, InfeasibleTrellisError
from .evaluation import (ALGORITHMS, Cluster, EvalReport, air_random_k,
                         bcjr_once_rate, hamming_rate, load_dataset,
                         run_algorithm, scrambled_eval, simulate_clusters,
                         split_dataset, sweep_betas, symbolwise_cross_entropy,
                         write_dataset)
from .trellis import Trellis, build_trellis
from .trellis_bma import (BetaParams, combine_beliefs, default_betas,
                          init_single_trace_trellises, run_trellis_bma,
                          update_forward)

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "BINARY", "DNA",
    "IDSParams", "transmit", "transmit_batch", "estimate_params",
    "expected_trace_length",
    "FSMEncoder", "identity_encoder", "mr_encoder", "cc_encoder",
    "parse_encoder_spec", "scramble", "unscramble",
    "Trellis", "build_trellis",
    "PosteriorTable", "compute_posteriors",
    "BetaParams", "run_trellis_bma", "default_betas",
    "init_single_trace_trellises", "combine_beliefs", "update_forward",
    "bmala_reconstruct", "bmala_map",
    "ALGORITHMS", "Cluster", "EvalReport", "hamming_rate",
    "symbolwise_cross_entropy", "bcjr_once_rate", "air_random_k",
    "load_dataset", "split_dataset", "scrambled_eval", "sweep_betas",
    "run_algorithm", "simulate_clusters", "write_dataset",
    "IdsReconError", "ConfigError", "DatasetError", "InfeasibleTrellisError",
]
