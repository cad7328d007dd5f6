"""Channel-robust multiple-description quantization with decoder side information.

Design multiple-description scalar codecs by deterministic annealing against
noisy packet-loss channels, decode with (quantized, estimated, or soft) side
information, select SI sources, evaluate the two-description rate-distortion
bound, and run the Monte-Carlo experiment harness.
"""

from .channel import DescriptionChannel, derive_rng
from .codec import (
    CodecBundle,
    DecoderTables,
    DistortionBreakdown,
    IndexAssignment,
    build_decoder_tables,
    design_annealed,
    evaluate_distortion,
    gibbs_update,
    harden,
    ia_entropy,
)
from .decode_sym import CrossSourceTables, build_cross_tables
from .gaussian import RHO_LADDER, JointGaussianPair, quantize_rho
from .persist import CodecFormatError, load_codec, save_codec
from .quantizer import ScalarQuantizer, lloyd_design
from .rd_bound import BoundQuery, BoundResult, beta, central_bound, min_avg_distortion
from .si_select import pairwise_mi, select_min_distance
from .simulator import (
    AsymConfig,
    ExperimentResult,
    SymConfig,
    WsnScenario,
    conditional_entropy_rates,
    generate_scenario,
    run_asym_experiment,
    run_sym_experiment,
)

__version__ = "0.1.0"
