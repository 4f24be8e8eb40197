"""Space-time block code laboratory.

Full-diversity code constructions with partial interference cancellation
(PIC) and PIC-SIC group decoding: linear-dispersion designs, certified
lattice rotations, executable rank-criterion checkers and a reproducible
Monte Carlo link simulator.
"""

from .lindesign import (
    Design, GroupingScheme, RealSymbolVector, assemble_codeword, combine_subset,
    equivalent_channel, extract_design, grouping_permutation, unvec_complex,
    vec_complex,
)
from .rotations import RotationMatrix, build_rotation, certify_rotation
from .constructions import (
    CodeSpec, Family, build_alamouti_block_code, build_code, build_diagonal_code,
    normalize_power, tabulate_tradeoff,
)
from .diversity import (
    RankWitness, certify_alamouti_block, certify_diagonal, falsify_pic,
    falsify_picsic, numerical_rank,
)
from .channel import LinkInstance, PamAlphabet, demap, modulate, pam_for_qam, \
    sample_link, transmit
from .decoders import (
    DecodeProblem, DecodeResult, complement_projector, decode, group_joint_decode,
    ml_decode, pic_decode, picsic_decode, zf_decode,
)
from .simharness import (
    SimConfig, SimResult, estimate_diversity_order, read_results, render_tradeoff,
    run_simulation, write_ber_curves, write_results,
)

__version__ = "0.1.0"
