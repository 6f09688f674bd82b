"""Heterogeneous packet-type D2D coded caching.

Construction engine, bit-exact simulator, and verification toolkit for
device-to-device coded caching schemes with type-dependent packet sizes.
"""

import types

from .combinatorics import hypergeo_weights, subsets_by_type
from .scheme import (
    CountVectors,
    DerivedScheme,
    FsVectors,
    PacketSizing,
    SchemeSpec,
    SystemParams,
    TransmitterSelection,
    TypeLayout,
    UserGrouping,
    count_vectors,
    derive,
    derive_types,
    fs_and_repeats,
    integer_packet_sizes,
    local_fs,
    memory_terms,
    preset,
    selections,
    solve_packet_ratio,
)
from .exchange import (
    CodedMessage,
    PacketStore,
    build_caches,
    decode,
    file_bytes,
    generate_delivery,
    split_files,
    total_transmitted_units,
)
from .analysis import RatioRecord, asymptotic_ratio, f_jcm, f_pt, ratio, sweep
from .baseline import compare
from .verify import (
    VerificationReport,
    verify_claims,
    verify_end_to_end,
    verify_lemma1,
    verify_lemma3,
    verify_odd_t_obstruction,
    verify_remark3,
)

__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], types.ModuleType)]
__version__ = "0.1.0"
