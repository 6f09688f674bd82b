"""The package's public names, pinned: adding or removing an export is a diff here.

``ptcache.__all__`` is every public name of the package namespace after
import except the submodules, so ``from ptcache import *`` binds no module.
"""

import ptcache

PUBLIC = [
    "CodedMessage", "CountVectors", "DerivedScheme", "FsVectors", "PacketSizing",
    "PacketStore", "RatioRecord", "SchemeSpec", "SystemParams", "TransmitterSelection",
    "TypeLayout", "UserGrouping", "VerificationReport",
    "asymptotic_ratio", "build_caches", "compare", "count_vectors", "decode", "derive",
    "derive_types", "f_jcm", "f_pt", "file_bytes", "fs_and_repeats", "generate_delivery",
    "hypergeo_weights", "integer_packet_sizes", "local_fs", "memory_terms", "preset", "ratio",
    "selections", "solve_packet_ratio", "split_files", "subsets_by_type", "sweep",
    "total_transmitted_units", "verify_claims", "verify_end_to_end",
    "verify_lemma1", "verify_lemma3", "verify_odd_t_obstruction", "verify_remark3",
]


def test_public_names_are_pinned():
    assert sorted(ptcache.__all__) == PUBLIC
