"""The package's public names, pinned: adding or removing an export is a diff here.

``ptcache.__all__`` is every public name of the package namespace after
import except the submodules, so ``from ptcache import *`` binds no module.
"""

import inspect

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


def test_analytic_entries_take_t_not_r():
    """The analytic checks and closed forms take the paper's (K, t) or (q, t), never r = t/2,
    so that an odd t reaches the layer that rejects it; the odd-t obstruction's t = 2r+1 is
    odd by design."""
    taking_r = [
        f"{module.__name__}.{name}"
        for module in (ptcache.analysis, ptcache.verify)
        for name, fn in inspect.getmembers(module, inspect.isfunction)
        if not name.startswith("_") and fn.__module__ == module.__name__
        and "r" in inspect.signature(fn).parameters
    ]
    assert taking_r == ["ptcache.verify.verify_odd_t_obstruction"]
