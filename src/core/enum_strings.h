// The one place config-facing enums meet their spellings.
//
// Granularity, PowerPolicy, IndexingKind and InclusionPolicy each used to
// declare their own to_string / *_from_string pair next to the enum, with
// the definitions scattered across three translation units — so a CLI, the
// sweep grid and the checkpoint codec could each accept a slightly
// different vocabulary without anyone noticing.  Every parser and printer
// now lives here; the enum definitions stay with their subsystems (this
// header includes them), and tests/enum_strings_test.cc pins the exhaustive
// round-trip for every enumerator and every accepted alias.
//
// Contract, for all four pairs:
//   - to_string returns a stable lowercase spelling that *_from_string
//     accepts (round-trip identity).
//   - *_from_string throws ConfigError on anything else, naming the full
//     accepted vocabulary in the message.
//   - Aliases ("drowsy_hybrid", "non-inclusive") parse but never print.
#pragma once

#include <string>

#include "core/hierarchy.h"
#include "core/managed_cache.h"
#include "indexing/index_rotation.h"

namespace pcal {

const char* to_string(Granularity granularity);

/// Parses "monolithic" | "bank" | "line" | "way"; throws ConfigError
/// otherwise.
Granularity granularity_from_string(const std::string& s);

const char* to_string(PowerPolicy policy);

/// Parses "gated" | "drowsy" | "drowsy_hybrid" (the enum's own spelling
/// round-trips alongside the short form); throws ConfigError otherwise.
PowerPolicy power_policy_from_string(const std::string& s);

const char* to_string(IndexingKind kind);

/// Parses "static" | "probing" | "scrambling" (the to_string names);
/// throws ConfigError otherwise.  Lets config files and CLI front-ends
/// select policies by name instead of magic integers.
IndexingKind indexing_kind_from_string(const std::string& s);

const char* to_string(InclusionPolicy policy);

/// Parses "noninclusive" | "non-inclusive" | "inclusive" | "exclusive" |
/// "victim"; throws ConfigError otherwise.
InclusionPolicy inclusion_policy_from_string(const std::string& s);

}  // namespace pcal
