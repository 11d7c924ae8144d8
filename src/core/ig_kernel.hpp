// The information-gain count shared by every IG entry point
// (Deanonymizer::information_gain, run_ig_study, clustered and linked
// IG), and the anonymity-set histogram built on the same passes. A
// payment is uniquely identified when every payment sharing its
// fingerprint has its owner. That count is a sum over fingerprints, so
// the kernel groups rows by sorting rather than hashing: it counts rows
// per (8192-row chunk, partition of the top fingerprint bits), scatters
// 12-byte (fingerprint, owner) pairs into one flat array, then sorts
// each partition and adds up the single-owner runs (the histogram
// sorts by (fingerprint, owner) and counts each run's distinct owners
// instead). Each pass writes
// only its own slots and the partition count is fixed, so the counts
// are identical at every thread count with no ordered merge (DESIGN.md
// §11). Scratch, reported as gauge core.ig.scratch_bytes, is 12 B per
// row plus the partition counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/deanonymizer.hpp"

namespace xrpl::core {

/// Partitions the kernel splits the fingerprints into, by their top
/// bits. Fixed: it depends on neither the input nor the pool width.
inline constexpr std::size_t kIgPartitionBits = 8;
inline constexpr std::size_t kIgPartitions = 1 << kIgPartitionBits;

/// IG counts of rows whose fingerprints and owners are given as
/// parallel columns (same length, row order).
[[nodiscard]] IgResult count_identified(std::span<const std::uint64_t> fingerprints,
                                        std::span<const std::uint32_t> owners);

/// Anonymity-set histogram of the same columns: entry k is the number
/// of rows whose fingerprint is shared by exactly k distinct owners
/// (entry 0 is always 0; empty input gives an empty vector). Entry 1
/// equals count_identified's uniquely_identified.
[[nodiscard]] std::vector<std::uint64_t> rows_by_set_size(
    std::span<const std::uint64_t> fingerprints,
    std::span<const std::uint32_t> owners);

}  // namespace xrpl::core
