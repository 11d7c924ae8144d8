#include "core/ig_kernel.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "exec/chunked_view.hpp"
#include "exec/parallel.hpp"
#include "obs/metrics.hpp"
#include "util/contract.hpp"

namespace xrpl::core {

namespace {

/// One scattered row. The fingerprint is split into two words so a
/// pair packs into 12 bytes.
struct Pair {
    std::uint32_t fp_high;
    std::uint32_t fp_low;
    std::uint32_t owner;

    [[nodiscard]] std::uint64_t fingerprint() const noexcept {
        return (std::uint64_t{fp_high} << 32) | fp_low;
    }
};
static_assert(sizeof(Pair) == 12, "a scattered pair must pack into 12 bytes");

constexpr std::size_t partition_of(std::uint64_t fingerprint) noexcept {
    return static_cast<std::size_t>(fingerprint >> (64 - kIgPartitionBits));
}

/// Counts rows per (chunk, partition), scatters the (fingerprint,
/// owner) pairs so each partition is one contiguous range, then calls
/// `visit(p, first, last)` once per partition on the pool. Each pass
/// writes only its own slots and the partition count is fixed, so every
/// partition holds the same rows in the same order at every thread
/// count. Returns the scratch bytes it held.
template <typename Visit>
std::size_t visit_partitions(std::span<const std::uint64_t> fingerprints,
                             std::span<const std::uint32_t> owners,
                             const Visit& visit) {
    const std::size_t n = fingerprints.size();
    const std::size_t grain = exec::kDefaultChunkRows;
    const std::size_t chunks = exec::chunk_count_for(n, grain);
    exec::ThreadPool& pool = exec::ThreadPool::shared();

    // 1. Rows per (chunk, partition), chunk-major.
    std::vector<std::size_t> cursor(chunks * kIgPartitions, 0);
    pool.run(chunks, [&](std::size_t c) {
        const std::size_t end = std::min(n, (c + 1) * grain);
        for (std::size_t i = c * grain; i < end; ++i) {
            ++cursor[c * kIgPartitions + partition_of(fingerprints[i])];
        }
    });

    // Exclusive scan in partition-major order: chunk c's rows of
    // partition p go after every row of partitions 0..p-1 and after
    // partition p's rows from chunks 0..c-1.
    std::vector<std::size_t> partition_begin(kIgPartitions + 1);
    std::size_t offset = 0;
    for (std::size_t p = 0; p < kIgPartitions; ++p) {
        partition_begin[p] = offset;
        for (std::size_t c = 0; c < chunks; ++c) {
            const std::size_t rows = cursor[c * kIgPartitions + p];
            cursor[c * kIgPartitions + p] = offset;
            offset += rows;
        }
    }
    partition_begin[kIgPartitions] = offset;

    // 2. Scatter: each chunk advances only its own cursors, so every
    // pair slot is written by exactly one task.
    const auto pairs = std::make_unique_for_overwrite<Pair[]>(n);
    pool.run(chunks, [&](std::size_t c) {
        const std::size_t end = std::min(n, (c + 1) * grain);
        std::size_t* const next = cursor.data() + c * kIgPartitions;
        for (std::size_t i = c * grain; i < end; ++i) {
            const std::uint64_t fp = fingerprints[i];
            pairs[next[partition_of(fp)]++] =
                Pair{static_cast<std::uint32_t>(fp >> 32),
                     static_cast<std::uint32_t>(fp), owners[i]};
        }
    });

    // 3. Each partition on its own task.
    pool.run(kIgPartitions, [&](std::size_t p) {
        visit(p, pairs.get() + partition_begin[p],
              pairs.get() + partition_begin[p + 1]);
    });

    static obs::Counter& chunk_count = obs::counter("core.ig.chunks");
    static obs::Counter& rows = obs::counter("core.ig.rows");
    chunk_count.add(chunks);
    rows.add(n);
    return n * sizeof(Pair) +
           (cursor.size() + partition_begin.size()) * sizeof(std::size_t);
}

/// Counts of one sorted partition.
struct Tally {
    std::uint64_t identified = 0;  // rows of single-owner runs
    std::uint64_t buckets = 0;     // distinct fingerprints
};

}  // namespace

IgResult count_identified(std::span<const std::uint64_t> fingerprints,
                          std::span<const std::uint32_t> owners) {
    XRPL_ASSERT(fingerprints.size() == owners.size(),
                "every row needs both a fingerprint and an owner");
    IgResult result;
    result.total_payments = fingerprints.size();
    if (fingerprints.empty()) return result;

    // Sort each partition by fingerprint and count its runs. Owners
    // within a run stay unsorted: a run is single-owner only when
    // every owner in it equals the first.
    std::vector<Tally> tallies(kIgPartitions);
    const std::size_t scratch_bytes = visit_partitions(
        fingerprints, owners, [&](std::size_t p, Pair* first, Pair* last) {
            std::sort(first, last, [](const Pair& a, const Pair& b) {
                return a.fingerprint() < b.fingerprint();
            });
            Tally tally;
            for (Pair* run = first; run != last;) {
                const std::uint64_t fp = run->fingerprint();
                bool single_owner = true;
                Pair* end = run + 1;
                for (; end != last && end->fingerprint() == fp; ++end) {
                    single_owner = single_owner && end->owner == run->owner;
                }
                ++tally.buckets;
                if (single_owner) {
                    tally.identified += static_cast<std::uint64_t>(end - run);
                }
                run = end;
            }
            tallies[p] = tally;
        });

    std::uint64_t buckets = 0;
    for (const Tally& tally : tallies) {
        result.uniquely_identified += tally.identified;
        buckets += tally.buckets;
    }

    static obs::Gauge& scratch = obs::gauge("core.ig.scratch_bytes");
    scratch.set(static_cast<std::int64_t>(scratch_bytes +
                                          tallies.size() * sizeof(Tally)));

    // IG is a probability (Fig 3 plots it in [0, 1]): the uniquely
    // identified payments are a subset of all payments, and there are
    // at most as many fingerprint buckets as payments.
    XRPL_INVARIANT(result.uniquely_identified <= result.total_payments,
                   "IG numerator must be a subset of the payment count");
    XRPL_INVARIANT(buckets <= result.total_payments,
                   "fingerprint buckets cannot outnumber payments");
    return result;
}

std::vector<std::uint64_t> rows_by_set_size(
    std::span<const std::uint64_t> fingerprints,
    std::span<const std::uint32_t> owners) {
    XRPL_ASSERT(fingerprints.size() == owners.size(),
                "every row needs both a fingerprint and an owner");
    if (fingerprints.empty()) return {};

    // Sort each partition by (fingerprint, owner): a run's distinct
    // owners are then its owner changes plus one. Each partition fills
    // its own histogram; the fixed partitions sum elementwise.
    std::vector<std::vector<std::uint64_t>> partials(kIgPartitions);
    const std::size_t scratch_bytes = visit_partitions(
        fingerprints, owners, [&](std::size_t p, Pair* first, Pair* last) {
            std::sort(first, last, [](const Pair& a, const Pair& b) {
                const std::uint64_t fa = a.fingerprint();
                const std::uint64_t fb = b.fingerprint();
                return fa != fb ? fa < fb : a.owner < b.owner;
            });
            std::vector<std::uint64_t>& rows = partials[p];
            for (Pair* run = first; run != last;) {
                const std::uint64_t fp = run->fingerprint();
                std::size_t distinct = 1;
                Pair* end = run + 1;
                for (; end != last && end->fingerprint() == fp; ++end) {
                    distinct += end->owner != end[-1].owner ? 1 : 0;
                }
                if (rows.size() <= distinct) rows.resize(distinct + 1, 0);
                rows[distinct] += static_cast<std::uint64_t>(end - run);
                run = end;
            }
        });

    std::vector<std::uint64_t> histogram;
    std::size_t partial_bytes = 0;
    for (const std::vector<std::uint64_t>& rows : partials) {
        partial_bytes += rows.size() * sizeof(std::uint64_t);
        if (histogram.size() < rows.size()) histogram.resize(rows.size(), 0);
        for (std::size_t k = 0; k < rows.size(); ++k) histogram[k] += rows[k];
    }

    static obs::Gauge& scratch = obs::gauge("core.ig.scratch_bytes");
    scratch.set(static_cast<std::int64_t>(scratch_bytes + partial_bytes));
    return histogram;
}

}  // namespace xrpl::core
