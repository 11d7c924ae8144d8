// The IG kernel at scale, against an O(n log n) brute force.
//
// DeanonOracleTest certifies the IG definition on histories of at most
// 300 rows: one chunk, never a partition boundary. Here the kernel
// (count_identified) and the entry points built on it run over tens of
// thousands of rows that span several 8192-row chunks and reach every
// fingerprint partition. Each count is compared with a brute force
// that uses no hashing beyond the fingerprint itself: sort the
// (fingerprint, owner) pairs, and a fingerprint identifies its owner
// exactly when the first and last owners of its run agree. Every
// result must also be identical at pool widths 1, 2 and 8.
#include "core/ig_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/clustering.hpp"
#include "core/deanonymizer.hpp"
#include "core/fingerprint.hpp"
#include "core/ig_study.hpp"
#include "core/mitigation.hpp"
#include "exec/chunked_view.hpp"
#include "exec/thread_pool.hpp"
#include "ledger/payment_columns.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "util/rng.hpp"

namespace xrpl::core {
namespace {

using ledger::AccountID;
using ledger::PaymentColumns;

constexpr std::size_t kChunk = exec::kDefaultChunkRows;

IgResult brute_force(std::span<const std::uint64_t> fingerprints,
                     std::span<const std::uint32_t> owners) {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> rows;
    rows.reserve(fingerprints.size());
    for (std::size_t i = 0; i < fingerprints.size(); ++i) {
        rows.emplace_back(fingerprints[i], owners[i]);
    }
    std::sort(rows.begin(), rows.end());
    IgResult result;
    result.total_payments = rows.size();
    for (std::size_t first = 0; first < rows.size();) {
        std::size_t last = first + 1;
        while (last < rows.size() && rows[last].first == rows[first].first) ++last;
        if (rows[first].second == rows[last - 1].second) {
            result.uniquely_identified += last - first;
        }
        first = last;
    }
    return result;
}

/// Brute-force anonymity-set histogram: sort the (fingerprint, owner)
/// pairs, deduplicate, and count each fingerprint's distinct owners.
std::vector<std::uint64_t> brute_force_set_sizes(
    std::span<const std::uint64_t> fingerprints,
    std::span<const std::uint32_t> owners) {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> rows;
    for (std::size_t i = 0; i < fingerprints.size(); ++i) {
        rows.emplace_back(fingerprints[i], owners[i]);
    }
    std::sort(rows.begin(), rows.end());
    std::vector<std::uint64_t> histogram;
    for (std::size_t first = 0; first < rows.size();) {
        std::size_t last = first + 1;
        while (last < rows.size() && rows[last].first == rows[first].first) ++last;
        std::vector<std::uint32_t> distinct;
        for (std::size_t i = first; i < last; ++i) distinct.push_back(rows[i].second);
        distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
        if (histogram.size() <= distinct.size()) {
            histogram.resize(distinct.size() + 1, 0);
        }
        histogram[distinct.size()] += last - first;
        first = last;
    }
    return histogram;
}

void expect_same(const IgResult& actual, const IgResult& expected,
                 const std::string& what) {
    EXPECT_EQ(actual.total_payments, expected.total_payments) << what;
    EXPECT_EQ(actual.uniquely_identified, expected.uniquely_identified) << what;
}

/// `count()` at pool widths 1, 2 and 8, each checked against `expected`.
void expect_at_every_width(const std::function<IgResult()>& count,
                           const IgResult& expected, const std::string& what) {
    for (const std::size_t width : {1u, 2u, 8u}) {
        const exec::ScopedParallelism pool(width);
        expect_same(count(), expected, what + " width=" + std::to_string(width));
    }
}

void expect_kernel_matches(const std::vector<std::uint64_t>& fingerprints,
                           const std::vector<std::uint32_t>& owners,
                           const std::string& what) {
    const IgResult expected = brute_force(fingerprints, owners);
    expect_at_every_width([&] { return count_identified(fingerprints, owners); },
                          expected, what);
}

/// Fingerprints drawn from a pool of `distinct` random keys; each key
/// has a home owner that sends most of its rows, so single- and
/// multi-owner runs both abound.
struct Columns {
    std::vector<std::uint64_t> fingerprints;
    std::vector<std::uint32_t> owners;
};
Columns random_columns(std::size_t n, std::size_t distinct, std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<std::uint64_t> keys(distinct);
    for (std::uint64_t& key : keys) key = rng.next();
    Columns columns;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t key = rng.uniform_u64(0, distinct - 1);
        columns.fingerprints.push_back(keys[key]);
        const std::uint64_t owner =
            rng.bernoulli(0.97) ? key % 4096 : rng.uniform_u64(0, 4095);
        columns.owners.push_back(static_cast<std::uint32_t>(owner));
    }
    return columns;
}

TEST(IgKernelTest, ManyChunksMatchBruteForce) {
    std::uint64_t seed = 1;
    for (const std::size_t n : {20'000u, 33'333u, 50'000u}) {
        for (const std::size_t distinct : {n / 8, n / 2, n}) {
            const Columns c = random_columns(n, distinct, seed++);
            std::vector<bool> reached(kIgPartitions, false);
            for (const std::uint64_t fp : c.fingerprints) {
                reached[fp >> (64 - kIgPartitionBits)] = true;
            }
            ASSERT_EQ(std::count(reached.begin(), reached.end(), true),
                      static_cast<std::ptrdiff_t>(kIgPartitions))
                << "the data must reach every partition, the last one too";
            expect_kernel_matches(c.fingerprints, c.owners,
                                  "n=" + std::to_string(n) +
                                      " distinct=" + std::to_string(distinct));
        }
    }
}

TEST(IgKernelTest, CollisionsAcrossChunksMatchBruteForce) {
    // Row i carries key i % kChunk, so every fingerprint recurs once in
    // each chunk. Every fifth key changes owner in chunk 2 only.
    const std::size_t n = 3 * kChunk + 100;
    std::vector<std::uint64_t> fingerprints(n);
    std::vector<std::uint32_t> owners(n);
    std::uint64_t expected_unique = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t key = i % kChunk;
        fingerprints[i] = util::Rng(key + 7).next();
        const bool switches = key % 5 == 0 && i / kChunk == 2;
        owners[i] = static_cast<std::uint32_t>(key % 11) + (switches ? 100 : 0);
        if (key % 5 != 0) ++expected_unique;
    }
    IgResult expected;
    expected.total_payments = n;
    expected.uniquely_identified = expected_unique;
    expect_same(brute_force(fingerprints, owners), expected, "brute force");
    expect_kernel_matches(fingerprints, owners, "cross-chunk collisions");
}

TEST(IgKernelTest, SecondOwnerOnlyInTheLastChunk) {
    // Ten fingerprints, one owner everywhere, except that keys 0..4
    // show a second owner in the ragged last chunk alone.
    const std::size_t n = 4 * kChunk + 37;
    std::vector<std::uint64_t> fingerprints(n);
    std::vector<std::uint32_t> owners(n, 1);
    std::uint64_t rows_of_late_keys = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t key = i % 10;
        fingerprints[i] = util::Rng(1000 + key).next();
        if (key < 5) ++rows_of_late_keys;
    }
    expect_kernel_matches(fingerprints, owners, "one owner");
    EXPECT_EQ(count_identified(fingerprints, owners).uniquely_identified, n);

    for (std::size_t i = 4 * kChunk; i < n; ++i) {
        if (i % 10 < 5) owners[i] = 2;
    }
    expect_kernel_matches(fingerprints, owners, "late second owner");
    EXPECT_EQ(count_identified(fingerprints, owners).uniquely_identified,
              n - rows_of_late_keys);
}

TEST(IgKernelTest, AnonymitySetHistogramMatchesBruteForce) {
    std::uint64_t seed = 70;
    for (const std::size_t n : {20'000u, 50'000u}) {
        for (const std::size_t distinct : {n / 64, n / 8, n}) {
            const Columns c = random_columns(n, distinct, seed++);
            const std::vector<std::uint64_t> expected =
                brute_force_set_sizes(c.fingerprints, c.owners);
            ASSERT_GT(expected.size(), 2u) << "runs must reach several owners";
            EXPECT_EQ(expected[1], brute_force(c.fingerprints, c.owners)
                                       .uniquely_identified);
            for (const std::size_t width : {1u, 2u, 8u}) {
                const exec::ScopedParallelism pool(width);
                EXPECT_EQ(rows_by_set_size(c.fingerprints, c.owners), expected)
                    << "n=" << n << " distinct=" << distinct
                    << " width=" << width;
            }
        }
    }
    EXPECT_TRUE(rows_by_set_size({}, {}).empty());
}

/// A history of `n` rows whose features collide often: few
/// destinations, currencies and amounts, timestamps within a day.
PaymentColumns colliding_columns(std::size_t n, std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<AccountID> senders;
    std::vector<AccountID> destinations;
    for (int i = 0; i < 300; ++i) {
        senders.push_back(AccountID::from_seed("s" + std::to_string(i)));
        if (i < 8) {
            destinations.push_back(AccountID::from_seed("d" + std::to_string(i)));
        }
    }
    const char* const currencies[] = {"USD", "BTC", "EUR"};
    const double amounts[] = {1.0, 5.0, 5.2, 20.0, 99.5, 1'000.0};
    PaymentColumns columns;
    columns.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        ledger::TxRecord r;
        r.sender = senders[rng.uniform_u64(0, senders.size() - 1)];
        r.destination = destinations[rng.uniform_u64(0, destinations.size() - 1)];
        r.currency = ledger::Currency::from_code(currencies[rng.uniform_u64(0, 2)]);
        r.amount = ledger::IouAmount::from_double(amounts[rng.uniform_u64(0, 5)]);
        r.time = util::RippleTime{
            static_cast<std::int64_t>(rng.uniform_u64(0, 86'400))};
        columns.push_back(r);
    }
    return columns;
}

std::span<const std::uint32_t> senders_of(const ledger::PaymentView& view) {
    return std::span(view.columns().sender_id).subspan(view.offset(), view.size());
}

TEST(IgKernelTest, EntryPointsMatchBruteForceAtScale) {
    const PaymentColumns columns = colliding_columns(25'000, 11);
    const ledger::PaymentView view = columns.view();
    const Deanonymizer deanonymizer(columns);
    const AccountClusters no_links;
    WalletRotationConfig rotation;
    rotation.wallets_per_sender = 3;
    const RotatedColumns rotated = apply_wallet_rotation(
        columns, rotation, [](const AccountID&) { return std::size_t{1}; });

    const std::vector<ResolutionConfig> configs = fig3_configurations();
    std::vector<IgResult> expected;
    for (const ResolutionConfig& config : configs) {
        expected.push_back(
            brute_force(fingerprint_column(view, config), senders_of(view)));
        expect_at_every_width(
            [&] { return deanonymizer.information_gain(config); }, expected.back(),
            "information_gain " + config.label());
        expect_at_every_width(
            [&] { return clustered_information_gain(view, config, no_links); },
            expected.back(), "clustered " + config.label());
        expect_at_every_width(
            [&] { return linked_information_gain(rotated, config); },
            brute_force(fingerprint_column(rotated.payments.view(), config),
                        rotated.owner_id),
            "linked " + config.label());
    }
    for (const std::size_t width : {1u, 2u, 8u}) {
        const exec::ScopedParallelism pool(width);
        const std::vector<IgStudyRow> rows = run_ig_study(view);
        ASSERT_EQ(rows.size(), expected.size());
        for (std::size_t i = 0; i < rows.size(); ++i) {
            expect_same(rows[i].result, expected[i],
                        "study " + configs[i].label() +
                            " width=" + std::to_string(width));
        }
    }
}

TEST(IgKernelTest, WindowWithOffsetMatchesBruteForce) {
    const PaymentColumns columns = colliding_columns(30'000, 12);
    const ledger::PaymentView window = columns.view().subview(5'003, 20'000);
    const Deanonymizer deanonymizer(window);
    const std::vector<ResolutionConfig> configs = fig3_configurations();
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const IgResult expected =
            brute_force(fingerprint_column(window, configs[i]), senders_of(window));
        EXPECT_EQ(expected.total_payments, window.size());
        expect_at_every_width(
            [&] { return deanonymizer.information_gain(configs[i]); }, expected,
            "window " + configs[i].label());
        expect_same(run_ig_study(window)[i].result, expected,
                    "window study " + configs[i].label());
    }
}

TEST(IgKernelTest, EmptyViewCountsNothing) {
    const PaymentColumns empty;
    const PaymentColumns some = colliding_columns(100, 13);
    for (const ledger::PaymentView view :
         {empty.view(), some.view().subview(40, 0)}) {
        const Deanonymizer deanonymizer(view);
        expect_at_every_width(
            [&] { return deanonymizer.information_gain(full_resolution()); },
            IgResult{}, "empty view");
        for (const IgStudyRow& row : run_ig_study(view)) {
            expect_same(row.result, IgResult{}, "empty study " + row.config.label());
        }
    }
    expect_same(count_identified({}, {}), IgResult{}, "empty columns");
}

TEST(IgKernelTest, ScratchStaysWithinTwentyFourBytesPerRow) {
    // The IG transient above the history is the caller's 8 B
    // fingerprint column plus the kernel's scratch.
    obs::set_enabled(true);
    obs::reset_all();
    std::uint64_t seed = 50;
    for (const std::size_t n : {20'000u, 50'000u, 200'000u}) {
        const Columns c = random_columns(n, n / 2, seed++);
        (void)count_identified(c.fingerprints, c.owners);
        const auto scratch = obs::gauge("core.ig.scratch_bytes").value();
        EXPECT_GE(scratch, static_cast<std::int64_t>(12 * n));
        EXPECT_LE(scratch + static_cast<std::int64_t>(8 * n),
                  static_cast<std::int64_t>(24 * n))
            << "n=" << n;
    }
    obs::reset_all();
    obs::set_enabled(false);
}

}  // namespace
}  // namespace xrpl::core
