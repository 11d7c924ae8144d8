// Golden-fingerprint suite for sharded history generation.
//
// generate_history shards the workload into config-sized slices that
// run as pool tasks, so the one thing that must NOT vary with
// XRPL_THREADS is the output. These tests prove it the strong way:
// the whole PaymentColumns store (rows AND interner tables, so
// first-seen id assignment is covered) is serialized and hashed, and
// the hash must be identical at widths 1, 2 and 8 — and equal to a
// pinned constant, so a silent re-roll of the distribution cannot
// slip through a same-width comparison.
//
// The pinned fingerprint changes ONLY when the generator's sampling
// intentionally changes; re-pin it in the same commit and record the
// re-roll in CHANGES.md.
#include <gtest/gtest.h>

#include <string>

#include "datagen/history.hpp"
#include "exec/thread_pool.hpp"
#include "ledger/payment_columns.hpp"

namespace xrpl::datagen {
namespace {

GeneratorConfig sharded_config() {
    GeneratorConfig config;
    config.seed = 20170605;
    config.num_users = 400;
    config.num_gateways = 12;
    config.num_market_makers = 20;
    config.num_merchants = 60;
    config.num_hubs = 6;
    config.target_payments = 6'000;
    config.payments_per_slice = 1'500;  // four slices
    return config;
}

/// The canonical store hash (ledger::columns_fingerprint) — rows AND
/// interner tables, so first-seen id assignment is covered.
std::string fingerprint(const ledger::PaymentColumns& columns) {
    return ledger::columns_fingerprint(columns);
}

// One generated history per pool width, shared across the tests below
// (generation dominates the suite's runtime).
class ShardedDeterminismTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        const GeneratorConfig config = sharded_config();
        {
            exec::ScopedParallelism width(1);
            serial_ = new GeneratedHistory(generate_history(config));
        }
        {
            exec::ScopedParallelism width(2);
            two_ = new GeneratedHistory(generate_history(config));
        }
        {
            exec::ScopedParallelism width(8);
            wide_ = new GeneratedHistory(generate_history(config));
        }
    }
    static void TearDownTestSuite() {
        delete serial_;
        delete two_;
        delete wide_;
        serial_ = two_ = wide_ = nullptr;
    }
    static GeneratedHistory* serial_;
    static GeneratedHistory* two_;
    static GeneratedHistory* wide_;
};

GeneratedHistory* ShardedDeterminismTest::serial_ = nullptr;
GeneratedHistory* ShardedDeterminismTest::two_ = nullptr;
GeneratedHistory* ShardedDeterminismTest::wide_ = nullptr;

TEST_F(ShardedDeterminismTest, PaymentBytesIdenticalAcrossThreadWidths) {
    const std::string one = fingerprint(serial_->payments);
    EXPECT_EQ(one, fingerprint(two_->payments));
    EXPECT_EQ(one, fingerprint(wide_->payments));
}

TEST_F(ShardedDeterminismTest, GoldenFingerprintIsPinned) {
    // Pinned against the width-1 run; the test above makes the width
    // irrelevant. Re-pin only on an intentional distribution change.
    EXPECT_EQ(fingerprint(serial_->payments),
              "4d926cb63c2c15263ab354e6cc54eeebf82f38d127f2ef0ecc69b58e10e5ee6c");
}

TEST_F(ShardedDeterminismTest, AggregatesIdenticalAcrossThreadWidths) {
    for (const GeneratedHistory* other : {two_, wide_}) {
        EXPECT_EQ(serial_->pages, other->pages);
        EXPECT_EQ(serial_->first_close.seconds, other->first_close.seconds);
        EXPECT_EQ(serial_->last_close.seconds, other->last_close.seconds);
        EXPECT_EQ(serial_->multi_hop_payments, other->multi_hop_payments);
        EXPECT_EQ(serial_->category_counts, other->category_counts);
        EXPECT_EQ(serial_->hop_histogram, other->hop_histogram);
        EXPECT_EQ(serial_->parallel_histogram, other->parallel_histogram);
        EXPECT_EQ(serial_->intermediary_counts, other->intermediary_counts);
        EXPECT_EQ(serial_->offer_placements, other->offer_placements);
        EXPECT_EQ(serial_->offers_placed_total, other->offers_placed_total);
    }
}

TEST_F(ShardedDeterminismTest, FinalLedgerIdenticalAcrossThreadWidths) {
    // The kept ledger is the LAST slice's clone; its balances must not
    // depend on which worker ran the slice. Spot-check through the
    // population's trust lines.
    for (const GeneratedHistory* other : {two_, wide_}) {
        for (std::size_t i = 0; i < serial_->population.users.size(); i += 37) {
            const auto& user = serial_->population.users[i];
            const auto serial_lines = serial_->ledger.lines_of(user);
            const auto other_lines = other->ledger.lines_of(user);
            ASSERT_EQ(serial_lines.size(), other_lines.size());
            for (std::size_t l = 0; l < serial_lines.size(); ++l) {
                EXPECT_EQ(serial_lines[l]->balance_for(user).to_double(),
                          other_lines[l]->balance_for(user).to_double());
            }
        }
    }
}

TEST(ShardedSlicingTest, SingleSliceConfigStillWidthIndependent) {
    GeneratorConfig config = sharded_config();
    config.target_payments = 2'000;
    config.payments_per_slice = 50'000;  // everything in slice 0
    std::string one;
    {
        exec::ScopedParallelism width(1);
        one = fingerprint(generate_history(config).payments);
    }
    exec::ScopedParallelism width(8);
    EXPECT_EQ(one, fingerprint(generate_history(config).payments));
}

}  // namespace
}  // namespace xrpl::datagen
