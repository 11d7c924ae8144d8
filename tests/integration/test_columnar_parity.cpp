// Columnar pipeline parity on a generated history (interned
// accounts, repeated hubs, spam campaigns, several currencies):
//  * the batched fingerprint column equals the single-observation
//    fingerprint() that attack() hashes its input with, so a column
//    scan and an observation always meet in the same bucket;
//  * a history staged back through the row type (row(i) ->
//    from_records) attacks exactly like the generated columns;
//  * the chunk-parallel AttackIndex answers every observation exactly
//    like the Deanonymizer's serial column scan;
//  * a history served from the XCOL dataset cache analyzes exactly
//    like the freshly generated one.
// The analyses themselves are certified against brute force in
// tests/core/test_deanon_oracle.cpp and pinned on the golden history
// in test_ig_study.cpp / test_mitigation.cpp.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/deanonymizer.hpp"
#include "core/fingerprint.hpp"
#include "core/ig_study.hpp"
#include "datagen/dataset.hpp"
#include "datagen/history.hpp"
#include "ledger/payment_columns.hpp"
#include "snap/dataset_cache.hpp"
#include "util/file_io.hpp"

namespace xrpl {
namespace {

datagen::GeneratorConfig parity_config() {
    datagen::GeneratorConfig config;
    config.seed = 4242;
    config.num_users = 700;
    config.num_gateways = 20;
    config.num_market_makers = 30;
    config.num_merchants = 100;
    config.num_hubs = 10;
    config.target_payments = 20'000;
    return config;
}

class ColumnarParityTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        history_ = new datagen::GeneratedHistory(
            datagen::generate_history(parity_config()));
    }
    static void TearDownTestSuite() {
        delete history_;
        history_ = nullptr;
    }
    static datagen::GeneratedHistory* history_;
};

datagen::GeneratedHistory* ColumnarParityTest::history_ = nullptr;

TEST_F(ColumnarParityTest, FingerprintColumnMatchesRowFingerprints) {
    for (const core::ResolutionConfig& config : core::fig3_configurations()) {
        const std::vector<std::uint64_t> fingerprints =
            core::fingerprint_column(history_->payments.view(), config);
        ASSERT_EQ(fingerprints.size(), history_->payments.size());
        // Spot-check across the whole history (every row would be slow
        // times ten configurations).
        for (std::size_t i = 0; i < fingerprints.size(); i += 67) {
            EXPECT_EQ(fingerprints[i],
                      core::fingerprint(history_->payments.row(i), config))
                << "row " << i << " under " << config.label();
        }
    }
}

TEST_F(ColumnarParityTest, AttackAndHistoryIdentical) {
    // Rebuild the columns from their rows — the staging path datagen
    // and hand-built fixtures use — and attack both copies.
    std::vector<ledger::TxRecord> rows;
    rows.reserve(history_->payments.size());
    for (std::size_t i = 0; i < history_->payments.size(); ++i) {
        rows.push_back(history_->payments.row(i));
    }
    const ledger::PaymentColumns restaged = ledger::PaymentColumns::from_records(rows);
    const core::Deanonymizer generated(history_->payments);
    const core::Deanonymizer round_trip(restaged);
    const core::ResolutionConfig config = core::full_resolution();
    for (std::size_t i = 0; i < rows.size(); i += 997) {
        const ledger::TxRecord& observation = rows[i];
        EXPECT_EQ(generated.attack(observation, config),
                  round_trip.attack(observation, config));
        const std::vector<ledger::TxRecord> history =
            generated.history_of(observation.sender);
        EXPECT_EQ(history.size(), round_trip.history_of(observation.sender).size());
        std::size_t sent = 0;
        for (const ledger::TxRecord& row : rows) {
            if (row.sender == observation.sender) ++sent;
        }
        EXPECT_EQ(history.size(), sent) << "row " << i;
    }
}

TEST_F(ColumnarParityTest, AttackIndexIdentical) {
    // One bucket per distinct fingerprint, and every lookup answering
    // what the serial scan answers.
    const core::ResolutionConfig config = core::full_resolution();
    const core::Deanonymizer scan(history_->payments);
    const core::AttackIndex index(history_->payments, config);
    const std::vector<std::uint64_t> fingerprints =
        core::fingerprint_column(history_->payments.view(), config);
    const std::unordered_set<std::uint64_t> distinct(fingerprints.begin(),
                                                     fingerprints.end());
    EXPECT_EQ(index.bucket_count(), distinct.size());
    for (std::size_t i = 0; i < fingerprints.size(); i += 997) {
        const ledger::TxRecord observation = history_->payments.row(i);
        std::vector<std::uint32_t> matches;
        for (std::uint32_t j = 0; j < fingerprints.size(); ++j) {
            if (fingerprints[j] == fingerprints[i]) matches.push_back(j);
        }
        EXPECT_EQ(index.matches(observation), matches) << "row " << i;
        EXPECT_EQ(index.candidate_senders(observation),
                  scan.attack(observation, config))
            << "row " << i;
    }
}

TEST_F(ColumnarParityTest, CacheServedColumnsAnalyzeIdentically) {
    // The persistence path end to end: publish this history into a
    // dataset cache under its real content key, load it back, and run
    // the paper's headline analysis on both copies. A snapshot that
    // survives its CRCs but perturbed any column would diverge here.
    const std::string dir = "columnar_parity_cache.tmp";
    const snap::DatasetCache cache(dir);
    const std::string key = datagen::dataset_key(parity_config());
    ASSERT_TRUE(util::remove_file(cache.path_for(key)));
    ASSERT_TRUE(cache.store(key, history_->payments));

    const auto served = cache.try_load(key);
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(ledger::columns_fingerprint(*served),
              ledger::columns_fingerprint(history_->payments));

    const auto fresh_study = core::run_ig_study(history_->payments);
    const auto cached_study = core::run_ig_study(*served);
    ASSERT_EQ(fresh_study.size(), cached_study.size());
    for (std::size_t i = 0; i < fresh_study.size(); ++i) {
        EXPECT_EQ(fresh_study[i].result.uniquely_identified,
                  cached_study[i].result.uniquely_identified)
            << fresh_study[i].config.label();
    }
    util::remove_file(cache.path_for(key));
}

}  // namespace
}  // namespace xrpl
