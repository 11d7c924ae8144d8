#include "core/anonymity.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/deanonymizer.hpp"
#include "core/ig_study.hpp"
#include "util/rng.hpp"

namespace xrpl::core {
namespace {

using ledger::AccountID;
using ledger::Currency;
using ledger::IouAmount;
using ledger::TxRecord;

TxRecord record(const std::string& sender, const std::string& destination,
                double amount, std::int64_t t) {
    TxRecord r;
    r.sender = AccountID::from_seed(sender);
    r.destination = AccountID::from_seed(destination);
    r.currency = Currency::from_code("USD");
    r.amount = IouAmount::from_double(amount);
    r.time = util::RippleTime{t};
    return r;
}

AnonymityProfile analyze(const std::vector<TxRecord>& records,
                         const ResolutionConfig& config) {
    return analyze_anonymity(ledger::PaymentColumns::from_records(records).view(),
                             config);
}

TEST(AnonymityTest, SingletonBucketsAreSetSizeOne) {
    const std::vector<TxRecord> records = {
        record("a", "x", 100.0, 1),
        record("b", "y", 200.0, 2),
    };
    const AnonymityProfile profile = analyze(records, full_resolution());
    EXPECT_EQ(profile.total_payments(), 2u);
    EXPECT_DOUBLE_EQ(profile.identifiable_within(1), 1.0);
    EXPECT_DOUBLE_EQ(profile.mean_set_size(), 1.0);
}

TEST(AnonymityTest, CollidingSendersGrowTheSet) {
    // Three senders share one fingerprint; one stands alone.
    const std::vector<TxRecord> records = {
        record("a", "shop", 100.0, 1),
        record("b", "shop", 100.0, 1),
        record("c", "shop", 100.0, 1),
        record("d", "other", 555.0, 9),
    };
    const AnonymityProfile profile = analyze(records, full_resolution());
    EXPECT_EQ(profile.total_payments(), 4u);
    EXPECT_DOUBLE_EQ(profile.identifiable_within(1), 0.25);
    EXPECT_DOUBLE_EQ(profile.identifiable_within(3), 1.0);
    EXPECT_DOUBLE_EQ(profile.mean_set_size(), (3.0 * 3 + 1.0) / 4.0);
    EXPECT_EQ(profile.set_size_quantile(0.9), 3u);
}

TEST(AnonymityTest, RepeatSameSenderStaysSetSizeOne) {
    const std::vector<TxRecord> records = {
        record("a", "shop", 100.0, 1),
        record("a", "shop", 100.0, 1),
    };
    const AnonymityProfile profile = analyze(records, full_resolution());
    EXPECT_DOUBLE_EQ(profile.identifiable_within(1), 1.0);
}

TEST(AnonymityTest, IdentifiableWithinOneEqualsInformationGain) {
    std::vector<TxRecord> records;
    util::Rng rng(9);
    for (int i = 0; i < 3'000; ++i) {
        records.push_back(record("s" + std::to_string(rng.uniform_u64(0, 80)),
                                 "d" + std::to_string(rng.uniform_u64(0, 10)),
                                 100.0 * static_cast<double>(rng.uniform_u64(1, 5)),
                                 static_cast<std::int64_t>(rng.uniform_u64(0, 500))));
    }
    const ledger::PaymentColumns payments =
        ledger::PaymentColumns::from_records(records);
    const Deanonymizer deanonymizer(payments);
    for (const ResolutionConfig& config : fig3_configurations()) {
        const AnonymityProfile profile = analyze_anonymity(payments.view(), config);
        const IgResult ig = deanonymizer.information_gain(config);
        EXPECT_NEAR(profile.identifiable_within(1), ig.information_gain(), 1e-12)
            << config.label();
    }
}

TEST(AnonymityTest, CoarseningGrowsAnonymitySets) {
    std::vector<TxRecord> records;
    util::Rng rng(10);
    for (int i = 0; i < 5'000; ++i) {
        records.push_back(record("s" + std::to_string(rng.uniform_u64(0, 300)),
                                 "d" + std::to_string(rng.uniform_u64(0, 20)),
                                 rng.lognormal(3.0, 2.0),
                                 static_cast<std::int64_t>(rng.uniform_u64(0, 50'000))));
    }
    const AnonymityProfile fine = analyze(records, full_resolution());
    ResolutionConfig coarse;
    coarse.amount = AmountResolution::kLow;
    coarse.time = util::TimeResolution::kDays;
    const AnonymityProfile blurred = analyze(records, coarse);
    EXPECT_GE(blurred.mean_set_size(), fine.mean_set_size());
    EXPECT_LE(blurred.identifiable_within(1), fine.identifiable_within(1));
    EXPECT_LE(blurred.identifiable_within(5), fine.identifiable_within(5) + 1e-12);
}

TEST(AnonymityTest, QuantileCoversAtLeastTheFraction) {
    // Histogram {1: 1, 2: 2}. Set size 1 covers only a third of the
    // payments, so the median needs set size 2.
    const std::vector<TxRecord> records = {
        record("a", "solo", 1.0, 1),
        record("b", "shop", 100.0, 5),
        record("c", "shop", 100.0, 5),
    };
    const AnonymityProfile profile = analyze(records, full_resolution());
    ASSERT_EQ(profile.histogram(),
              (std::map<std::uint32_t, std::uint64_t>{{1, 1}, {2, 2}}));
    EXPECT_EQ(profile.set_size_quantile(0.5), 2u);
    EXPECT_EQ(profile.set_size_quantile(1.0 / 3.0), 1u);
    EXPECT_EQ(profile.set_size_quantile(1.0), 2u);
}

TEST(AnonymityTest, EmptyHistoryIsSafe) {
    const AnonymityProfile profile = analyze({}, full_resolution());
    EXPECT_EQ(profile.total_payments(), 0u);
    EXPECT_DOUBLE_EQ(profile.identifiable_within(1), 0.0);
    EXPECT_DOUBLE_EQ(profile.mean_set_size(), 0.0);
    EXPECT_EQ(profile.set_size_quantile(0.5), 0u);
}

}  // namespace
}  // namespace xrpl::core
