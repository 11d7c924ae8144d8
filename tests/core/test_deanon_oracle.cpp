// Brute-force de-anonymization oracle.
//
// The column scans (batched fingerprints, chunk-merged hash buckets,
// interned sender ids) are checked here against the DEFINITION of each
// metric, computed in O(n^2) with no hashing at all: two payments are
// indistinguishable to an attacker exactly when every feature the
// attacker observes compares equal after rounding/truncation, and a
// payment's anonymity set is the set of distinct senders (or cluster
// entities) among the payments indistinguishable from it.
//
// Histories are small (<= 300 rows), seeded, and built to collide on
// purpose: rows are copied with a different sender, amounts come from
// a short list that rounds together, and timestamps cluster inside a
// few hours, so every resolution configuration sees both unique and
// shared buckets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/anonymity.hpp"
#include "core/clustering.hpp"
#include "core/deanonymizer.hpp"
#include "core/ig_study.hpp"
#include "core/mitigation.hpp"
#include "core/resolution.hpp"
#include "ledger/payment_columns.hpp"
#include "util/rng.hpp"

namespace xrpl::core {
namespace {

using ledger::AccountID;
using ledger::Currency;
using ledger::IouAmount;
using ledger::PaymentColumns;
using ledger::TxRecord;

AccountID account(const char* prefix, std::uint64_t i) {
    return AccountID::from_seed(prefix + std::to_string(i));
}

/// A seeded history of `n` rows with deliberate feature collisions.
std::vector<TxRecord> colliding_history(std::size_t n, std::uint64_t seed) {
    util::Rng rng(seed);
    const char* const currencies[] = {"USD", "BTC", "XRP", "EUR"};
    const double amounts[] = {4.5, 5.0, 12.0, 40.0, 41.0, 999.0, 0.0042, 2.5e6};
    std::vector<TxRecord> rows;
    rows.reserve(n);
    while (rows.size() < n) {
        if (!rows.empty() && rng.bernoulli(0.3)) {
            // Same observable features, (usually) another sender.
            TxRecord copy = rows[rng.uniform_u64(0, rows.size() - 1)];
            copy.sender = account("s", rng.uniform_u64(0, 11));
            rows.push_back(copy);
            continue;
        }
        TxRecord r;
        r.sender = account("s", rng.uniform_u64(0, 11));
        r.destination = account("d", rng.uniform_u64(0, 4));
        r.currency = Currency::from_code(currencies[rng.uniform_u64(0, 3)]);
        r.amount = IouAmount::from_double(amounts[rng.uniform_u64(0, 7)] *
                                          (rng.bernoulli(0.5) ? 1.0 : 1.3));
        r.time = util::RippleTime{
            static_cast<std::int64_t>(rng.uniform_u64(0, 4 * 3'600))};
        rows.push_back(r);
    }
    return rows;
}

/// Fig 3's ten configurations plus one with every feature dropped.
std::vector<ResolutionConfig> oracle_configurations() {
    std::vector<ResolutionConfig> configs = fig3_configurations();
    configs.push_back({std::nullopt, std::nullopt, false, false});
    return configs;
}

/// The attacker cannot tell `a` from `b` at `config`.
bool indistinguishable(const TxRecord& a, const TxRecord& b,
                       const ResolutionConfig& config) {
    if (config.amount &&
        !(round_amount(a.amount, a.currency, *config.amount) ==
          round_amount(b.amount, b.currency, *config.amount))) {
        return false;
    }
    if (config.time && util::truncate(a.time, *config.time).seconds !=
                           util::truncate(b.time, *config.time).seconds) {
        return false;
    }
    if (config.use_currency && !(a.currency == b.currency)) return false;
    if (config.use_destination && !(a.destination == b.destination)) return false;
    return true;
}

using EntityOf = std::function<AccountID(const AccountID&)>;

AccountID identity(const AccountID& sender) { return sender; }

/// Per payment: how many distinct entities sent the payments the
/// attacker cannot tell apart from it. O(n^2) by definition.
std::vector<std::size_t> anonymity_set_sizes(const std::vector<TxRecord>& rows,
                                             const ResolutionConfig& config,
                                             const EntityOf& entity_of) {
    std::vector<std::size_t> sizes(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::vector<AccountID> entities;
        for (const TxRecord& other : rows) {
            if (!indistinguishable(rows[i], other, config)) continue;
            const AccountID entity = entity_of(other.sender);
            if (std::find(entities.begin(), entities.end(), entity) ==
                entities.end()) {
                entities.push_back(entity);
            }
        }
        sizes[i] = entities.size();
    }
    return sizes;
}

std::uint64_t count_unique(const std::vector<std::size_t>& sizes) {
    return static_cast<std::uint64_t>(std::count(sizes.begin(), sizes.end(), 1u));
}

std::vector<TxRecord> rows_of(const PaymentColumns& columns) {
    std::vector<TxRecord> rows;
    rows.reserve(columns.size());
    for (const TxRecord& row : columns.view()) rows.push_back(row);
    return rows;
}

/// History sizes the oracle sweeps: the edge cases plus seeded ones.
constexpr std::size_t kSizes[] = {0, 1, 2, 17, 120, 300};

TEST(DeanonOracleTest, InformationGainMatchesBruteForce) {
    std::uint64_t seed = 1;
    for (const std::size_t n : kSizes) {
        const std::vector<TxRecord> rows = colliding_history(n, seed++);
        const PaymentColumns columns = PaymentColumns::from_records(rows);
        const Deanonymizer deanonymizer(columns);
        for (const ResolutionConfig& config : oracle_configurations()) {
            const IgResult ig = deanonymizer.information_gain(config);
            EXPECT_EQ(ig.total_payments, n) << config.label();
            EXPECT_EQ(ig.uniquely_identified,
                      count_unique(anonymity_set_sizes(rows, config, identity)))
                << "n=" << n << " " << config.label();
        }
    }
}

TEST(DeanonOracleTest, AnonymityHistogramMatchesBruteForce) {
    std::uint64_t seed = 100;
    for (const std::size_t n : kSizes) {
        const std::vector<TxRecord> rows = colliding_history(n, seed++);
        const PaymentColumns columns = PaymentColumns::from_records(rows);
        for (const ResolutionConfig& config : oracle_configurations()) {
            std::map<std::uint32_t, std::uint64_t> expected;
            for (const std::size_t size :
                 anonymity_set_sizes(rows, config, identity)) {
                ++expected[static_cast<std::uint32_t>(size)];
            }
            const AnonymityProfile profile =
                analyze_anonymity(columns.view(), config);
            EXPECT_EQ(profile.histogram(), expected)
                << "n=" << n << " " << config.label();
            EXPECT_EQ(profile.total_payments(), n);
        }
    }
}

TEST(DeanonOracleTest, ClusteredIgMatchesBruteForce) {
    std::uint64_t seed = 200;
    for (const std::size_t n : kSizes) {
        const std::vector<TxRecord> rows = colliding_history(n, seed);
        const PaymentColumns columns = PaymentColumns::from_records(rows);
        // Random entity structure over the twelve senders, including
        // accounts that never sent anything.
        util::Rng rng(seed++);
        AccountClusters clusters;
        for (int link = 0; link < 6; ++link) {
            clusters.link(account("s", rng.uniform_u64(0, 11)),
                          account("s", rng.uniform_u64(0, 14)));
        }
        const EntityOf entity_of = [&](const AccountID& sender) {
            return clusters.representative(sender);
        };
        for (const ResolutionConfig& config : oracle_configurations()) {
            const IgResult ig =
                clustered_information_gain(columns.view(), config, clusters);
            EXPECT_EQ(ig.total_payments, n);
            EXPECT_EQ(ig.uniquely_identified,
                      count_unique(anonymity_set_sizes(rows, config, entity_of)))
                << "n=" << n << " " << config.label();
        }
    }
}

TEST(DeanonOracleTest, LinkedIgMatchesBruteForce) {
    std::uint64_t seed = 300;
    for (const std::size_t n : kSizes) {
        const PaymentColumns columns =
            PaymentColumns::from_records(colliding_history(n, seed++));
        for (const std::size_t wallets : {1u, 2u, 5u}) {
            WalletRotationConfig rotation;
            rotation.wallets_per_sender = wallets;
            const RotatedColumns rotated = apply_wallet_rotation(
                columns, rotation, [](const AccountID&) { return std::size_t{2}; });
            const std::vector<TxRecord> rows = rows_of(rotated.payments);
            ASSERT_EQ(rows.size(), n);
            // The linkage attack's ground truth, by wallet identity.
            const EntityOf owner_of = [&](const AccountID& wallet) {
                return rotated.wallet_owner.at(wallet);
            };
            for (const ResolutionConfig& config : oracle_configurations()) {
                const IgResult linked = linked_information_gain(rotated, config);
                EXPECT_EQ(linked.total_payments, n);
                EXPECT_EQ(linked.uniquely_identified,
                          count_unique(anonymity_set_sizes(rows, config, owner_of)))
                    << "n=" << n << " wallets=" << wallets << " "
                    << config.label();
            }
        }
    }
}

TEST(DeanonOracleTest, AttackMatchesBruteForce) {
    // attack() and AttackIndex answer one observation: every payment
    // indistinguishable from it, senders deduplicated in first-seen
    // order, matches as ascending row indices.
    const std::vector<TxRecord> rows = colliding_history(300, 400);
    const PaymentColumns columns = PaymentColumns::from_records(rows);
    const Deanonymizer deanonymizer(columns);
    util::Rng rng(401);
    for (const ResolutionConfig& config : oracle_configurations()) {
        const AttackIndex index(columns, config);
        for (int probe = 0; probe < 25; ++probe) {
            TxRecord observation = rows[rng.uniform_u64(0, rows.size() - 1)];
            observation.sender = AccountID::from_seed("UNKNOWN");
            if (probe % 5 == 0) observation.time.seconds += 1;  // near miss
            std::vector<std::uint32_t> matches;
            std::vector<AccountID> senders;
            for (std::uint32_t i = 0; i < rows.size(); ++i) {
                if (!indistinguishable(observation, rows[i], config)) continue;
                matches.push_back(i);
                if (std::find(senders.begin(), senders.end(), rows[i].sender) ==
                    senders.end()) {
                    senders.push_back(rows[i].sender);
                }
            }
            EXPECT_EQ(deanonymizer.attack(observation, config), senders)
                << config.label();
            EXPECT_EQ(index.matches(observation), matches) << config.label();
            EXPECT_EQ(index.candidate_senders(observation), senders)
                << config.label();
        }
    }
}

}  // namespace
}  // namespace xrpl::core
