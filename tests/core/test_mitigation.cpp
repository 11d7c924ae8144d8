#include "core/mitigation.hpp"

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>

#include "datagen/history.hpp"
#include "ledger/payment_columns.hpp"
#include "util/rng.hpp"

namespace xrpl::core {
namespace {

using ledger::AccountID;
using ledger::Currency;
using ledger::IouAmount;
using ledger::TxRecord;

ledger::PaymentColumns habitual_history() {
    // Two users, each repeatedly paying the same shop the same amount
    // on DIFFERENT days: unique-sender at day resolution because each
    // (amount, day, shop) cell holds one sender.
    ledger::PaymentColumns records;
    for (int day = 0; day < 12; ++day) {
        TxRecord a;
        a.sender = AccountID::from_seed("alice");
        a.destination = AccountID::from_seed("shop");
        a.currency = Currency::from_code("USD");
        a.amount = IouAmount::from_double(40.0);
        a.time = util::RippleTime{day * 86'400 + 3'600};
        records.push_back(a);
        TxRecord b = a;
        b.sender = AccountID::from_seed("bob");
        b.time.seconds += 7'200;
        records.push_back(b);
    }
    return records;
}

std::size_t three_lines(const AccountID&) { return 3; }

TEST(MitigationTest, RotationSpreadsPaymentsAcrossWallets) {
    const auto records = habitual_history();
    WalletRotationConfig config;
    config.wallets_per_sender = 4;
    const RotatedColumns rotated =
        apply_wallet_rotation(records, config, three_lines);

    ASSERT_EQ(rotated.payments.size(), records.size());
    std::unordered_set<AccountID> wallets;
    for (const TxRecord& record : rotated.payments.view()) {
        wallets.insert(record.sender);
        // Wallets are fresh accounts, not the owners.
        EXPECT_NE(record.sender, AccountID::from_seed("alice"));
        EXPECT_NE(record.sender, AccountID::from_seed("bob"));
    }
    EXPECT_EQ(wallets.size(), 8u);  // 2 owners x 4 wallets
    // Only the sender changes.
    for (std::size_t i = 0; i < records.size(); ++i) {
        const TxRecord before = records.row(i);
        const TxRecord after = rotated.payments.row(i);
        EXPECT_EQ(after.destination, before.destination);
        EXPECT_EQ(after.amount, before.amount);
        EXPECT_EQ(after.time.seconds, before.time.seconds);
    }
}

TEST(MitigationTest, WalletOwnerMapIsComplete) {
    const auto records = habitual_history();
    WalletRotationConfig config;
    config.wallets_per_sender = 3;
    const RotatedColumns rotated =
        apply_wallet_rotation(records, config, three_lines);
    for (const TxRecord& record : rotated.payments.view()) {
        const auto it = rotated.wallet_owner.find(record.sender);
        ASSERT_NE(it, rotated.wallet_owner.end());
        EXPECT_TRUE(it->second == AccountID::from_seed("alice") ||
                    it->second == AccountID::from_seed("bob"));
    }
}

TEST(MitigationTest, BootstrapCostScalesWithWalletsAndLines) {
    const auto records = habitual_history();
    WalletRotationConfig config;
    config.wallets_per_sender = 5;
    config.xrp_reserve_per_wallet = 20.0;
    config.xrp_reserve_per_trustline = 5.0;
    const RotatedColumns rotated =
        apply_wallet_rotation(records, config, three_lines);
    EXPECT_EQ(rotated.wallets_created, 10u);       // 2 owners x 5
    EXPECT_EQ(rotated.trustlines_created, 30u);    // x 3 lines each
    EXPECT_DOUBLE_EQ(rotated.xrp_reserve_cost, 10 * 20.0 + 30 * 5.0);
}

TEST(MitigationTest, RotationDefeatsTheNaiveAttack) {
    // Each wallet used ~3 times; the day-resolution fingerprint that
    // identified alice now maps to several "different" senders? No —
    // wallets still belong to one owner each; uniqueness per wallet
    // remains. The defence shows up only when wallets COLLIDE across
    // owners: force it by making both users' payments identical in
    // features (same second, same amount, same shop).
    ledger::PaymentColumns records;
    for (int i = 0; i < 8; ++i) {
        TxRecord a;
        a.sender = AccountID::from_seed("alice");
        a.destination = AccountID::from_seed("shop");
        a.currency = Currency::from_code("USD");
        a.amount = IouAmount::from_double(40.0);
        a.time = util::RippleTime{1'000 + i};  // distinct seconds
        records.push_back(a);
    }
    // Without rotation every record is uniquely alice's (same sender).
    const Deanonymizer before(records);
    EXPECT_DOUBLE_EQ(
        before.information_gain(full_resolution()).information_gain(), 1.0);

    // With per-transaction wallets each fingerprint maps to ONE wallet,
    // still "unique" — the defence does NOT protect distinct-feature
    // payments, exactly the paper's skepticism.
    WalletRotationConfig config;
    config.wallets_per_sender = 8;
    const RotatedColumns rotated =
        apply_wallet_rotation(records, config, three_lines);
    const Deanonymizer after(rotated.payments);
    EXPECT_DOUBLE_EQ(
        after.information_gain(full_resolution()).information_gain(), 1.0);
    // What rotation DOES break is history linkage: the "financial
    // life" of any single wallet is a fraction of the real history.
    const auto life = after.history_of(rotated.payments.row(0).sender);
    EXPECT_EQ(life.size(), 1u);
}

TEST(MitigationTest, LinkageAttackRestoresTheBaseline) {
    const auto records = habitual_history();
    const ResolutionConfig resolution = full_resolution();

    WalletRotationConfig config;
    config.wallets_per_sender = 6;
    const MitigationReport report =
        evaluate_wallet_rotation(records, resolution, config, three_lines);

    // Rotation does not reduce per-payment identification here (each
    // fingerprint still has one sender)...
    EXPECT_DOUBLE_EQ(report.rotated.information_gain(),
                     report.baseline.information_gain());
    // ...and the activation-linkage attack maps wallets back to their
    // owners, restoring the original IG exactly.
    EXPECT_DOUBLE_EQ(report.linked.information_gain(),
                     report.baseline.information_gain());
    EXPECT_GT(report.xrp_reserve_cost, 0.0);
}

TEST(MitigationTest, LinkedIgNeverBelowRotatedIg) {
    // Linking merges wallets into clusters: buckets that were
    // multi-wallet-but-one-owner become identified.
    util::Rng rng(5);
    ledger::PaymentColumns records;
    for (int i = 0; i < 2'000; ++i) {
        TxRecord r;
        r.sender = AccountID::from_seed(
            "u" + std::to_string(rng.uniform_u64(0, 40)));
        r.destination = AccountID::from_seed(
            "m" + std::to_string(rng.uniform_u64(0, 5)));
        r.currency = Currency::from_code("USD");
        r.amount = IouAmount::from_double(
            10.0 * static_cast<double>(rng.uniform_u64(1, 6)));
        r.time = util::RippleTime{
            static_cast<std::int64_t>(rng.uniform_u64(0, 2'000))};
        records.push_back(r);
    }
    ResolutionConfig coarse;
    coarse.amount = AmountResolution::kAverage;
    coarse.time = util::TimeResolution::kHours;
    WalletRotationConfig config;
    config.wallets_per_sender = 4;
    const MitigationReport report =
        evaluate_wallet_rotation(records, coarse, config, three_lines);
    EXPECT_GE(report.linked.information_gain(),
              report.rotated.information_gain());
    EXPECT_NEAR(report.linked.information_gain(),
                report.baseline.information_gain(), 1e-12);
}

TEST(MitigationTest, ZeroWalletConfigBehavesAsOne) {
    const auto records = habitual_history();
    WalletRotationConfig config;
    config.wallets_per_sender = 0;
    const RotatedColumns rotated =
        apply_wallet_rotation(records, config, three_lines);
    std::unordered_set<AccountID> wallets;
    for (const TxRecord& r : rotated.payments.view()) wallets.insert(r.sender);
    EXPECT_EQ(wallets.size(), 2u);  // one wallet per owner
}

TEST(MitigationTest, GoldenRotationCountsArePinned) {
    // evaluate_wallet_rotation on the history ShardedDeterminismTest
    // pins (fingerprint 4d926cb6…), three wallets per sender, each
    // re-creating its owner's trust lines. Pinned when the retired row
    // backend and the column path still produced it independently.
    datagen::GeneratorConfig gen;
    gen.seed = 20170605;
    gen.num_users = 400;
    gen.num_gateways = 12;
    gen.num_market_makers = 20;
    gen.num_merchants = 60;
    gen.num_hubs = 6;
    gen.target_payments = 6'000;
    gen.payments_per_slice = 1'500;
    const datagen::GeneratedHistory history = datagen::generate_history(gen);
    ASSERT_EQ(ledger::columns_fingerprint(history.payments).substr(0, 8), "4d926cb6");

    WalletRotationConfig config;
    config.wallets_per_sender = 3;
    const MitigationReport report = evaluate_wallet_rotation(
        history.payments, full_resolution(), config,
        [&](const AccountID& owner) { return history.ledger.lines_of(owner).size(); });
    EXPECT_EQ(report.baseline.total_payments, 6001u);
    EXPECT_EQ(report.baseline.uniquely_identified, 5885u);
    EXPECT_EQ(report.rotated.uniquely_identified, 5865u);
    EXPECT_EQ(report.linked.uniquely_identified, 5885u);
    EXPECT_EQ(report.wallets_created, 1290u);
    EXPECT_EQ(report.trustlines_created, 23886u);
}

}  // namespace
}  // namespace xrpl::core
