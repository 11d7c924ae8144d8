// End-to-end integration: generate a history with the real engine,
// then run the paper's analyses over it and check the qualitative
// claims hold (the benches check the quantitative shape at full
// scale; these bounds are loose so the test stays robust at CI size).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "analytics/currency_stats.hpp"
#include "analytics/survival.hpp"
#include "analytics/top_users.hpp"
#include "core/ig_study.hpp"
#include "datagen/history.hpp"
#include "paths/replay.hpp"

namespace xrpl {
namespace {

datagen::GeneratorConfig integration_config() {
    datagen::GeneratorConfig config;
    config.seed = 99;
    config.num_users = 1'500;
    config.num_gateways = 30;
    config.num_market_makers = 50;
    config.num_merchants = 200;
    config.num_hubs = 15;
    config.target_payments = 60'000;
    return config;
}

class EndToEndTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        history_ = new datagen::GeneratedHistory(
            datagen::generate_history(integration_config()));
    }
    static void TearDownTestSuite() {
        delete history_;
        history_ = nullptr;
    }
    static datagen::GeneratedHistory* history_;
};

datagen::GeneratedHistory* EndToEndTest::history_ = nullptr;

TEST_F(EndToEndTest, FigureThreeShapeHolds) {
    const auto rows = core::run_ig_study(history_->payments);
    ASSERT_EQ(rows.size(), 10u);
    const auto ig = [&](std::size_t i) { return rows[i].result.information_gain(); };

    // Full resolution de-anonymizes nearly everything.
    EXPECT_GT(ig(0), 0.93);
    // Removing the currency barely matters.
    EXPECT_GT(ig(1), ig(0) - 0.05);
    // Timestamp is the dominant feature: dropping it hurts most.
    EXPECT_LT(ig(7), ig(1));
    EXPECT_LT(ig(7), ig(2));
    EXPECT_LT(ig(7), ig(3));
    // The weakest configuration collapses.
    EXPECT_LT(ig(9), 0.25);
    // Full ladder is monotone.
    EXPECT_GE(ig(0), ig(4));
    EXPECT_GE(ig(4), ig(5));
    EXPECT_GE(ig(5), ig(6));
}

TEST_F(EndToEndTest, LatteAttackRecoversAVictim) {
    // Find some real retail payment and replay the bar scenario on it.
    const core::Deanonymizer deanonymizer(history_->payments);
    const core::ResolutionConfig config = core::full_resolution();
    std::size_t attacks = 0;
    std::size_t unique_hits = 0;
    for (std::size_t i = 0; i < history_->payments.size() && attacks < 200;
         i += 31) {
        const ledger::TxRecord observed = history_->payments.row(i);
        const auto candidates = deanonymizer.attack(observed, config);
        ASSERT_FALSE(candidates.empty());
        ++attacks;
        if (candidates.size() == 1) {
            ++unique_hits;
            EXPECT_EQ(candidates[0], observed.sender);
            // "Complete and unlimited access" to the victim's history.
            const auto life = deanonymizer.history_of(candidates[0]);
            EXPECT_FALSE(life.empty());
        }
    }
    EXPECT_GT(static_cast<double>(unique_hits) / static_cast<double>(attacks),
              0.9);
}

TEST_F(EndToEndTest, FigureFourXrpLeadsAndEurTrails) {
    const auto ranked = analytics::rank_currencies(history_->payments.view());
    ASSERT_GT(ranked.size(), 10u);
    EXPECT_TRUE(ranked[0].currency.is_xrp());
    // EUR is far down the list despite being a major world currency.
    std::size_t eur_rank = 0;
    for (std::size_t i = 0; i < ranked.size(); ++i) {
        if (ranked[i].currency == ledger::Currency::from_code("EUR")) {
            eur_rank = i;
        }
    }
    EXPECT_GT(eur_rank, 6u);
}

TEST_F(EndToEndTest, FigureFiveSurvivalOrdering) {
    // BTC payments are micro, MTL payments are ~1e9: at a threshold of
    // 1e6 the MTL survival is ~1 and BTC's ~0.
    const ledger::PaymentView view = history_->payments.view();
    const std::vector<float> btc =
        analytics::amount_samples(view, datagen::cur("BTC"));
    const std::vector<float> mtl =
        analytics::amount_samples(view, datagen::cur("MTL"));
    ASSERT_FALSE(btc.empty());
    ASSERT_FALSE(mtl.empty());
    const analytics::SurvivalFunction btc_s(btc);
    const analytics::SurvivalFunction mtl_s(mtl);
    EXPECT_LT(btc_s.survival(1e6), 0.01);
    EXPECT_GT(mtl_s.survival(1e6), 0.95);
    EXPECT_LT(btc_s.median(), 1.0);
    EXPECT_GT(mtl_s.median(), 1e8);
}

TEST_F(EndToEndTest, FigureSevenTopUsersSplitGatewaysFromHubs) {
    const auto rate = [](ledger::Currency c) { return datagen::usd_value(c); };
    const auto label = [&](const ledger::AccountID& id) {
        return history_->population.label_of(id);
    };
    const auto top = analytics::top_intermediaries(
        history_->intermediary_counts, history_->ledger, 50, rate, label);
    ASSERT_GE(top.size(), 20u);

    std::size_t gateways = 0;
    double gateway_balance_sum = 0.0;
    double hub_balance_sum = 0.0;
    const auto is_rail = [&](const ledger::AccountID& id) {
        const auto& rails = history_->population.cck_rails;
        return std::find(rails.begin(), rails.end(), id) != rails.end();
    };
    for (const auto& user : top) {
        if (user.is_gateway) {
            ++gateways;
            gateway_balance_sum += user.balance;
            // Gateways are the trusted parties.
            EXPECT_GT(user.trust_received, 0.0);
        } else if (!is_rail(user.account)) {
            // The spam rails issue their own token and carry issuer-like
            // (negative) balances; the ordinary hubs/makers hold credit.
            hub_balance_sum += user.balance;
        }
    }
    // Both populations appear in the top-50 (paper: just 20/50 are
    // gateways), and their balance signs differ in aggregate.
    EXPECT_GT(gateways, 3u);
    EXPECT_LT(gateways, top.size());
    EXPECT_LT(gateway_balance_sum, 0.0);  // gateways owe
    EXPECT_GT(hub_balance_sum, 0.0);      // hubs/makers hold credit

    // The two most active nodes are NOT gateways and sit well above
    // everyone else — the paper's rp2PaY / r42Ccn mystery accounts.
    EXPECT_FALSE(top[0].is_gateway);
    EXPECT_FALSE(top[1].is_gateway);
    const std::set<std::string> leaders = {top[0].label.substr(0, 6),
                                           top[1].label.substr(0, 6)};
    EXPECT_TRUE(leaders.contains("rp2PaY"));
    EXPECT_TRUE(leaders.contains("r42Ccn"));
    // The paper puts the two rails "almost an order of magnitude"
    // above every gateway. At this CI scale each rail only narrowly
    // clears the busiest gateway, but the pair (one operator: both
    // rails "activated by the same third account") clears it by a
    // wide factor; the gap widens with history length.
    double busiest_gateway = 0.0;
    for (const auto& user : top) {
        if (!user.is_gateway) continue;
        busiest_gateway = std::max(
            busiest_gateway, static_cast<double>(user.times_intermediate));
    }
    EXPECT_GT(static_cast<double>(top[1].times_intermediate), busiest_gateway);
    EXPECT_GT(static_cast<double>(top[0].times_intermediate +
                                  top[1].times_intermediate),
              1.8 * busiest_gateway);
}

TEST_F(EndToEndTest, TableTwoMarketMakerRemoval) {
    util::Rng rng(4242);
    // As in the paper: replay the payments that were actually
    // delivered after the snapshot.
    const auto payments = datagen::make_delivered_replay_workload(
        history_->population, history_->ledger, 3'000, 0.687, rng);
    ASSERT_GE(payments.size(), 2'500u);

    // Baseline replay on a clone: delivered payments re-deliver.
    ledger::LedgerState baseline_world = history_->ledger.clone();
    paths::PaymentEngine baseline_engine(baseline_world);
    const paths::ReplayStats baseline = paths::replay(baseline_engine, payments);
    EXPECT_DOUBLE_EQ(baseline.cross_rate(), 1.0);
    EXPECT_DOUBLE_EQ(baseline.single_rate(), 1.0);
    EXPECT_NEAR(static_cast<double>(baseline.cross_submitted) /
                    static_cast<double>(baseline.submitted()),
                0.687, 0.05);

    // Remove the Market Makers and all offers.
    ledger::LedgerState mmless_world = history_->ledger.clone();
    paths::PaymentEngine mmless_engine(mmless_world);
    const paths::ReplayStats without = paths::replay_without(
        mmless_engine, payments, history_->population.market_makers, true);

    // "All the cross-currency payments fail."
    EXPECT_EQ(without.cross_delivered, 0u);
    // Single-currency delivery degrades sharply but does not vanish
    // (paper: 36.10% deliver).
    EXPECT_GT(without.single_rate(), 0.05);
    EXPECT_LT(without.single_rate(), 0.75);
    // Overall delivery collapses (paper: 11.2%).
    EXPECT_LT(without.total_rate(), 0.35);
}

TEST_F(EndToEndTest, LedgerInvariantsHoldAfterTheWholeHistory) {
    // Every trust line balance within its limits' envelope: a line's
    // claim can never exceed the holder's declared limit (transfers
    // enforce it; this verifies nothing bypassed the checks).
    std::size_t checked = 0;
    for (const auto& user : history_->population.users) {
        for (const ledger::TrustLine* line : history_->ledger.lines_of(user)) {
            const auto claim = line->balance_for(user);
            if (!claim.is_negative()) {
                EXPECT_LE(claim.to_double(),
                          line->limit_of(user).to_double() * (1 + 1e-9));
            }
            ++checked;
        }
    }
    EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace xrpl
