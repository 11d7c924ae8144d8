// Table II replay goldens: the path engine's observable behaviour on a
// generated history big enough to exercise gateways, hubs, makers and
// spam chains, pinned at a fixed seed/config so any change to the
// generator, the finders, the CSR index or the replay harness shows up
// as a concrete diff instead of a silent drift:
//  * the Table II ReplayStats with and without Market Makers;
//  * the paths.nodes_expanded totals of both replays, each reproduced
//    by a second, independent engine (same searches, same frontiers —
//    not just the same end results);
//  * a digest of the exact paths both finders return on a sample of
//    (user, merchant) pairs, tie-breaks included.
// Correctness of the finders themselves is checked against brute
// force in tests/paths/test_path_oracle.cpp; these pins guard that the
// behaviour they certify does not move.
//
// Runs in tier-1 at XRPL_THREADS=1 and 8 (tools/tier1.sh): nothing
// here may depend on pool width.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "datagen/history.hpp"
#include "obs/metrics.hpp"
#include "paths/replay.hpp"
#include "paths/widest_path.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"

namespace xrpl {
namespace {

using paths::PaymentEngine;
using paths::ReplayStats;

/// Small but structured: all account classes present, enough payments
/// for the delivered-workload filter to bite. Fixed seed — the golden
/// expectations below are functions of exactly this config.
datagen::GeneratorConfig parity_config() {
    datagen::GeneratorConfig config;
    config.seed = 20150207;  // the paper's snapshot date, Feb 7 2015
    config.num_users = 500;
    config.num_gateways = 12;
    config.num_market_makers = 20;
    config.num_merchants = 60;
    config.num_hubs = 6;
    config.target_payments = 15'000;
    return config;
}

class ReplayParityTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        history_ = new datagen::GeneratedHistory(
            datagen::generate_history(parity_config()));
        util::Rng rng = util::RngStream(parity_config().seed).derive("replay").rng();
        workload_ = new std::vector<paths::PaymentRequest>(
            datagen::make_delivered_replay_workload(
                history_->population, history_->ledger, 1'500, 0.687, rng));
    }
    static void TearDownTestSuite() {
        delete history_;
        history_ = nullptr;
        delete workload_;
        workload_ = nullptr;
    }

    /// Replay the shared workload through a fresh engine over a fresh
    /// clone, measuring the BFS node-visit total alongside the stats.
    struct MeasuredReplay {
        ReplayStats stats;
        std::uint64_t nodes_expanded = 0;
    };
    static MeasuredReplay run_replay(bool remove_makers) {
        const bool was_enabled = obs::enabled();
        obs::set_enabled(true);
        obs::Counter& expanded = obs::counter("paths.nodes_expanded");
        const std::uint64_t before = expanded.value();

        ledger::LedgerState world = history_->ledger.clone();
        PaymentEngine engine(world);
        MeasuredReplay result;
        if (remove_makers) {
            result.stats = paths::replay_without(
                engine, *workload_, history_->population.market_makers, true);
        } else {
            result.stats = paths::replay(engine, *workload_);
        }
        result.nodes_expanded = expanded.value() - before;
        obs::set_enabled(was_enabled);
        return result;
    }

    static void expect_equal(const ReplayStats& a, const ReplayStats& b) {
        EXPECT_EQ(a.cross_submitted, b.cross_submitted);
        EXPECT_EQ(a.cross_delivered, b.cross_delivered);
        EXPECT_EQ(a.single_submitted, b.single_submitted);
        EXPECT_EQ(a.single_delivered, b.single_delivered);
    }

    static datagen::GeneratedHistory* history_;
    static std::vector<paths::PaymentRequest>* workload_;
};

datagen::GeneratedHistory* ReplayParityTest::history_ = nullptr;
std::vector<paths::PaymentRequest>* ReplayParityTest::workload_ = nullptr;

void append_path(std::string& out, const std::optional<paths::TrustPath>& path) {
    if (!path) {
        out += "none\n";
        return;
    }
    for (const ledger::AccountID& node : path->nodes) {
        out += node.to_address();
        out += ' ';
    }
    out += std::to_string(path->capacity.mantissa()) + 'e' +
           std::to_string(path->capacity.exponent()) + '\n';
}

TEST_F(ReplayParityTest, SampledPathsMatchPinnedDigest) {
    // Every (user, merchant) pairing sampled across the population, in
    // the merchant's home currency: the shortest and the widest path,
    // node for node with their capacities, hashed. Pinned when the CSR
    // engine and the retired lines_of() scan engine still agreed on
    // every one of these paths.
    const datagen::Population& pop = history_->population;
    const paths::TrustGraph graph(history_->ledger);
    paths::PathFinder shortest;
    paths::WidestPathFinder widest;

    std::string transcript;
    std::size_t compared = 0;
    std::size_t found = 0;
    for (std::size_t u = 0; u < pop.users.size(); u += 17) {
        for (std::size_t m = 0; m < pop.merchants.size(); m += 7) {
            const ledger::AccountID& from = pop.users[u];
            const ledger::AccountID& to = pop.merchants[m];
            const ledger::Currency currency = pop.merchant_profiles[m].home;
            const auto path = shortest.find(graph, from, to, currency);
            const auto wide = widest.find(graph, from, to, currency);
            append_path(transcript, path);
            append_path(transcript, wide);
            ++compared;
            if (path) ++found;
        }
    }
    // The sample must actually exercise both outcomes.
    EXPECT_GT(found, 0u);
    EXPECT_GT(compared, found);
    EXPECT_EQ(util::to_hex(util::sha256(transcript)), "b4de1b696ba038f1d1140081d409b9abcc1e69337bc8f018c0125d8089d957b6");
}

TEST_F(ReplayParityTest, FullReplayStatsIdenticalAcrossEngines) {
    // Two independent PaymentEngines, each over its own ledger clone,
    // replay the full workload: same ReplayStats, same searches, same
    // frontiers. The BFS visit total is pinned at the value the CSR
    // and the retired lines_of() scan engine both produced.
    const MeasuredReplay first = run_replay(false);
    const MeasuredReplay second = run_replay(false);
    expect_equal(first.stats, second.stats);
    EXPECT_EQ(first.nodes_expanded, second.nodes_expanded);
    EXPECT_EQ(first.nodes_expanded, 28064u);
}

TEST_F(ReplayParityTest, MakerFreeReplayStatsIdenticalAcrossEngines) {
    // The same for the Market-Maker-removal replay (Table II's right
    // column), where the exclusion set prunes every search.
    const MeasuredReplay first = run_replay(true);
    const MeasuredReplay second = run_replay(true);
    expect_equal(first.stats, second.stats);
    EXPECT_EQ(first.nodes_expanded, second.nodes_expanded);
    EXPECT_EQ(first.nodes_expanded, 3796u);
}

TEST_F(ReplayParityTest, GoldenTableTwoStats) {
    // Pinned Table II numbers for parity_config() + the fixed replay
    // stream: any change to the generator, the engine, the finder, or
    // the replay harness that moves these is a REAL behaviour change
    // and must be deliberate.
    const MeasuredReplay baseline = run_replay(false);
    EXPECT_EQ(baseline.stats.cross_submitted, 1030u);
    EXPECT_EQ(baseline.stats.cross_delivered, 1030u);
    EXPECT_EQ(baseline.stats.single_submitted, 470u);
    EXPECT_EQ(baseline.stats.single_delivered, 470u);

    // Table II's shape at test scale: cross-currency collapses to zero
    // without makers; single-currency survives partially (the paper:
    // 36.10%, here 377/470 — the synthetic graph is denser).
    const MeasuredReplay removed = run_replay(true);
    EXPECT_EQ(removed.stats.cross_submitted, 1030u);
    EXPECT_EQ(removed.stats.cross_delivered, 0u);
    EXPECT_EQ(removed.stats.single_submitted, 470u);
    EXPECT_EQ(removed.stats.single_delivered, 377u);
}

}  // namespace
}  // namespace xrpl
