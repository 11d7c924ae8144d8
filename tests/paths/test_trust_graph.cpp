#include "paths/trust_graph.hpp"

#include <gtest/gtest.h>

#include "paths/path_finder.hpp"

namespace xrpl::paths {
namespace {

using ledger::AccountID;
using ledger::Currency;
using ledger::IouAmount;
using ledger::LedgerState;

/// The graph as the searches see it: the CSR index for capacity and
/// direction, the epoch-stamped probe for exclusions, and the finder
/// for whether an edge is usable end to end.
class TrustGraphTest : public ::testing::Test {
protected:
    void SetUp() override {
        a_ = AccountID::from_seed("a");
        b_ = AccountID::from_seed("b");
        c_ = AccountID::from_seed("c");
        for (const auto& id : {a_, b_, c_}) {
            state_.create_account(id, ledger::XrpAmount::from_xrp(10.0), false,
                                  /*allows_rippling=*/true);
        }
        // b trusts a: a can send to b.
        state_.set_trust(b_, a_, usd_, IouAmount::from_double(100.0));
    }

    [[nodiscard]] bool reachable(const TrustGraph& graph, const AccountID& from,
                                 const AccountID& to,
                                 Currency currency = Currency::from_code("USD")) {
        return finder_.find(graph, from, to, currency).has_value();
    }

    [[nodiscard]] std::uint32_t index_of(const AccountID& id) const {
        return state_.account(id)->index;
    }

    LedgerState state_;
    PathFinder finder_;
    AccountID a_, b_, c_;
    const Currency usd_ = Currency::from_code("USD");
};

TEST_F(TrustGraphTest, NeighborRequiresPositiveCapacity) {
    const TrustGraph graph(state_);
    EXPECT_TRUE(reachable(graph, a_, b_));
    // b cannot send to a: a declared no trust.
    EXPECT_FALSE(reachable(graph, b_, a_));
}

TEST_F(TrustGraphTest, CurrencyFiltering) {
    const TrustGraph graph(state_);
    EXPECT_EQ(graph.index().partition(Currency::from_code("EUR")), nullptr);
    EXPECT_FALSE(reachable(graph, a_, b_, Currency::from_code("EUR")));
}

TEST_F(TrustGraphTest, ExclusionHidesNeighbors) {
    // c trusts b: a -> b -> c routes through b.
    state_.set_trust(c_, b_, usd_, IouAmount::from_double(50.0));
    TrustGraph graph(state_);
    ASSERT_TRUE(reachable(graph, a_, c_));

    graph.exclude(b_);
    EXPECT_TRUE(graph.is_excluded(b_));
    EXPECT_TRUE(graph.is_excluded_index(index_of(b_)));
    EXPECT_FALSE(graph.is_excluded_index(index_of(a_)));
    EXPECT_EQ(graph.exclusion_count(), 1u);
    EXPECT_FALSE(reachable(graph, a_, c_));

    // Clearing bumps the epoch: the old stamp no longer counts.
    graph.clear_exclusions();
    EXPECT_FALSE(graph.is_excluded_index(index_of(b_)));
    EXPECT_EQ(graph.exclusion_count(), 0u);
    EXPECT_TRUE(reachable(graph, a_, c_));
}

TEST_F(TrustGraphTest, ExclusionOfAccountCreatedLaterHidesIt) {
    TrustGraph graph(state_);
    ASSERT_TRUE(reachable(graph, a_, b_));  // index built before m exists
    const AccountID m = AccountID::from_seed("m");
    graph.exclude(m);
    EXPECT_TRUE(graph.is_excluded(m));

    // a -> m -> c is the only route to c.
    state_.create_account(m, ledger::XrpAmount::from_xrp(10.0), false,
                          /*allows_rippling=*/true);
    state_.set_trust(m, a_, usd_, IouAmount::from_double(50.0));
    state_.set_trust(c_, m, usd_, IouAmount::from_double(50.0));
    EXPECT_FALSE(reachable(graph, a_, c_));
    EXPECT_TRUE(graph.is_excluded_index(index_of(m)));
    EXPECT_FALSE(graph.is_excluded_index(index_of(a_)));

    graph.clear_exclusions();
    EXPECT_FALSE(graph.is_excluded_index(index_of(m)));
    EXPECT_TRUE(reachable(graph, a_, c_));
}

TEST_F(TrustGraphTest, ExhaustedCapacityRemovesEdge) {
    ledger::TrustLine* line = state_.trustline(a_, b_, usd_);
    ASSERT_TRUE(line->transfer_from(a_, IouAmount::from_double(100.0)));
    const TrustGraph graph(state_);
    EXPECT_FALSE(reachable(graph, a_, b_));
    // The reverse direction gained capacity (repayment).
    EXPECT_TRUE(reachable(graph, b_, a_));
}

TEST_F(TrustGraphTest, InNeighborsMirrorOutNeighbors) {
    // One CSR record per endpoint: the capacity INTO b read from b's
    // record equals the capacity OUT of a read from a's record.
    const TrustGraph graph(state_);
    const GraphIndex::Partition* part = graph.index().partition(usd_);
    ASSERT_NE(part, nullptr);
    const auto out_of_a = part->edges_of(index_of(a_));
    const auto into_b = part->edges_of(index_of(b_));
    ASSERT_EQ(out_of_a.size(), 1u);
    ASSERT_EQ(into_b.size(), 1u);
    EXPECT_EQ(into_b[0].peer, index_of(a_));
    const IouAmount out = out_of_a[0].line->directed_capacity(out_of_a[0].node_is_low);
    const IouAmount in = into_b[0].line->directed_capacity(!into_b[0].node_is_low);
    EXPECT_EQ(in, out);
    EXPECT_NEAR(in.to_double(), 100.0, 1e-9);
}

TEST_F(TrustGraphTest, OutDegreeCountsUsableEdges) {
    state_.set_trust(c_, a_, usd_, IouAmount::from_double(5.0));
    const TrustGraph graph(state_);
    const GraphIndex::Partition* part = graph.index().partition(usd_);
    ASSERT_NE(part, nullptr);
    const auto usable_out = [&](const AccountID& from) {
        std::size_t n = 0;
        for (const GraphIndex::Edge& edge : part->edges_of(index_of(from))) {
            const IouAmount cap = edge.line->directed_capacity(edge.node_is_low);
            if (!cap.is_zero() && !cap.is_negative()) ++n;
        }
        return n;
    };
    EXPECT_EQ(usable_out(a_), 2u);
    EXPECT_EQ(usable_out(b_), 0u);
    EXPECT_TRUE(reachable(graph, a_, c_));
    EXPECT_FALSE(reachable(graph, b_, c_));
}

}  // namespace
}  // namespace xrpl::paths
