// GraphIndex — the currency-partitioned CSR adjacency: build shape,
// lines_of() order parity, lazy generation-driven rebuild, and the
// live-capacity contract (balance mutations never invalidate).
#include "paths/graph_index.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "paths/trust_graph.hpp"

namespace xrpl::paths {
namespace {

using ledger::AccountID;
using ledger::Currency;
using ledger::IouAmount;
using ledger::LedgerState;

const Currency kUsd = Currency::from_code("USD");
const Currency kEur = Currency::from_code("EUR");
const Currency kBtc = Currency::from_code("BTC");

class GraphIndexTest : public ::testing::Test {
protected:
    AccountID add(const std::string& seed, bool ripples = true) {
        const AccountID id = AccountID::from_seed(seed);
        state_.create_account(id, ledger::XrpAmount::from_xrp(10.0), false,
                              ripples);
        return id;
    }

    /// Allow value to flow from -> to up to `limit` (receiver trusts).
    ledger::TrustLine& edge(const AccountID& from, const AccountID& to,
                            Currency c, double limit) {
        return state_.set_trust(to, from, c, IouAmount::from_double(limit));
    }

    [[nodiscard]] std::uint32_t index_of(const AccountID& id) const {
        return state_.account(id)->index;
    }

    LedgerState state_;
};

TEST_F(GraphIndexTest, EmptyLedgerBuildsEmptyIndex) {
    GraphIndex index;
    EXPECT_FALSE(index.built());
    index.build(state_);
    EXPECT_TRUE(index.built());
    EXPECT_EQ(index.partition_count(), 0u);
    EXPECT_EQ(index.edge_count(), 0u);
    EXPECT_EQ(index.partition(kUsd), nullptr);
}

TEST_F(GraphIndexTest, OnePartitionPerCurrency) {
    const AccountID a = add("a");
    const AccountID b = add("b");
    const AccountID c = add("c");
    edge(a, b, kUsd, 10.0);
    edge(b, c, kEur, 10.0);
    GraphIndex index;
    index.build(state_);
    EXPECT_EQ(index.partition_count(), 2u);
    EXPECT_NE(index.partition(kUsd), nullptr);
    EXPECT_NE(index.partition(kEur), nullptr);
    EXPECT_EQ(index.partition(kBtc), nullptr);
}

TEST_F(GraphIndexTest, OneLineYieldsOneEdgePerEndpoint) {
    const AccountID a = add("a");
    const AccountID b = add("b");
    edge(a, b, kUsd, 25.0);
    GraphIndex index;
    index.build(state_);
    ASSERT_EQ(index.edge_count(), 2u);

    const GraphIndex::Partition* part = index.partition(kUsd);
    ASSERT_NE(part, nullptr);
    const auto from_a = part->edges_of(index_of(a));
    const auto from_b = part->edges_of(index_of(b));
    ASSERT_EQ(from_a.size(), 1u);
    ASSERT_EQ(from_b.size(), 1u);
    EXPECT_EQ(from_a[0].peer, index_of(b));
    EXPECT_EQ(from_b[0].peer, index_of(a));
    // Both records point at the same underlying trust line...
    EXPECT_EQ(from_a[0].line, from_b[0].line);
    // ...with opposite direction bits.
    EXPECT_NE(from_a[0].node_is_low, from_b[0].node_is_low);
}

TEST_F(GraphIndexTest, DirectionBitMatchesCapacityFrom) {
    const AccountID a = add("a");
    const AccountID b = add("b");
    ledger::TrustLine& line = edge(a, b, kUsd, 40.0);
    // Make the two directions distinguishable: a -> b has 30 left,
    // b -> a has 10 (the transferred debt can flow back).
    ASSERT_TRUE(line.transfer_from(a, IouAmount::from_double(10.0)));

    GraphIndex index;
    index.build(state_);
    const GraphIndex::Partition* part = index.partition(kUsd);
    ASSERT_NE(part, nullptr);
    for (const AccountID& node : {a, b}) {
        const auto edges = part->edges_of(index_of(node));
        ASSERT_EQ(edges.size(), 1u);
        // Out-capacity through the direction bit == the scan's
        // capacity_from(node), byte for byte.
        EXPECT_EQ(
            edges[0].line->directed_capacity(edges[0].node_is_low).to_double(),
            edges[0].line->capacity_from(node).to_double());
    }
}

TEST_F(GraphIndexTest, PerNodeOrderMatchesLinesOfScan) {
    // A hub with several USD lines plus EUR noise interleaved: the CSR
    // span must list USD peers in exactly lines_of() insertion order,
    // currency-filtered — the searches' tie-break order.
    const AccountID hub = add("hub");
    std::vector<AccountID> peers;
    for (int i = 0; i < 6; ++i) {
        peers.push_back(add("peer" + std::to_string(i)));
        edge(hub, peers.back(), kUsd, 10.0 + i);
        if (i % 2 == 0) edge(peers.back(), hub, kEur, 5.0);
    }

    std::vector<std::uint32_t> scan_order;
    for (const ledger::TrustLine* line : state_.lines_of(hub)) {
        if (line->key().currency == kUsd) {
            scan_order.push_back(index_of(line->peer_of(hub)));
        }
    }

    GraphIndex index;
    index.build(state_);
    const GraphIndex::Partition* part = index.partition(kUsd);
    ASSERT_NE(part, nullptr);
    std::vector<std::uint32_t> csr_order;
    for (const GraphIndex::Edge& e : part->edges_of(index_of(hub))) {
        csr_order.push_back(e.peer);
    }
    EXPECT_EQ(csr_order, scan_order);
}

TEST_F(GraphIndexTest, RipplingFlagCachedPerEdge) {
    const AccountID a = add("a");
    const AccountID locked = add("locked", /*ripples=*/false);
    edge(a, locked, kUsd, 10.0);
    GraphIndex index;
    index.build(state_);
    const GraphIndex::Partition* part = index.partition(kUsd);
    ASSERT_NE(part, nullptr);
    const auto from_a = part->edges_of(index_of(a));
    const auto from_locked = part->edges_of(index_of(locked));
    ASSERT_EQ(from_a.size(), 1u);
    ASSERT_EQ(from_locked.size(), 1u);
    EXPECT_FALSE(from_a[0].peer_ripples);    // peer is `locked`
    EXPECT_TRUE(from_locked[0].peer_ripples);  // peer is `a`
}

TEST_F(GraphIndexTest, EnsureIsLazyUntilTopologyMoves) {
    const AccountID a = add("a");
    const AccountID b = add("b");
    ledger::TrustLine& line = edge(a, b, kUsd, 50.0);

    GraphIndex index;
    index.ensure(state_);
    ASSERT_TRUE(index.built());
    const std::uint64_t gen = index.built_generation();

    // Balance mutation: NOT a topology change — no rebuild.
    ASSERT_TRUE(line.transfer_from(a, IouAmount::from_double(5.0)));
    index.ensure(state_);
    EXPECT_EQ(index.built_generation(), gen);
    EXPECT_EQ(index.edge_count(), 2u);

    // Limit update on an existing line: also not topology.
    state_.set_trust(b, a, kUsd, IouAmount::from_double(75.0));
    index.ensure(state_);
    EXPECT_EQ(index.built_generation(), gen);

    // A NEW line is topology: ensure() must rebuild and see it.
    const AccountID c = add("c");
    edge(b, c, kUsd, 10.0);
    index.ensure(state_);
    EXPECT_GT(index.built_generation(), gen);
    EXPECT_EQ(index.edge_count(), 4u);
}

TEST_F(GraphIndexTest, CapacityReadLiveThroughStoredPointer) {
    const AccountID a = add("a");
    const AccountID b = add("b");
    ledger::TrustLine& line = edge(a, b, kUsd, 100.0);
    GraphIndex index;
    index.build(state_);
    const GraphIndex::Partition* part = index.partition(kUsd);
    ASSERT_NE(part, nullptr);
    const auto edges = part->edges_of(index_of(a));
    ASSERT_EQ(edges.size(), 1u);
    EXPECT_NEAR(edges[0].line->directed_capacity(edges[0].node_is_low).to_double(),
                100.0, 1e-9);
    // Mutate the balance after the build: the stale index must still
    // see the new capacity (it never copied the number).
    ASSERT_TRUE(line.transfer_from(a, IouAmount::from_double(60.0)));
    EXPECT_NEAR(edges[0].line->directed_capacity(edges[0].node_is_low).to_double(),
                40.0, 1e-9);
}

TEST_F(GraphIndexTest, CloneRebuildsItsOwnIndex) {
    // A TrustGraph over a clone must not serve spans built against the
    // original's account indexing; the clone carries the generation,
    // and each graph owns its own index instance.
    const AccountID a = add("a");
    const AccountID b = add("b");
    edge(a, b, kUsd, 10.0);
    const LedgerState copy = state_.clone();
    EXPECT_EQ(copy.topology_generation(), state_.topology_generation());

    const TrustGraph graph(copy);
    const GraphIndex& index = graph.index();
    EXPECT_TRUE(index.built());
    EXPECT_EQ(index.edge_count(), 2u);
}

TEST_F(GraphIndexTest, ExclusionStampsAreEpochScoped) {
    const AccountID a = add("a");
    const AccountID b = add("b");
    edge(a, b, kUsd, 10.0);
    TrustGraph graph(state_);
    EXPECT_FALSE(graph.is_excluded_index(index_of(b)));
    graph.exclude(b);
    EXPECT_TRUE(graph.is_excluded_index(index_of(b)));
    EXPECT_FALSE(graph.is_excluded_index(index_of(a)));
    graph.clear_exclusions();
    EXPECT_FALSE(graph.is_excluded_index(index_of(b)));
    // Re-excluding after a clear works in the new epoch.
    graph.exclude(a);
    EXPECT_TRUE(graph.is_excluded_index(index_of(a)));
    EXPECT_FALSE(graph.is_excluded_index(index_of(b)));
    // Out-of-range probes (accounts created after the last exclude)
    // are simply not excluded.
    EXPECT_FALSE(graph.is_excluded_index(9999u));
}

}  // namespace
}  // namespace xrpl::paths
