// GraphIndex — the currency-partitioned CSR adjacency: build shape,
// lines_of() order parity, lazy generation-driven rebuild, the
// live-capacity contract (balance mutations never invalidate), and the
// build checked against a naive per-currency reference on generated
// and random ledgers and their clones.
#include "paths/graph_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "datagen/history.hpp"
#include "paths/trust_graph.hpp"
#include "util/rng.hpp"

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

/// The naive build the CSR index must reproduce: for each currency,
/// for each account in dense index order, filter lines_of().
struct ReferencePartition {
    Currency currency;
    std::vector<std::uint32_t> offsets;
    std::vector<GraphIndex::Edge> edges;
};

/// Every currency some trust line uses, sorted.
std::vector<Currency> currencies_of(const LedgerState& ledger) {
    std::vector<Currency> currencies;
    for (std::uint32_t i = 0; i < ledger.account_count(); ++i) {
        for (const ledger::TrustLine* line :
             ledger.lines_of(ledger.account_by_index(i))) {
            currencies.push_back(line->key().currency);
        }
    }
    std::sort(currencies.begin(), currencies.end());
    currencies.erase(std::unique(currencies.begin(), currencies.end()),
                     currencies.end());
    return currencies;
}

std::vector<ReferencePartition> reference_build(const LedgerState& ledger) {
    const auto account_count =
        static_cast<std::uint32_t>(ledger.account_count());
    std::vector<ReferencePartition> out;
    for (const Currency currency : currencies_of(ledger)) {
        ReferencePartition part{currency, {0}, {}};
        for (std::uint32_t i = 0; i < account_count; ++i) {
            const AccountID& node = ledger.account_by_index(i);
            for (const ledger::TrustLine* line : ledger.lines_of(node)) {
                if (!(line->key().currency == currency)) continue;
                const bool node_is_low = node == line->key().low;
                const ledger::AccountRoot* peer = ledger.account(
                    node_is_low ? line->key().high : line->key().low);
                part.edges.push_back(GraphIndex::Edge{
                    peer->index, line, node_is_low, peer->allows_rippling});
            }
            part.offsets.push_back(
                static_cast<std::uint32_t>(part.edges.size()));
        }
        out.push_back(std::move(part));
    }
    return out;
}

/// Every partition's offsets and every Edge field, in order.
void expect_matches_reference(const LedgerState& ledger) {
    GraphIndex index;
    index.build(ledger);
    const std::vector<ReferencePartition> reference = reference_build(ledger);
    ASSERT_EQ(index.partition_count(), reference.size());
    std::size_t edges = 0;
    for (const ReferencePartition& want : reference) {
        SCOPED_TRACE("currency " + want.currency.to_string());
        const GraphIndex::Partition* got = index.partition(want.currency);
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(got->currency, want.currency);
        EXPECT_EQ(got->offsets, want.offsets);
        ASSERT_EQ(got->edges.size(), want.edges.size());
        for (std::size_t k = 0; k < want.edges.size(); ++k) {
            const GraphIndex::Edge& g = got->edges[k];
            const GraphIndex::Edge& w = want.edges[k];
            ASSERT_TRUE(g.peer == w.peer && g.line == w.line &&
                        g.node_is_low == w.node_is_low &&
                        g.peer_ripples == w.peer_ripples)
                << "edge " << k << " differs";
        }
        edges += want.edges.size();
    }
    EXPECT_EQ(index.edge_count(), edges);
    EXPECT_EQ(index.edge_count(), 2 * ledger.trustline_count());
}

datagen::PopulationSnapshot small_population() {
    datagen::GeneratorConfig config;
    config.seed = 5;
    config.num_users = 500;
    config.num_gateways = 25;
    config.num_market_makers = 30;
    config.num_merchants = 80;
    config.num_hubs = 10;
    return datagen::generate_population_only(config);
}

/// A ledger whose accounts interleave many currencies: each new line
/// joins two random distinct accounts in a random currency, so an
/// account's lines_of() alternates currencies; every fifth account
/// gets no line at all.
LedgerState random_ledger(std::uint64_t seed) {
    static const std::array<const char*, 12> kCodes = {
        "USD", "EUR", "BTC", "JPY", "CNY", "XAU",
        "GBP", "KRW", "CCK", "MTL", "STR", "ETH"};
    util::Rng rng = util::RngStream(seed).derive("graph-index-oracle").rng();
    LedgerState ledger;
    const std::uint64_t accounts = rng.uniform_u64(2, 60);
    std::vector<AccountID> linked;
    for (std::uint64_t a = 0; a < accounts; ++a) {
        const AccountID id = AccountID::from_seed(
            "oracle:" + std::to_string(seed) + ":" + std::to_string(a));
        ledger.create_account(id, ledger::XrpAmount::from_xrp(10.0), false,
                              rng.bernoulli(0.5));
        if (a % 5 != 4) linked.push_back(id);
    }
    const std::uint64_t lines = rng.uniform_u64(0, 8 * accounts);
    for (std::uint64_t l = 0; l < lines; ++l) {
        const AccountID& from = linked[rng.uniform_u64(0, linked.size() - 1)];
        const AccountID& to = linked[rng.uniform_u64(0, linked.size() - 1)];
        if (from == to) continue;
        const Currency currency =
            Currency::from_code(kCodes[rng.uniform_u64(0, kCodes.size() - 1)]);
        ledger.set_trust(from, to, currency,
                         IouAmount::from_double(1.0 + static_cast<double>(l)));
    }
    return ledger;
}

TEST_F(GraphIndexTest, BuildMatchesPerCurrencyReference) {
    {
        SCOPED_TRACE("generated population");
        const datagen::PopulationSnapshot snapshot = small_population();
        GraphIndex index;
        index.build(snapshot.ledger);
        ASSERT_GE(index.partition_count(), 10u);
        ASSERT_NE(index.partition(Currency::from_code("MTL")), nullptr);
        ASSERT_NE(index.partition(Currency::from_code("CCK")), nullptr);
        expect_matches_reference(snapshot.ledger);
        expect_matches_reference(snapshot.ledger.clone());
    }
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE("random ledger seed " + std::to_string(seed));
        const LedgerState ledger = random_ledger(seed);
        expect_matches_reference(ledger);
        expect_matches_reference(ledger.clone());
    }
}

/// lines_of() of every account, as line keys (pointers differ between
/// copies of a ledger, keys do not).
std::vector<std::vector<ledger::TrustLineKey>> adjacency_keys(
    const LedgerState& ledger) {
    std::vector<std::vector<ledger::TrustLineKey>> out(ledger.account_count());
    for (std::uint32_t i = 0; i < ledger.account_count(); ++i) {
        for (const ledger::TrustLine* line :
             ledger.lines_of(ledger.account_by_index(i))) {
            out[i].push_back(line->key());
        }
    }
    return out;
}

/// The index of `ledger` with each TrustLine* replaced by its key.
struct KeyedEdge {
    std::uint32_t peer;
    ledger::TrustLineKey line;
    bool node_is_low;
    bool peer_ripples;
    friend bool operator==(const KeyedEdge&, const KeyedEdge&) = default;
};
struct KeyedPartition {
    Currency currency;
    std::vector<std::uint32_t> offsets;
    std::vector<KeyedEdge> edges;
    friend bool operator==(const KeyedPartition&,
                           const KeyedPartition&) = default;
};
std::vector<KeyedPartition> keyed_index(const LedgerState& ledger) {
    GraphIndex index;
    index.build(ledger);
    std::vector<KeyedPartition> out;
    for (const Currency currency : currencies_of(ledger)) {
        const GraphIndex::Partition* part = index.partition(currency);
        KeyedPartition keyed{part->currency, part->offsets, {}};
        for (const GraphIndex::Edge& e : part->edges) {
            keyed.edges.push_back(
                KeyedEdge{e.peer, e.line->key(), e.node_is_low, e.peer_ripples});
        }
        out.push_back(std::move(keyed));
    }
    return out;
}

TEST_F(GraphIndexTest, CloneOfCloneKeepsAdjacencyOrderAndIndex) {
    // clone() rebuilds adjacency in the copied line map's iteration
    // order, not the original's insertion order; datagen slices and
    // replay engines each build from a clone, so a clone of a clone
    // must reproduce the first clone's lines_of() order and index.
    const datagen::PopulationSnapshot snapshot = small_population();
    const LedgerState once = snapshot.ledger.clone();
    const LedgerState twice = once.clone();
    EXPECT_EQ(adjacency_keys(twice), adjacency_keys(once));
    EXPECT_EQ(keyed_index(twice), keyed_index(once));
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        SCOPED_TRACE("random ledger seed " + std::to_string(seed));
        const LedgerState ledger = random_ledger(seed);
        const LedgerState first = ledger.clone();
        const LedgerState second = first.clone();
        EXPECT_EQ(adjacency_keys(second), adjacency_keys(first));
        EXPECT_EQ(keyed_index(second), keyed_index(first));
    }
}

/// The ledger's index-space topology: every line's stored endpoint
/// indices and currency id resolve to its key, and every account's row
/// is what lines_of() returns.
void expect_line_slots_match_keys(const LedgerState& ledger) {
    std::size_t endpoints = 0;
    for (std::uint32_t i = 0; i < ledger.account_count(); ++i) {
        const AccountID& id = ledger.account_by_index(i);
        ASSERT_EQ(&ledger.lines_of(id), &ledger.lines_of_index(i));
        for (const ledger::TrustLine* line : ledger.lines_of_index(i)) {
            ASSERT_EQ(line->low_index(), ledger.account(line->key().low)->index);
            ASSERT_EQ(line->high_index(), ledger.account(line->key().high)->index);
            ASSERT_TRUE(line->low_index() == i || line->high_index() == i);
            ASSERT_LT(line->currency_id(), ledger.line_currencies().size());
            ASSERT_EQ(ledger.line_currencies()[line->currency_id()],
                      line->key().currency);
            ++endpoints;
        }
    }
    EXPECT_EQ(endpoints, 2 * ledger.trustline_count());
    std::vector<Currency> interned = ledger.line_currencies();
    std::sort(interned.begin(), interned.end());
    EXPECT_EQ(interned, currencies_of(ledger));
    EXPECT_TRUE(ledger.lines_of(AccountID::from_seed("not an account")).empty());
}

TEST_F(GraphIndexTest, LineSlotsMatchEndpointIndicesAcrossClones) {
    const auto check = [](const LedgerState& base) {
        {
            SCOPED_TRACE("base");
            expect_line_slots_match_keys(base);
        }
        const LedgerState once = base.clone();
        {
            SCOPED_TRACE("clone");
            expect_line_slots_match_keys(once);
        }
        SCOPED_TRACE("clone of clone");
        expect_line_slots_match_keys(once.clone());
    };
    {
        SCOPED_TRACE("generated population");
        check(small_population().ledger);
    }
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("random ledger seed " + std::to_string(seed));
        check(random_ledger(seed));
    }
}

}  // namespace
}  // namespace xrpl::paths
