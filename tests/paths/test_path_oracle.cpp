// Brute-force path oracle.
//
// PathFinder (bidirectional BFS) and WidestPathFinder (max-bottleneck
// Dijkstra) are checked against exhaustive enumeration of every simple
// path on seeded random trust graphs of at most ten accounts. The
// graphs mix rippling and non-rippling accounts, zero-limit and
// exhausted lines next to positive ones, lines in a second currency
// the search must ignore, and random exclusions. Edge capacity comes
// straight from LedgerState::trustline()->capacity_from(), so the
// oracle shares nothing with the CSR index the finders walk.
//
// Hand-built fixtures then pin the finders' check order (filter
// before pricing, DESIGN.md §16): an edge's capacity is read only
// after the index-only skip tests pass, counted per search through
// paths.capacity_reads, and each fixture's answer is checked against
// the same enumerator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ledger/ledger.hpp"
#include "obs/metrics.hpp"
#include "paths/path_finder.hpp"
#include "paths/trust_graph.hpp"
#include "paths/widest_path.hpp"
#include "util/rng.hpp"

namespace xrpl::paths {
namespace {

using ledger::AccountID;
using ledger::Currency;
using ledger::IouAmount;
using ledger::LedgerState;

const Currency kUsd = Currency::from_code("USD");
const Currency kEur = Currency::from_code("EUR");

/// A random trust graph plus its ground truth, account by account.
struct World {
    LedgerState state;
    std::vector<AccountID> accounts;
    std::vector<bool> ripples;
    std::vector<bool> excluded;
};

void random_world(World& world, util::Rng& rng) {
    const std::size_t n = rng.uniform_u64(2, 10);
    for (std::size_t i = 0; i < n; ++i) {
        const AccountID id = AccountID::from_seed(
            "oracle" + std::to_string(rng.uniform_u64(0, UINT32_MAX)));
        const bool ripples = rng.bernoulli(0.7);
        if (!world.state.create_account(id, ledger::XrpAmount::from_xrp(10.0),
                                        false, ripples)) {
            continue;  // seed collision: keep the first account
        }
        world.accounts.push_back(id);
        world.ripples.push_back(ripples);
    }
    const std::size_t m = world.accounts.size();
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = i + 1; j < m; ++j) {
            const AccountID& a = world.accounts[i];
            const AccountID& b = world.accounts[j];
            if (rng.bernoulli(0.15)) {
                world.state.set_trust(a, b, kEur, IouAmount::from_double(50.0));
            }
            if (!rng.bernoulli(0.45)) continue;
            // Limits from {0, 1..100}; zero makes a dead direction.
            const auto limit = [&] {
                return rng.bernoulli(0.25)
                           ? IouAmount{}
                           : IouAmount::from_double(
                                 static_cast<double>(rng.uniform_u64(1, 100)));
            };
            ledger::TrustLine& line = world.state.set_trust(b, a, kUsd, limit());
            if (rng.bernoulli(0.4)) world.state.set_trust(a, b, kUsd, limit());
            if (rng.bernoulli(0.35)) {
                // Move value along the line: sometimes all of it, which
                // exhausts one direction and opens the other.
                const AccountID& sender = rng.bernoulli(0.5) ? a : b;
                const IouAmount cap = line.capacity_from(sender);
                if (!cap.is_zero() && !cap.is_negative()) {
                    const IouAmount moved =
                        rng.bernoulli(0.5) ? cap
                                           : IouAmount::from_double(
                                                 cap.to_double() / 2.0);
                    EXPECT_TRUE(line.transfer_from(sender, moved));
                }
            }
        }
    }
    world.excluded.assign(m, false);
    for (std::size_t i = 0; i < m; ++i) world.excluded[i] = rng.bernoulli(0.15);
}

/// Directed USD capacity i -> j straight from the ledger (zero when no
/// line exists).
IouAmount capacity(const World& world, std::size_t i, std::size_t j) {
    const ledger::TrustLine* line =
        world.state.trustline(world.accounts[i], world.accounts[j], kUsd);
    return line == nullptr ? IouAmount{} : line->capacity_from(world.accounts[i]);
}

bool positive(const IouAmount& amount) {
    return !amount.is_zero() && !amount.is_negative();
}

/// Exhaustive enumeration over simple paths from -> to: the fewest
/// edges and the widest bottleneck among all valid paths.
struct Truth {
    std::optional<std::size_t> min_edges;
    std::optional<IouAmount> widest;
};

Truth enumerate(const World& world, std::size_t from, std::size_t to) {
    Truth truth;
    if (world.excluded[from] || world.excluded[to]) return truth;
    const std::size_t m = world.accounts.size();
    std::vector<bool> on_path(m, false);
    on_path[from] = true;
    const auto dfs = [&](const auto& self, std::size_t node, std::size_t edges,
                         IouAmount bottleneck) -> void {
        for (std::size_t next = 0; next < m; ++next) {
            if (on_path[next] || world.excluded[next]) continue;
            const IouAmount cap = capacity(world, node, next);
            if (!positive(cap)) continue;
            const IouAmount width =
                edges == 0 || cap < bottleneck ? cap : bottleneck;
            if (next == to) {
                if (!truth.min_edges || edges + 1 < *truth.min_edges) {
                    truth.min_edges = edges + 1;
                }
                if (!truth.widest || *truth.widest < width) truth.widest = width;
                continue;
            }
            if (!world.ripples[next]) continue;  // DefaultRipple: no interior
            on_path[next] = true;
            self(self, next, edges + 1, width);
            on_path[next] = false;
        }
    };
    dfs(dfs, from, 0, IouAmount{});
    return truth;
}

std::size_t position(const World& world, const AccountID& id) {
    const auto it = std::find(world.accounts.begin(), world.accounts.end(), id);
    EXPECT_NE(it, world.accounts.end());
    return static_cast<std::size_t>(it - world.accounts.begin());
}

/// A returned path must be a simple chain of positive-capacity edges
/// between the requested endpoints, with rippling, non-excluded
/// interior nodes; returns its actual bottleneck.
IouAmount check_path(const World& world, const TrustPath& path, std::size_t from,
                     std::size_t to) {
    EXPECT_GE(path.nodes.size(), 2u);
    EXPECT_EQ(path.nodes.front(), world.accounts[from]);
    EXPECT_EQ(path.nodes.back(), world.accounts[to]);
    std::vector<std::size_t> at;
    for (const AccountID& id : path.nodes) at.push_back(position(world, id));
    std::vector<std::size_t> sorted = at;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
        << "path revisits an account";
    IouAmount bottleneck;
    for (std::size_t k = 0; k + 1 < at.size(); ++k) {
        const IouAmount cap = capacity(world, at[k], at[k + 1]);
        EXPECT_TRUE(positive(cap)) << "edge " << k << " has no capacity";
        if (k == 0 || cap < bottleneck) bottleneck = cap;
    }
    for (const std::size_t node : at) EXPECT_FALSE(world.excluded[node]);
    for (std::size_t k = 1; k + 1 < at.size(); ++k) {
        EXPECT_TRUE(world.ripples[at[k]]) << "non-rippling interior node";
    }
    return bottleneck;
}

TrustGraph graph_of(const World& world) {
    TrustGraph graph(world.state);
    for (std::size_t i = 0; i < world.accounts.size(); ++i) {
        if (world.excluded[i]) graph.exclude(world.accounts[i]);
    }
    return graph;
}

constexpr int kWorlds = 2000;

TEST(PathOracleTest, ShortestPathFinderMatchesExhaustiveSearch) {
    util::Rng rng(20170605);
    // One finder across every world: scratch reuse across ledgers of
    // different sizes is part of what is under test.
    PathFinder finder;
    std::size_t found = 0;
    std::size_t missing = 0;
    for (int w = 0; w < kWorlds; ++w) {
        World world;
        random_world(world, rng);
        const TrustGraph graph = graph_of(world);
        const std::size_t m = world.accounts.size();
        PathFinderConfig config;
        config.max_intermediate_hops = rng.uniform_u64(0, 8);
        PathFinder capped(config);
        for (std::size_t from = 0; from < m; ++from) {
            for (std::size_t to = 0; to < m; ++to) {
                if (from == to) continue;
                const Truth truth = enumerate(world, from, to);
                SCOPED_TRACE("world " + std::to_string(w) + " pair " +
                             std::to_string(from) + "->" + std::to_string(to));

                // Uncapped (default cap 10 > the 8 interior nodes any
                // simple path here can have).
                const auto path =
                    finder.find(graph, world.accounts[from], world.accounts[to], kUsd);
                ASSERT_EQ(path.has_value(), truth.min_edges.has_value());
                if (!path) {
                    ++missing;
                    continue;
                }
                ++found;
                EXPECT_EQ(path->nodes.size() - 1, *truth.min_edges);
                EXPECT_EQ(check_path(world, *path, from, to), path->capacity);

                // Capped: a path exists exactly when the shortest one
                // fits, and it is that short.
                const auto short_path =
                    capped.find(graph, world.accounts[from], world.accounts[to], kUsd);
                const bool fits = *truth.min_edges - 1 <= config.max_intermediate_hops;
                ASSERT_EQ(short_path.has_value(), fits);
                if (short_path) {
                    EXPECT_EQ(short_path->nodes.size() - 1, *truth.min_edges);
                    EXPECT_EQ(check_path(world, *short_path, from, to),
                              short_path->capacity);
                }
            }
        }
    }
    // The generator must exercise both outcomes heavily.
    EXPECT_GT(found, 1000u);
    EXPECT_GT(missing, 1000u);
}

TEST(PathOracleTest, WidestPathFinderMatchesExhaustiveMaxMin) {
    util::Rng rng(20150207);
    WidestPathFinder finder;  // default cap 10: never binds on <= 10 accounts
    std::size_t found = 0;
    for (int w = 0; w < kWorlds; ++w) {
        World world;
        random_world(world, rng);
        const TrustGraph graph = graph_of(world);
        const std::size_t m = world.accounts.size();
        for (std::size_t from = 0; from < m; ++from) {
            for (std::size_t to = 0; to < m; ++to) {
                if (from == to) continue;
                const Truth truth = enumerate(world, from, to);
                SCOPED_TRACE("world " + std::to_string(w) + " pair " +
                             std::to_string(from) + "->" + std::to_string(to));
                const auto path =
                    finder.find(graph, world.accounts[from], world.accounts[to], kUsd);
                ASSERT_EQ(path.has_value(), truth.widest.has_value());
                if (!path) continue;
                ++found;
                EXPECT_EQ(path->capacity, *truth.widest);
                EXPECT_EQ(check_path(world, *path, from, to), path->capacity);
            }
        }
    }
    EXPECT_GT(found, 1000u);
}

// --- Filter before pricing ------------------------------------------

std::size_t add_account(World& world, const std::string& seed, bool ripples) {
    const AccountID id = AccountID::from_seed("check-order-" + seed);
    EXPECT_TRUE(world.state.create_account(id, ledger::XrpAmount::from_xrp(10.0),
                                           false, ripples));
    world.accounts.push_back(id);
    world.ripples.push_back(ripples);
    world.excluded.push_back(false);
    return world.accounts.size() - 1;
}

/// USD capacity `limit` from account i to account j (j trusts i).
void open_edge(World& world, std::size_t i, std::size_t j, double limit) {
    world.state.set_trust(world.accounts[j], world.accounts[i], kUsd,
                          IouAmount::from_double(limit));
}

void open_both(World& world, std::size_t i, std::size_t j) {
    open_edge(world, i, j, 100.0);
    open_edge(world, j, i, 100.0);
}

/// Runs `finder.find(from -> to)` with metric recording on; returns
/// the path and the search's paths.capacity_reads.
template <class Finder>
std::pair<std::optional<TrustPath>, std::uint64_t> priced_find(
    Finder& finder, const TrustGraph& graph, const World& world,
    std::size_t from, std::size_t to) {
    (void)graph.index();  // build outside the measured search
    const bool was_enabled = obs::enabled();
    obs::set_enabled(true);
    obs::Counter& reads = obs::counter("paths.capacity_reads");
    const std::uint64_t before = reads.value();
    auto path = finder.find(graph, world.accounts[from], world.accounts[to], kUsd);
    const std::uint64_t priced = reads.value() - before;
    obs::set_enabled(was_enabled);
    return {std::move(path), priced};
}

std::vector<std::size_t> positions(const World& world, const TrustPath& path) {
    std::vector<std::size_t> at;
    for (const AccountID& id : path.nodes) at.push_back(position(world, id));
    return at;
}

TEST(PathOracleTest, StarSearchPricesOnlyUsableEdges) {
    // One rippling gateway, 2,000 non-rippling users: the gateway's
    // expansion must skip every user but the endpoints unpriced.
    World world;
    const std::size_t gateway = add_account(world, "gateway", true);
    for (int u = 0; u < 2'000; ++u) {
        open_both(world, add_account(world, "user" + std::to_string(u), false),
                  gateway);
    }
    const std::size_t from = 18;
    const std::size_t to = 1'524;
    const Truth truth = enumerate(world, from, to);
    ASSERT_EQ(truth.min_edges, 2u);
    const TrustGraph graph = graph_of(world);

    PathFinder shortest;
    const auto [path, reads] = priced_find(shortest, graph, world, from, to);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(positions(world, *path), (std::vector<std::size_t>{from, gateway, to}));
    EXPECT_EQ(check_path(world, *path, from, to), path->capacity);
    EXPECT_LE(reads, 8u);

    WidestPathFinder widest;
    const auto [wide, wide_reads] = priced_find(widest, graph, world, from, to);
    ASSERT_TRUE(wide.has_value());
    EXPECT_EQ(wide->capacity, *truth.widest);
    EXPECT_EQ(check_path(world, *wide, from, to), wide->capacity);
    EXPECT_LE(wide_reads, 8u);
}

TEST(PathOracleTest, ZeroCapacityEdgeBetweenFrontiersIsNotTheMeeting) {
    // s has two forward children, so the backward side expands d, then
    // b. b's edge to the forward-marked a is dead in the a -> b
    // direction (only b -> a is open): the frontiers must meet later,
    // on c -> a, not there.
    World world;
    const std::size_t s = add_account(world, "s", true);
    const std::size_t a = add_account(world, "a", true);
    const std::size_t a2 = add_account(world, "a2", true);
    const std::size_t b = add_account(world, "b", true);
    const std::size_t c = add_account(world, "c", true);
    const std::size_t d = add_account(world, "d", true);
    open_both(world, s, a);
    open_both(world, s, a2);
    open_both(world, b, d);
    open_edge(world, b, a, 100.0);
    open_both(world, a, c);
    open_both(world, c, b);
    const Truth truth = enumerate(world, s, d);
    ASSERT_EQ(truth.min_edges, 4u);

    PathFinder finder;
    const auto [path, reads] = priced_find(finder, graph_of(world), world, s, d);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(positions(world, *path), (std::vector<std::size_t>{s, a, c, b, d}));
    EXPECT_EQ(check_path(world, *path, s, d), path->capacity);
    // s->a, s->a2, d<-b, b<-a (zero), b<-c, c<-a: d and b's edges back
    // into the backward side are never priced.
    EXPECT_EQ(reads, 6u);
}

TEST(PathOracleTest, EdgeBackIntoOwnSideIsNotPricedOrRemarked) {
    // a and b both sit on the forward side when it expands them; the
    // a-b edge (and both edges back to s) must be skipped unpriced,
    // and b must keep its depth-1 label from s.
    World world;
    const std::size_t s = add_account(world, "s", true);
    const std::size_t a = add_account(world, "a", true);
    const std::size_t b = add_account(world, "b", true);
    const std::size_t x = add_account(world, "x", true);
    const std::size_t y = add_account(world, "y", true);
    const std::size_t d = add_account(world, "d", true);
    open_both(world, s, a);
    open_both(world, s, b);
    open_both(world, a, b);
    open_both(world, b, x);
    open_both(world, d, x);
    open_both(world, d, y);
    const Truth truth = enumerate(world, s, d);
    ASSERT_EQ(truth.min_edges, 3u);

    PathFinder finder;
    const auto [path, reads] = priced_find(finder, graph_of(world), world, s, d);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(positions(world, *path), (std::vector<std::size_t>{s, b, x, d}));
    EXPECT_EQ(check_path(world, *path, s, d), path->capacity);
    // s->a, s->b, x<-d, y<-d, then b->x meets; a's and b's edges back
    // into the forward side cost nothing.
    EXPECT_EQ(reads, 5u);
}

TEST(PathOracleTest, WidestSkipsSettledPeersUnpriced) {
    World world;
    const std::size_t s = add_account(world, "s", true);
    const std::size_t a = add_account(world, "a", true);
    const std::size_t d = add_account(world, "d", true);
    open_both(world, s, a);
    open_edge(world, a, d, 40.0);
    open_edge(world, d, a, 40.0);
    const Truth truth = enumerate(world, s, d);
    ASSERT_TRUE(truth.widest.has_value());

    WidestPathFinder finder;
    const auto [path, reads] = priced_find(finder, graph_of(world), world, s, d);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(positions(world, *path), (std::vector<std::size_t>{s, a, d}));
    EXPECT_EQ(path->capacity, *truth.widest);
    EXPECT_EQ(check_path(world, *path, s, d), path->capacity);
    // s->a, then a->d; a's edge back to the settled s is not priced.
    EXPECT_EQ(reads, 2u);
}

TEST(PathOracleTest, WidestZeroCapacityEdgeLeavesDestinationUnlabelled) {
    // a -> d is dead (only d -> a is open), so d is unreachable: the
    // rejected edge must not stamp a label on d, which would read as
    // found.
    World world;
    const std::size_t s = add_account(world, "s", true);
    const std::size_t a = add_account(world, "a", true);
    const std::size_t d = add_account(world, "d", true);
    open_both(world, s, a);
    open_edge(world, d, a, 100.0);
    const TrustGraph graph = graph_of(world);
    ASSERT_FALSE(enumerate(world, s, d).widest.has_value());

    WidestPathFinder finder;
    const auto [path, reads] = priced_find(finder, graph, world, s, d);
    EXPECT_FALSE(path.has_value());
    EXPECT_EQ(reads, 2u);  // s->a, then a->d (zero)

    // The reverse direction is open; the same finder finds it.
    const Truth back = enumerate(world, d, s);
    ASSERT_TRUE(back.widest.has_value());
    const auto reverse = finder.find(graph, world.accounts[d], world.accounts[s], kUsd);
    ASSERT_TRUE(reverse.has_value());
    EXPECT_EQ(reverse->capacity, *back.widest);
    EXPECT_EQ(check_path(world, *reverse, d, s), reverse->capacity);
}

}  // namespace
}  // namespace xrpl::paths
