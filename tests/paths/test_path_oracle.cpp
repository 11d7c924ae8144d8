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
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ledger/ledger.hpp"
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

}  // namespace
}  // namespace xrpl::paths
