// Capacity-aware shortest-path search over the trust graph.
//
// Finds a shortest trust path carrying positive capacity from sender
// to receiver in one currency, using bidirectional BFS (gateways have
// enormous degree; expanding the smaller frontier keeps searches to a
// few hundred node visits on realistic topologies). The payment
// engine calls this repeatedly — executing each found path — to build
// the parallel-path splits of Fig 6(b).
//
// The BFS walks the TrustGraph's CSR GraphIndex: flat index-space
// spans of one currency partition, no hashing and no account()
// lookups in the inner loop. Filter before pricing: each edge first
// passes the skip tests that only read an index (DefaultRipple from
// the edge's cached bit, exclusion, "already marked by this side"),
// and only an edge that could still be marked or be the meeting edge
// has its decimal capacity read live. Every test is a pure skip, so
// the order changes no search; paths.capacity_reads counts the reads
// (DESIGN.md §16).
#pragma once

#include <optional>
#include <vector>

#include "ledger/amount.hpp"
#include "ledger/types.hpp"
#include "paths/trust_graph.hpp"

namespace xrpl::paths {

/// A discovered trust path: the full node sequence, endpoints
/// included, plus its bottleneck capacity.
struct TrustPath {
    std::vector<ledger::AccountID> nodes;  // [sender, ..., receiver]
    ledger::IouAmount capacity;            // min line capacity along the path

    /// Intermediate node count (paper's Fig 6(a) x-axis).
    [[nodiscard]] std::size_t intermediate_hops() const noexcept {
        return nodes.size() >= 2 ? nodes.size() - 2 : 0;
    }
};

struct PathFinderConfig {
    /// Maximum number of intermediate nodes to consider.
    std::size_t max_intermediate_hops = 10;
    /// Give up after visiting this many nodes (defensive cap).
    std::size_t max_visited = 50'000;
};

/// Stateless-but-buffered path searcher. Reuses internal scratch
/// buffers between calls; not thread-safe, create one per thread.
class PathFinder {
public:
    explicit PathFinder(PathFinderConfig config = {}) noexcept : config_(config) {}

    /// Shortest positive-capacity path from `from` to `to` in
    /// `currency`, or nullopt. `graph` exclusions are honored.
    [[nodiscard]] std::optional<TrustPath> find(const TrustGraph& graph,
                                                const ledger::AccountID& from,
                                                const ledger::AccountID& to,
                                                ledger::Currency currency);

    [[nodiscard]] const PathFinderConfig& config() const noexcept { return config_; }

private:
    /// The bidirectional BFS over `part` (the currency's CSR table;
    /// null when no line in that currency exists) between the dense
    /// account indices of `from` and `to`.
    std::optional<TrustPath> run_search(const TrustGraph& graph,
                                        const GraphIndex::Partition* part,
                                        const ledger::AccountID& from,
                                        const ledger::AccountID& to,
                                        std::uint32_t src_index,
                                        std::uint32_t dst_index,
                                        ledger::Currency currency);

    PathFinderConfig config_;

    // Scratch state, keyed by the ledger's dense account index.
    // `visit_epoch_` avoids clearing between searches.
    struct NodeState {
        std::uint64_t epoch = 0;
        std::uint8_t direction = 0;  // 1 = forward, 2 = backward
        std::uint32_t parent = 0;    // dense index of predecessor/successor
        std::uint8_t depth = 0;
    };
    std::vector<NodeState> nodes_;
    std::uint64_t epoch_ = 0;

    // The two frontiers and the level being built, reused and swapped
    // level by level (no per-search allocation once warm).
    std::vector<std::uint32_t> forward_;
    std::vector<std::uint32_t> backward_;
    std::vector<std::uint32_t> next_frontier_;

    /// The bridging edge where the two frontiers met.
    struct Meeting {
        std::uint32_t near_index = 0;  // node on the expanding side
        std::uint32_t far_index = 0;   // node already labeled by the other side
        std::uint8_t direction = 0;    // direction of the expanding side
    };
    Meeting mark_meeting_;
};

}  // namespace xrpl::paths
