#include "paths/path_finder.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "paths/graph_index.hpp"

namespace xrpl::paths {

namespace {

using ledger::AccountID;
using ledger::IouAmount;
using ledger::LedgerState;

/// Bottleneck capacity of a node path.
IouAmount path_capacity(const LedgerState& ledger,
                        const std::vector<AccountID>& nodes,
                        ledger::Currency currency) {
    IouAmount best;
    bool first = true;
    for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
        const ledger::TrustLine* line =
            ledger.trustline(nodes[i], nodes[i + 1], currency);
        if (line == nullptr) return {};
        const IouAmount cap = line->capacity_from(nodes[i]);
        if (first || cap < best) {
            best = cap;
            first = false;
        }
    }
    return best;
}

}  // namespace

std::optional<TrustPath> PathFinder::run_search(
    const TrustGraph& graph, const GraphIndex::Partition* part,
    const AccountID& from, const AccountID& to, std::uint32_t src_index,
    std::uint32_t dst_index, ledger::Currency currency) {
    const LedgerState& ledger = graph.ledger();

    if (nodes_.size() < ledger.account_count()) {
        nodes_.resize(ledger.account_count());
    }
    ++epoch_;

    auto state = [&](std::uint32_t index) -> NodeState& { return nodes_[index]; };
    auto mark = [&](std::uint32_t index, std::uint8_t direction,
                    std::uint32_t parent, std::uint8_t depth) {
        NodeState& ns = state(index);
        ns.epoch = epoch_;
        ns.direction = direction;
        ns.parent = parent;
        ns.depth = depth;
    };
    auto seen = [&](std::uint32_t index) {
        return state(index).epoch == epoch_;
    };

    forward_.assign(1, src_index);
    backward_.assign(1, dst_index);
    mark(src_index, 1, src_index, 0);
    mark(dst_index, 2, dst_index, 0);

    // Total path length cap: intermediate hops + the two endpoints.
    const std::size_t max_edges = config_.max_intermediate_hops + 1;
    std::size_t visited = 2;
    std::size_t capacity_reads = 0;
    std::optional<std::uint32_t> meeting;

    std::uint8_t forward_depth = 0;
    std::uint8_t backward_depth = 0;

    while (!forward_.empty() && !backward_.empty() && !meeting) {
        if (static_cast<std::size_t>(forward_depth) +
                static_cast<std::size_t>(backward_depth) >= max_edges) {
            break;
        }
        if (visited > config_.max_visited) break;

        // Expand the smaller frontier one full level.
        const bool expand_forward = forward_.size() <= backward_.size();
        std::vector<std::uint32_t>& frontier = expand_forward ? forward_ : backward_;
        const std::uint8_t direction = expand_forward ? 1 : 2;
        const std::uint8_t next_depth =
            static_cast<std::uint8_t>((expand_forward ? forward_depth
                                                      : backward_depth) + 1);

        next_frontier_.clear();
        for (const std::uint32_t node_index : frontier) {
            if (meeting || part == nullptr) break;
            for (const GraphIndex::Edge& edge : part->edges_of(node_index)) {
                if (meeting) break;
                const std::uint32_t peer_index = edge.peer;
                // Filter before pricing: the pure skip tests that read
                // only an index run first. DefaultRipple: only
                // rippling-enabled accounts may sit in the interior of
                // a path; the two endpoints always may.
                if (!edge.peer_ripples && peer_index != src_index &&
                    peer_index != dst_index) {
                    continue;
                }
                if (graph.is_excluded_index(peer_index)) continue;
                const bool peer_seen = seen(peer_index);
                if (peer_seen && state(peer_index).direction == direction) continue;
                // Only an edge that could be marked or bridge the two
                // frontiers is priced. Forward, value leaves the node
                // (node -> peer); backward, it arrives (peer -> node).
                ++capacity_reads;
                const IouAmount cap = edge.line->directed_capacity(
                    edge.node_is_low == expand_forward);
                if (cap.is_zero() || cap.is_negative()) continue;
                if (peer_seen) {
                    // Frontiers met: peer was reached from the other
                    // side. Record the bridging edge.
                    mark_meeting_ = {node_index, peer_index, direction};
                    meeting = peer_index;
                    continue;
                }
                mark(peer_index, direction, node_index, next_depth);
                next_frontier_.push_back(peer_index);
                ++visited;
            }
        }
        frontier.swap(next_frontier_);
        if (expand_forward) {
            forward_depth = next_depth;
        } else {
            backward_depth = next_depth;
        }
    }

    // One add per search with the whole BFS's totals, not one per
    // visit or edge — find() is on the payment hot path.
    static obs::Counter& nodes_expanded = obs::counter("paths.nodes_expanded");
    static obs::Counter& capacity_read_total = obs::counter("paths.capacity_reads");
    nodes_expanded.add(visited);
    capacity_read_total.add(capacity_reads);

    if (!meeting) return std::nullopt;

    // Reconstruct: walk from the touch point back to both endpoints.
    const auto [near_index, far_index, bridge_direction] = mark_meeting_;
    // `far_index` holds the node already labeled by the *other* side.
    // Forward half: chain of parents with direction 1; backward half:
    // chain with direction 2 (parents point toward the destination).
    std::vector<AccountID> forward_part;   // sender ... bridgeA
    std::vector<AccountID> backward_part;  // bridgeB ... receiver

    auto collect = [&](std::uint32_t start, std::uint8_t direction,
                       std::vector<AccountID>& out) {
        std::uint32_t cursor = start;
        while (true) {
            out.push_back(ledger.account_by_index(cursor));
            const NodeState& ns = state(cursor);
            if (ns.parent == cursor || ns.direction != direction) break;
            if (ns.depth == 0) break;
            cursor = ns.parent;
        }
    };

    const std::uint32_t forward_end = bridge_direction == 1 ? near_index : far_index;
    const std::uint32_t backward_start = bridge_direction == 1 ? far_index : near_index;

    collect(forward_end, 1, forward_part);
    std::reverse(forward_part.begin(), forward_part.end());
    collect(backward_start, 2, backward_part);

    TrustPath path;
    path.nodes = std::move(forward_part);
    path.nodes.insert(path.nodes.end(), backward_part.begin(), backward_part.end());

    if (path.nodes.size() < 2 || path.nodes.front() != from ||
        path.nodes.back() != to) {
        return std::nullopt;
    }
    if (path.nodes.size() - 2 > config_.max_intermediate_hops) return std::nullopt;

    path.capacity = path_capacity(ledger, path.nodes, currency);
    if (path.capacity.is_zero() || path.capacity.is_negative()) return std::nullopt;
    return path;
}

std::optional<TrustPath> PathFinder::find(const TrustGraph& graph,
                                          const AccountID& from,
                                          const AccountID& to,
                                          ledger::Currency currency) {
    const LedgerState& ledger = graph.ledger();
    const ledger::AccountRoot* src = ledger.account(from);
    const ledger::AccountRoot* dst = ledger.account(to);
    if (src == nullptr || dst == nullptr) return std::nullopt;
    if (graph.is_excluded(from) || graph.is_excluded(to)) return std::nullopt;

    if (from == to) return std::nullopt;

    // A null partition (no line in this currency) walks an empty graph.
    return run_search(graph, graph.index().partition(currency), from, to,
                      src->index, dst->index, currency);
}

}  // namespace xrpl::paths
