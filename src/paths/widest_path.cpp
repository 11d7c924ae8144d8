#include "paths/widest_path.hpp"

#include <algorithm>
#include <queue>

#include "obs/metrics.hpp"
#include "paths/graph_index.hpp"
#include "util/contract.hpp"

namespace xrpl::paths {

namespace {

using ledger::AccountID;
using ledger::IouAmount;
using ledger::LedgerState;

struct QueueEntry {
    IouAmount bottleneck;
    std::uint32_t index;

    bool operator<(const QueueEntry& other) const noexcept {
        // priority_queue is a max-heap on operator<.
        return bottleneck < other.bottleneck;
    }
};

}  // namespace

std::optional<TrustPath> WidestPathFinder::run_search(
    const TrustGraph& graph, const GraphIndex::Partition* part,
    const AccountID& from, const AccountID& to, std::uint32_t src_index,
    std::uint32_t dst_index) {
    const LedgerState& ledger = graph.ledger();

    if (labels_.size() < ledger.account_count()) {
        labels_.resize(ledger.account_count());
    }
    ++epoch_;

    auto label_of = [&](std::uint32_t index) -> NodeLabel& {
        NodeLabel& label = labels_[index];
        if (label.epoch != epoch_) {
            label = NodeLabel{};
            label.epoch = epoch_;
        }
        return label;
    };
    auto seen = [&](std::uint32_t index) {
        return labels_[index].epoch == epoch_;
    };
    // Read-only probe: label_of() would stamp a label on a node the
    // search never relaxes (and a stamped destination reads as found).
    auto settled = [&](std::uint32_t index) {
        const NodeLabel& label = labels_[index];
        return label.epoch == epoch_ && label.settled;
    };

    std::priority_queue<QueueEntry> frontier;

    NodeLabel& origin = label_of(src_index);
    origin.best = IouAmount::from_double(1e90);  // effectively infinite
    origin.parent = src_index;
    frontier.push(QueueEntry{origin.best, src_index});

    std::size_t visited = 0;
    std::size_t capacity_reads = 0;
    bool gave_up = false;
    while (!frontier.empty()) {
        const QueueEntry top = frontier.top();
        frontier.pop();
        NodeLabel& label = label_of(top.index);
        if (label.settled) continue;
        if (!(top.bottleneck == label.best)) continue;  // stale entry
        label.settled = true;
        if (top.index == dst_index) break;
        if (++visited > config_.max_visited) {
            gave_up = true;
            break;
        }
        if (label.depth >= config_.max_intermediate_hops + 1) continue;
        if (part == nullptr) continue;

        for (const GraphIndex::Edge& edge : part->edges_of(top.index)) {
            const std::uint32_t peer_index = edge.peer;
            // Filter before pricing: the index-only skip tests first.
            if (!edge.peer_ripples && peer_index != dst_index) continue;
            if (graph.is_excluded_index(peer_index)) continue;
            if (settled(peer_index)) continue;
            // Capacity out of the settled node, read live.
            ++capacity_reads;
            const IouAmount cap = edge.line->directed_capacity(edge.node_is_low);
            if (cap.is_zero() || cap.is_negative()) continue;
            const IouAmount bottleneck = cap < label.best ? cap : label.best;
            if (bottleneck.is_zero() || bottleneck.is_negative()) continue;
            NodeLabel& peer_label = label_of(peer_index);
            if (peer_label.best.is_zero() || peer_label.best < bottleneck) {
                peer_label.best = bottleneck;
                peer_label.parent = top.index;
                peer_label.depth = static_cast<std::uint8_t>(label.depth + 1);
                frontier.push(QueueEntry{bottleneck, peer_index});
            }
        }
    }

    // One add per search, like PathFinder's counters.
    static obs::Counter& capacity_read_total = obs::counter("paths.capacity_reads");
    capacity_read_total.add(capacity_reads);

    if (gave_up || !seen(dst_index)) return std::nullopt;

    TrustPath path;
    path.capacity = labels_[dst_index].best;
    std::uint32_t cursor = dst_index;
    while (true) {
        path.nodes.push_back(ledger.account_by_index(cursor));
        const NodeLabel& label = labels_[cursor];
        if (label.parent == cursor) break;
        cursor = label.parent;
    }
    std::reverse(path.nodes.begin(), path.nodes.end());
    if (path.nodes.front() != from || path.nodes.back() != to) return std::nullopt;
    if (path.nodes.size() - 2 > config_.max_intermediate_hops) return std::nullopt;
    // A settled destination label is the min over positive edge
    // capacities along the path — the capacity the payment engine will
    // try to move. Zero or negative would send nothing (or reverse a
    // trust balance).
    XRPL_INVARIANT(!path.capacity.is_zero() && !path.capacity.is_negative(),
                   "widest-path bottleneck capacity must be positive");
    return path;
}

std::optional<TrustPath> WidestPathFinder::find(const TrustGraph& graph,
                                                const AccountID& from,
                                                const AccountID& to,
                                                ledger::Currency currency) {
    const LedgerState& ledger = graph.ledger();
    const ledger::AccountRoot* src = ledger.account(from);
    const ledger::AccountRoot* dst = ledger.account(to);
    if (src == nullptr || dst == nullptr || from == to) return std::nullopt;
    if (graph.is_excluded(from) || graph.is_excluded(to)) return std::nullopt;

    return run_search(graph, graph.index().partition(currency), from, to,
                      src->index, dst->index);
}

}  // namespace xrpl::paths
