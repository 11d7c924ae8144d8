#include "paths/graph_index.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/stopwatch.hpp"
#include "util/contract.hpp"

namespace xrpl::paths {

void GraphIndex::build(const ledger::LedgerState& ledger) {
    const auto account_count =
        static_cast<std::uint32_t>(ledger.account_count());

    // Every pass walks accounts in dense index order (not the unordered
    // line map), which keeps the build deterministic and gives each
    // line exactly two visits, one per endpoint. lines_of() is a hash
    // lookup, so it is done once per account here, not once per pass.
    std::vector<const std::vector<ledger::TrustLine*>*> rows(account_count);
    for (std::uint32_t i = 0; i < account_count; ++i) {
        rows[i] = &ledger.lines_of(ledger.account_by_index(i));
    }

    // Pass 1 — discover the currency set by sorted insert: a ledger has
    // a few dozen currencies against ~10^5 line endpoints, so sorting
    // every endpoint's currency would be wasted work.
    std::vector<ledger::Currency> currencies;
    for (const auto* row : rows) {
        for (const ledger::TrustLine* line : *row) {
            const ledger::Currency currency = line->key().currency;
            const auto it = std::lower_bound(currencies.begin(),
                                             currencies.end(), currency);
            if (it == currencies.end() || !(*it == currency)) {
                currencies.insert(it, currency);
            }
        }
    }

    partitions_.clear();
    partitions_.resize(currencies.size());
    for (std::size_t p = 0; p < currencies.size(); ++p) {
        partitions_[p].currency = currencies[p];
        partitions_[p].offsets.assign(account_count + 1, 0);
    }

    // Pass 2 — per-partition degree counts into the offset slots. The
    // partition of every line endpoint is kept, in visit order, so the
    // fill below needs no second currency search.
    std::vector<std::uint32_t> slot_of_edge;
    slot_of_edge.reserve(2 * ledger.trustline_count());
    for (std::uint32_t i = 0; i < account_count; ++i) {
        for (const ledger::TrustLine* line : *rows[i]) {
            const auto slot = static_cast<std::uint32_t>(
                std::lower_bound(currencies.begin(), currencies.end(),
                                 line->key().currency) -
                currencies.begin());
            slot_of_edge.push_back(slot);
            ++partitions_[slot].offsets[i + 1];
        }
    }
    for (Partition& part : partitions_) {
        for (std::size_t i = 1; i < part.offsets.size(); ++i) {
            part.offsets[i] += part.offsets[i - 1];
        }
        part.edges.resize(part.offsets.back());
    }

    // Fill — one walk, one forward write cursor per partition. Rows are
    // prefix sums and nodes are visited in index order, so node i's
    // edges in partition p land exactly in [offsets[i], offsets[i+1]).
    // Per-node edge order within a partition is lines_of() order, so
    // searches break ties in adjacency order and the Table II goldens
    // stay put.
    std::vector<std::uint32_t> cursor(partitions_.size(), 0);
    std::size_t visit = 0;
    for (std::uint32_t i = 0; i < account_count; ++i) {
        const ledger::AccountID& node = ledger.account_by_index(i);
        for (const ledger::TrustLine* line : *rows[i]) {
            const std::uint32_t slot = slot_of_edge[visit++];
            const bool node_is_low = node == line->key().low;
            const ledger::AccountID& peer_id =
                node_is_low ? line->key().high : line->key().low;
            const ledger::AccountRoot* peer = ledger.account(peer_id);
            XRPL_ASSERT(peer != nullptr,
                        "trust lines must connect existing accounts");
            // A self-loop would let the path finder "ripple" value
            // without moving it.
            XRPL_ASSERT(peer->index != i,
                        "trust lines must connect two distinct accounts");
            partitions_[slot].edges[cursor[slot]++] =
                Edge{peer->index, line, node_is_low, peer->allows_rippling};
        }
    }

    built_ = true;
    built_generation_ = ledger.topology_generation();
}

void GraphIndex::ensure(const ledger::LedgerState& ledger) {
    if (built_ && built_generation_ == ledger.topology_generation()) {
        static obs::Counter& hits = obs::counter("paths.index.hits");
        hits.add(1);
        return;
    }
    static obs::Counter& builds = obs::counter("paths.index.builds");
    static obs::Counter& rebuilds = obs::counter("paths.index.rebuilds");
    static obs::Histogram& build_ns = obs::histogram("paths.index.build_ns");
    const bool rebuild = built_;
    const obs::Stopwatch watch;
    build(ledger);
    build_ns.record(watch.elapsed_ns());
    builds.add(1);
    if (rebuild) rebuilds.add(1);
}

const GraphIndex::Partition* GraphIndex::partition(
    ledger::Currency currency) const noexcept {
    const auto it = std::lower_bound(
        partitions_.begin(), partitions_.end(), currency,
        [](const Partition& part, ledger::Currency c) {
            return part.currency < c;
        });
    if (it == partitions_.end() || !(it->currency == currency)) return nullptr;
    return &*it;
}

std::size_t GraphIndex::edge_count() const noexcept {
    std::size_t total = 0;
    for (const Partition& part : partitions_) total += part.edges.size();
    return total;
}

}  // namespace xrpl::paths
