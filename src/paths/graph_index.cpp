#include "paths/graph_index.hpp"

#include <algorithm>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/stopwatch.hpp"
#include "util/contract.hpp"

namespace xrpl::paths {

void GraphIndex::build(const ledger::LedgerState& ledger) {
    const auto account_count =
        static_cast<std::uint32_t>(ledger.account_count());

    // The topology is already in index space: each line carries its
    // endpoints' dense indices and its currency id, and the adjacency
    // is a row per dense index. So the build hashes no AccountID and
    // compares no Currency per edge; it only maps currency ids to
    // partition slots (partitions are sorted by currency) and reads one
    // rippling flag per account.
    const std::vector<ledger::Currency>& currencies = ledger.line_currencies();
    std::vector<std::uint32_t> slot_of_currency(currencies.size());
    {
        std::vector<std::uint32_t> by_currency(currencies.size());
        std::iota(by_currency.begin(), by_currency.end(), 0U);
        std::sort(by_currency.begin(), by_currency.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      return currencies[a] < currencies[b];
                  });
        for (std::uint32_t slot = 0; slot < by_currency.size(); ++slot) {
            slot_of_currency[by_currency[slot]] = slot;
        }
    }
    partitions_.clear();
    partitions_.resize(currencies.size());
    for (std::size_t id = 0; id < currencies.size(); ++id) {
        Partition& part = partitions_[slot_of_currency[id]];
        part.currency = currencies[id];
        part.offsets.assign(account_count + 1, 0);
    }
    std::vector<bool> ripples(account_count);
    for (std::uint32_t i = 0; i < account_count; ++i) {
        ripples[i] = ledger.root_by_index(i).allows_rippling;
    }

    // Pass 1 — one read of every line endpoint, in dense index order
    // (not the unordered line map), which keeps the build deterministic
    // and visits each line once per endpoint. It counts per-partition
    // degrees into the offset slots and keeps a compact record of the
    // endpoint, so the fill below touches no TrustLine.
    struct Visit {
        std::uint32_t peer;
        std::uint32_t slot;
        bool node_is_low;
    };
    std::vector<Visit> visits;
    visits.reserve(2 * ledger.trustline_count());
    for (std::uint32_t i = 0; i < account_count; ++i) {
        for (const ledger::TrustLine* line : ledger.lines_of_index(i)) {
            const bool node_is_low = line->low_index() == i;
            const std::uint32_t peer =
                node_is_low ? line->high_index() : line->low_index();
            const std::uint32_t slot = slot_of_currency[line->currency_id()];
            XRPL_ASSERT(peer < account_count,
                        "trust lines must connect existing accounts");
            // A self-loop would let the path finder "ripple" value
            // without moving it.
            XRPL_ASSERT(peer != i, "trust lines must connect two distinct accounts");
            visits.push_back(Visit{peer, slot, node_is_low});
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
    const Visit* visit = visits.data();
    for (std::uint32_t i = 0; i < account_count; ++i) {
        for (const ledger::TrustLine* line : ledger.lines_of_index(i)) {
            const Visit v = *visit++;
            partitions_[v.slot].edges[cursor[v.slot]++] =
                Edge{v.peer, line, v.node_is_low, ripples[v.peer]};
        }
    }

    built_ = true;
    built_generation_ = ledger.topology_generation();
}

bool GraphIndex::ensure(const ledger::LedgerState& ledger) {
    if (built_ && built_generation_ == ledger.topology_generation()) {
        static obs::Counter& hits = obs::counter("paths.index.hits");
        hits.add(1);
        return false;
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
    return true;
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
