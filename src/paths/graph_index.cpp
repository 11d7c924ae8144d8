#include "paths/graph_index.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/stopwatch.hpp"
#include "util/contract.hpp"

namespace xrpl::paths {

void GraphIndex::build(const ledger::LedgerState& ledger) {
    const auto account_count =
        static_cast<std::uint32_t>(ledger.account_count());

    // Pass 1 — discover the currency set. Iterating accounts in dense
    // index order (not the unordered line map) keeps the build
    // deterministic and gives each line exactly two visits, one per
    // endpoint.
    std::vector<ledger::Currency> currencies;
    for (std::uint32_t i = 0; i < account_count; ++i) {
        for (const ledger::TrustLine* line :
             ledger.lines_of(ledger.account_by_index(i))) {
            currencies.push_back(line->key().currency);
        }
    }
    std::sort(currencies.begin(), currencies.end());
    currencies.erase(std::unique(currencies.begin(), currencies.end()),
                     currencies.end());

    partitions_.clear();
    partitions_.resize(currencies.size());
    for (std::size_t p = 0; p < currencies.size(); ++p) {
        partitions_[p].currency = currencies[p];
        partitions_[p].offsets.assign(account_count + 1, 0);
    }
    const auto part_of = [&](ledger::Currency currency) -> Partition& {
        const auto it = std::lower_bound(
            currencies.begin(), currencies.end(), currency);
        return partitions_[static_cast<std::size_t>(it - currencies.begin())];
    };

    // Pass 2 — per-partition degree counts into the offset slots.
    for (std::uint32_t i = 0; i < account_count; ++i) {
        for (const ledger::TrustLine* line :
             ledger.lines_of(ledger.account_by_index(i))) {
            ++part_of(line->key().currency).offsets[i + 1];
        }
    }
    for (Partition& part : partitions_) {
        for (std::size_t i = 1; i < part.offsets.size(); ++i) {
            part.offsets[i] += part.offsets[i - 1];
        }
        part.edges.resize(part.offsets.back());
    }

    // Pass 3 — fill. Per-node edge order within a partition preserves
    // lines_of() insertion order, so searches break ties in ledger
    // insertion order and the Table II goldens stay put.
    std::vector<std::uint32_t> cursor;
    for (Partition& part : partitions_) {
        cursor.assign(part.offsets.begin(), part.offsets.end() - 1);
        // Reuse: each partition fills from its own row pointers.
        for (std::uint32_t i = 0; i < account_count; ++i) {
            const ledger::AccountID& node = ledger.account_by_index(i);
            for (const ledger::TrustLine* line : ledger.lines_of(node)) {
                if (!(line->key().currency == part.currency)) continue;
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
                part.edges[cursor[i]++] =
                    Edge{peer->index, line, node_is_low, peer->allows_rippling};
            }
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
