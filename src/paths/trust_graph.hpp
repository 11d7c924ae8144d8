// A search view over the ledger's trust lines.
//
// The path finders see the network through this class: the lazily
// built, currency-partitioned CSR GraphIndex (positive-capacity
// filtering happens at visit time, reading capacity live through each
// edge's TrustLine pointer), plus an exclusion set used by the replay
// harness to simulate removed accounts (the paper's
// Market-Maker-removal experiment, Table II) without destroying
// ledger state.
#pragma once

#include <unordered_set>
#include <vector>

#include "ledger/ledger.hpp"
#include "paths/graph_index.hpp"

namespace xrpl::paths {

class TrustGraph {
public:
    explicit TrustGraph(const ledger::LedgerState& ledger) noexcept
        : ledger_(&ledger) {}

    /// Mark an account as removed: it will not be offered as a
    /// neighbor, endpoint checks are the caller's job. An account that
    /// does not exist yet is excluded too, from the index rebuild that
    /// follows its creation on.
    void exclude(const ledger::AccountID& account);
    void clear_exclusions() noexcept;
    [[nodiscard]] bool is_excluded(const ledger::AccountID& account) const {
        return excluded_.contains(account);
    }
    /// Index-space probe for the searches: one bounds check + one load
    /// against the epoch-stamped exclusion array (clearing bumps the
    /// epoch instead of rewriting stamps).
    [[nodiscard]] bool is_excluded_index(std::uint32_t index) const noexcept {
        return index < excluded_stamp_.size() &&
               excluded_stamp_[index] == exclusion_epoch_;
    }
    [[nodiscard]] std::size_t exclusion_count() const noexcept {
        return excluded_.size();
    }
    [[nodiscard]] const std::unordered_set<ledger::AccountID>& exclusions()
        const noexcept {
        return excluded_;
    }

    /// The CSR index, rebuilt here if the ledger topology moved since
    /// the last query. Exclusions never invalidate it (they are
    /// visit-time filters), and neither do balance/limit updates. A
    /// rebuild re-stamps the exclusions, since a topology move may have
    /// created an excluded account.
    [[nodiscard]] const GraphIndex& index() const;

    [[nodiscard]] const ledger::LedgerState& ledger() const noexcept { return *ledger_; }

private:
    void stamp(const ledger::AccountID& account) const;

    const ledger::LedgerState* ledger_;
    std::unordered_set<ledger::AccountID> excluded_;
    /// excluded_stamp_[i] == exclusion_epoch_ means account index i is
    /// excluded. clear_exclusions() bumps the epoch: O(1), no rewrite.
    /// Written through const index() when a rebuild re-stamps.
    mutable std::vector<std::uint64_t> excluded_stamp_;
    std::uint64_t exclusion_epoch_ = 1;
    mutable GraphIndex index_;
};

}  // namespace xrpl::paths
