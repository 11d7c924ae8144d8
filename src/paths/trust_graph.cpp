#include "paths/trust_graph.hpp"

namespace xrpl::paths {

void TrustGraph::exclude(const ledger::AccountID& account) {
    excluded_.insert(account);
    stamp(account);
}

void TrustGraph::clear_exclusions() noexcept {
    excluded_.clear();
    ++exclusion_epoch_;
}

const GraphIndex& TrustGraph::index() const {
    if (index_.ensure(*ledger_)) {
        for (const ledger::AccountID& account : excluded_) stamp(account);
    }
    return index_;
}

void TrustGraph::stamp(const ledger::AccountID& account) const {
    if (const ledger::AccountRoot* root = ledger_->account(account)) {
        if (excluded_stamp_.size() < ledger_->account_count()) {
            excluded_stamp_.resize(ledger_->account_count(), 0);
        }
        excluded_stamp_[root->index] = exclusion_epoch_;
    }
}

}  // namespace xrpl::paths
