// Ledger state: accounts, trust lines, and order books.
//
// This is the mutable "current ledger" the payment engine executes
// against. Accounts and trust lines are stored node-based so pointers
// into them stay valid across insertions (and across a move of the
// whole state).
//
// Trust topology lives in dense-index space: every account gets the
// next dense index at creation, every trust line records its two
// endpoints' indices and its currency's interned id (TrustLineSlots),
// and the adjacency is one vector of line pointers per dense index.
// lines_of(AccountID) is one accounts_ lookup plus an index;
// lines_of_index() is the index alone, so paths::GraphIndex builds
// without hashing an AccountID. set_trust() therefore requires both
// endpoints to exist and to differ — the payment engine rejects a
// TrustSet that breaks this before it reaches the ledger.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ledger/amount.hpp"
#include "ledger/trustline.hpp"
#include "ledger/types.hpp"

namespace xrpl::ledger {

/// Per-account root entry.
struct AccountRoot {
    AccountID id;
    XrpAmount balance;        // native XRP, in drops
    std::uint32_t sequence = 0;
    bool is_gateway = false;  // publicly-announced gateway flag (Fig 7 labelling)
    /// The DefaultRipple semantics of the real ledger: payments may
    /// ripple THROUGH an account (use it as an intermediate hop) only
    /// if it permits it. Gateways, Market Makers, and hub accounts
    /// enable it; ordinary users and merchants do not, so strangers
    /// cannot route value through their balances.
    bool allows_rippling = false;
    /// Dense index assigned at creation; lets graph algorithms use
    /// flat arrays instead of hash maps.
    std::uint32_t index = 0;
};

/// A currency-exchange offer: the owner sells `taker_gets` in
/// exchange for `taker_pays` (names are from the taker's viewpoint,
/// as in the real ledger).
struct Offer {
    std::uint64_t id = 0;
    AccountID owner;
    Amount taker_pays;
    Amount taker_gets;

    /// Price the taker pays per unit received; lower is better for
    /// the taker. Books are kept sorted ascending by rate.
    [[nodiscard]] double rate() const noexcept {
        const double gets = taker_gets.value.to_double();
        if (gets <= 0.0) return 0.0;
        return taker_pays.value.to_double() / gets;
    }
};

/// An order book is identified by the (pays, gets) currency pair.
struct BookKey {
    Currency pays;
    Currency gets;
    friend auto operator<=>(const BookKey&, const BookKey&) = default;
};

}  // namespace xrpl::ledger

template <>
struct std::hash<xrpl::ledger::BookKey> {
    std::size_t operator()(const xrpl::ledger::BookKey& k) const noexcept {
        std::size_t seed = std::hash<xrpl::ledger::Currency>{}(k.pays);
        seed ^= std::hash<xrpl::ledger::Currency>{}(k.gets) + 0x9e3779b97f4a7c15ULL +
                (seed << 6) + (seed >> 2);
        return seed;
    }
};

namespace xrpl::ledger {

/// The current (open) ledger state.
class LedgerState {
public:
    LedgerState() = default;

    // Not copyable (the by-index tables hold interior pointers);
    // movable is fine because unordered_map nodes do not relocate.
    // Use clone() for an explicit deep copy.
    LedgerState(const LedgerState&) = delete;
    LedgerState& operator=(const LedgerState&) = delete;
    LedgerState(LedgerState&&) = default;
    LedgerState& operator=(LedgerState&&) = default;

    /// Deep copy with freshly rebuilt by-index tables (no AccountID is
    /// hashed: lines carry their endpoint indices). Replay experiments
    /// run against a clone so the original snapshot stays pristine.
    /// The copy's lines_of() order is the copied line map's iteration
    /// order, not line creation order; a clone of a clone keeps it.
    [[nodiscard]] LedgerState clone() const;

    // --- accounts ---------------------------------------------------

    /// Create an account with an initial XRP balance. Returns false if
    /// it already exists. Gateways allow rippling by default; pass
    /// `allows_rippling` explicitly for non-gateway liquidity nodes.
    bool create_account(const AccountID& id, XrpAmount initial_balance,
                        bool is_gateway = false, bool allows_rippling = false);

    [[nodiscard]] const AccountRoot* account(const AccountID& id) const noexcept;
    [[nodiscard]] AccountRoot* account(const AccountID& id) noexcept;
    [[nodiscard]] std::size_t account_count() const noexcept { return accounts_.size(); }

    /// The account created with dense index `index` (0-based, in
    /// creation order). Precondition: index < account_count().
    [[nodiscard]] const AccountID& account_by_index(std::uint32_t index) const {
        return root_by_index(index).id;
    }
    [[nodiscard]] const AccountRoot& root_by_index(std::uint32_t index) const {
        return *roots_by_index_.at(index);
    }

    /// Direct XRP transfer plus fee burn; fails on missing accounts or
    /// insufficient balance. (Fees are destroyed, not redistributed —
    /// §III-A of the paper.)
    bool xrp_payment(const AccountID& from, const AccountID& to, XrpAmount amount,
                     XrpAmount fee = XrpAmount{10});

    /// Total XRP destroyed by fees so far.
    [[nodiscard]] XrpAmount burned_fees() const noexcept { return burned_; }

    /// Burn `fee` from an account if it can afford it (the payment
    /// engine charges successful transactions through this). Returns
    /// whether the fee was collected.
    bool burn_fee(const AccountID& account, XrpAmount fee);

    // --- trust lines -------------------------------------------------

    /// `from` declares trust of `limit` towards `to` in `currency`.
    /// Creates the line if absent; updates the limit otherwise.
    /// Precondition: both accounts exist and from != to (a line's
    /// slots need two dense indices; a self-loop would let a path
    /// "ripple" value without moving it).
    TrustLine& set_trust(const AccountID& from, const AccountID& to,
                         Currency currency, IouAmount limit);

    [[nodiscard]] const TrustLine* trustline(const AccountID& a, const AccountID& b,
                                             Currency currency) const noexcept;
    [[nodiscard]] TrustLine* trustline(const AccountID& a, const AccountID& b,
                                       Currency currency) noexcept;

    /// All trust lines touching `account` (any currency); empty for an
    /// unknown account.
    [[nodiscard]] const std::vector<TrustLine*>& lines_of(
        const AccountID& account) const noexcept;
    /// lines_of() of the account with dense index `index`.
    /// Precondition: index < account_count().
    [[nodiscard]] const std::vector<TrustLine*>& lines_of_index(
        std::uint32_t index) const {
        return adjacency_.at(index);
    }

    /// Every currency some trust line uses, indexed by
    /// TrustLine::currency_id() (interned in first-use order).
    [[nodiscard]] const std::vector<Currency>& line_currencies() const noexcept {
        return line_currencies_;
    }

    [[nodiscard]] std::size_t trustline_count() const noexcept { return lines_.size(); }

    /// Monotonic counter bumped on every TOPOLOGY change — account
    /// creation or trust-line creation. Balance and limit updates on
    /// existing lines do NOT bump it: derived adjacency structures
    /// (paths::GraphIndex) read capacities live through TrustLine
    /// pointers, so only new nodes/edges invalidate them.
    [[nodiscard]] std::uint64_t topology_generation() const noexcept {
        return topology_generation_;
    }

    /// Net IOU position of an account across all its lines, converted
    /// with per-currency rates (currency -> value of 1 unit in the
    /// reference currency). Used for Fig 7(c) balances.
    [[nodiscard]] double net_iou_balance(
        const AccountID& account,
        const std::function<double(Currency)>& rate_to_reference) const;

    /// Sum of trust limits granted TO `account` by peers (positive
    /// trust of Fig 7(b)) and declared BY `account` (negative trust).
    struct TrustSummary {
        double received = 0.0;
        double given = 0.0;
    };
    [[nodiscard]] TrustSummary trust_summary(
        const AccountID& account,
        const std::function<double(Currency)>& rate_to_reference) const;

    // --- order books --------------------------------------------------

    /// Place an offer; returns its id. The book stays sorted by rate.
    std::uint64_t place_offer(const AccountID& owner, Amount taker_pays,
                              Amount taker_gets);

    /// The (sorted, best first) book for a currency pair; empty if none.
    [[nodiscard]] const std::vector<Offer>& book(const BookKey& key) const noexcept;
    [[nodiscard]] std::vector<Offer>& book_mutable(const BookKey& key) noexcept;

    [[nodiscard]] const std::unordered_map<BookKey, std::vector<Offer>>& books()
        const noexcept {
        return books_;
    }

    [[nodiscard]] std::size_t offer_count() const noexcept;

    /// Remove every offer owned by `owner` (Market-Maker-removal replay).
    void remove_offers_of(const AccountID& owner);

    /// Remove all offers in the system.
    void clear_all_offers() noexcept { books_.clear(); }

    /// Iterate all accounts (order unspecified).
    [[nodiscard]] const std::unordered_map<AccountID, AccountRoot>& accounts()
        const noexcept {
        return accounts_;
    }

private:
    std::unordered_map<AccountID, AccountRoot> accounts_;
    std::vector<AccountRoot*> roots_by_index_;  // into accounts_
    std::unordered_map<TrustLineKey, TrustLine> lines_;
    std::vector<std::vector<TrustLine*>> adjacency_;  // by dense index
    std::vector<Currency> line_currencies_;           // by currency id
    std::unordered_map<Currency, std::uint32_t> currency_ids_;
    std::unordered_map<BookKey, std::vector<Offer>> books_;
    XrpAmount burned_;
    std::uint64_t next_offer_id_ = 1;
    std::uint64_t topology_generation_ = 0;
};

}  // namespace xrpl::ledger
