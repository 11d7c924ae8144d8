// The de-anonymizer — §V's attack, as a reusable component.
//
// Given the public payment history (a columnar PaymentColumns store
// or a window of it) it answers two questions:
//
//  * information_gain(config): what fraction of all payments have a
//    fingerprint shared by exactly one sender? This is the IG metric
//    of Fig 3 — the probability that observing a random payment at
//    the configured resolution pins down its sender.
//
//  * attack(observation, config): the latte scenario. Alice saw an
//    (approximate) amount, time, currency, destination; the attack
//    returns every candidate sender, and history_of() then dumps the
//    victim's entire financial life.
//
// Fingerprints are computed in one batched column pass and senders
// compared as interned u32 ids, never as 20-byte accounts. Single
// observations (attack() inputs, history_of() output) stay TxRecords.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/features.hpp"
#include "core/fingerprint.hpp"
#include "ledger/payment_columns.hpp"
#include "ledger/transaction.hpp"

namespace xrpl::core {

/// Result of running the IG computation for one configuration.
struct IgResult {
    std::uint64_t total_payments = 0;
    std::uint64_t uniquely_identified = 0;

    [[nodiscard]] double information_gain() const noexcept {
        return total_payments == 0
                   ? 0.0
                   : static_cast<double>(uniquely_identified) /
                         static_cast<double>(total_payments);
    }
};

class Deanonymizer {
public:
    /// The store is referenced, not copied; the caller keeps it alive
    /// for the Deanonymizer's lifetime.
    explicit Deanonymizer(const ledger::PaymentColumns& payments) noexcept
        : view_(payments.view()) {}
    explicit Deanonymizer(ledger::PaymentView view) noexcept : view_(view) {}

    /// Fig 3's IG for one resolution configuration (ig_kernel.hpp, the
    /// senders as owners). O(n log n) time, under 24 B per payment.
    [[nodiscard]] IgResult information_gain(const ResolutionConfig& config) const;

    /// All candidate senders matching an observed payment at the given
    /// resolution (deduplicated, in first-seen order). The observation
    /// is expressed as a TxRecord whose sender field is ignored.
    [[nodiscard]] std::vector<ledger::AccountID> attack(
        const ledger::TxRecord& observation, const ResolutionConfig& config) const;

    /// Every payment sent by `account` — the victim's "entire
    /// financial life" once the attack singled them out.
    [[nodiscard]] std::vector<ledger::TxRecord> history_of(
        const ledger::AccountID& account) const;

    [[nodiscard]] std::size_t record_count() const noexcept { return view_.size(); }

private:
    ledger::PaymentView view_;
};

/// Precomputed fingerprint index for repeated attack queries at one
/// fixed resolution (the interactive examples use this).
class AttackIndex {
public:
    AttackIndex(const ledger::PaymentColumns& payments, ResolutionConfig config);
    AttackIndex(ledger::PaymentView view, ResolutionConfig config);

    /// Indices (view-relative) of all payments matching the
    /// observation's fingerprint, ascending.
    [[nodiscard]] const std::vector<std::uint32_t>& matches(
        const ledger::TxRecord& observation) const;

    /// Distinct senders among the matches.
    [[nodiscard]] std::vector<ledger::AccountID> candidate_senders(
        const ledger::TxRecord& observation) const;

    [[nodiscard]] const ResolutionConfig& config() const noexcept { return config_; }
    [[nodiscard]] std::size_t bucket_count() const noexcept { return index_.size(); }

private:
    ledger::PaymentView view_;
    ResolutionConfig config_;
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> index_;
};

}  // namespace xrpl::core
