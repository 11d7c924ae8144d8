#include "datagen/spam.hpp"

namespace xrpl::datagen {

const char* spam_kind_name(SpamKind kind) noexcept {
    switch (kind) {
        case SpamKind::kOrganic: return "organic";
        case SpamKind::kMtlCampaign: return "mtl-campaign";
        case SpamKind::kCckCampaign: return "cck-campaign";
        case SpamKind::kAccountZeroPingPong: return "account-zero";
        case SpamKind::kGambling: return "gambling";
    }
    return "?";
}

SpamKind classify(const ledger::TxRecord& record,
                  const Population& population) noexcept {
    if (record.destination == population.account_zero ||
        record.sender == population.account_zero) {
        return SpamKind::kAccountZeroPingPong;
    }
    if (record.destination == population.ripple_spin) {
        return SpamKind::kGambling;
    }
    if (record.currency == cur("MTL")) {
        // MTL traffic is recognizable by its absurd amounts (~1e9).
        if (record.amount.to_double() > 1e6) return SpamKind::kMtlCampaign;
    }
    if (record.currency == cur("CCK")) {
        return SpamKind::kCckCampaign;
    }
    return SpamKind::kOrganic;
}

namespace {

void tally(SpamBreakdown& breakdown, SpamKind kind) noexcept {
    switch (kind) {
        case SpamKind::kOrganic: ++breakdown.organic; break;
        case SpamKind::kMtlCampaign: ++breakdown.mtl; break;
        case SpamKind::kCckCampaign: ++breakdown.cck; break;
        case SpamKind::kAccountZeroPingPong: ++breakdown.account_zero; break;
        case SpamKind::kGambling: ++breakdown.gambling; break;
    }
}

}  // namespace

SpamBreakdown spam_breakdown(ledger::PaymentView view,
                             const Population& population) {
    const ledger::PaymentColumns& columns = view.columns();
    const std::size_t offset = view.offset();

    // Resolve the campaign markers to interned ids once; an absent id
    // means the history contains no such traffic at all.
    constexpr std::uint32_t kNoAccount = 0xffffffffU;
    constexpr std::uint16_t kNoCurrency = 0xffffU;
    const auto account_marker = [&](const ledger::AccountID& id) {
        return columns.accounts.find(id).value_or(kNoAccount);
    };
    const auto currency_marker = [&](const ledger::Currency& currency) {
        return columns.currencies.find(currency).value_or(kNoCurrency);
    };
    const std::uint32_t account_zero = account_marker(population.account_zero);
    const std::uint32_t ripple_spin = account_marker(population.ripple_spin);
    const std::uint16_t mtl = currency_marker(cur("MTL"));
    const std::uint16_t cck = currency_marker(cur("CCK"));

    SpamBreakdown breakdown;
    for (std::size_t i = 0; i < view.size(); ++i) {
        const std::size_t r = offset + i;
        // Same decision order as classify().
        if (columns.dest_id[r] == account_zero ||
            columns.sender_id[r] == account_zero) {
            tally(breakdown, SpamKind::kAccountZeroPingPong);
            continue;
        }
        if (columns.dest_id[r] == ripple_spin) {
            tally(breakdown, SpamKind::kGambling);
            continue;
        }
        const std::uint16_t currency = columns.currency_id[r];
        if (currency == mtl && currency != kNoCurrency) {
            const double amount =
                ledger::IouAmount::from_mantissa_exponent(
                    columns.amount_mantissa[r], columns.amount_exponent[r])
                    .to_double();
            if (amount > 1e6) {
                tally(breakdown, SpamKind::kMtlCampaign);
                continue;
            }
        }
        if (currency == cck && currency != kNoCurrency) {
            tally(breakdown, SpamKind::kCckCampaign);
            continue;
        }
        tally(breakdown, SpamKind::kOrganic);
    }
    return breakdown;
}

}  // namespace xrpl::datagen
