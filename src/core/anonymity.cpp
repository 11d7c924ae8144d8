#include "core/anonymity.hpp"

#include <span>

#include "core/fingerprint.hpp"
#include "core/ig_kernel.hpp"
#include "obs/phase.hpp"

namespace xrpl::core {

void AnonymityProfile::add(std::uint32_t set_size, std::uint64_t payments) {
    histogram_[set_size] += payments;
    total_ += payments;
}

double AnonymityProfile::identifiable_within(std::uint32_t k) const noexcept {
    if (total_ == 0) return 0.0;
    std::uint64_t covered = 0;
    for (const auto& [size, payments] : histogram_) {
        if (size > k) break;
        covered += payments;
    }
    return static_cast<double>(covered) / static_cast<double>(total_);
}

double AnonymityProfile::mean_set_size() const noexcept {
    if (total_ == 0) return 0.0;
    double weighted = 0.0;
    for (const auto& [size, payments] : histogram_) {
        weighted += static_cast<double>(size) * static_cast<double>(payments);
    }
    return weighted / static_cast<double>(total_);
}

std::uint32_t AnonymityProfile::set_size_quantile(double fraction) const noexcept {
    if (total_ == 0) return 0;
    // Compared in doubles: truncating fraction * total to an integer
    // would accept a k that covers slightly less than `fraction`.
    const double threshold = fraction * static_cast<double>(total_);
    std::uint64_t covered = 0;
    for (const auto& [size, payments] : histogram_) {
        covered += payments;
        if (static_cast<double>(covered) >= threshold) return size;
    }
    return histogram_.empty() ? 0 : histogram_.rbegin()->first;
}

AnonymityProfile analyze_anonymity(ledger::PaymentView view,
                                   const ResolutionConfig& config) {
    const obs::Phase phase("core.anonymity");
    const std::vector<std::uint64_t> fingerprints = fingerprint_column(view, config);
    const std::vector<std::uint64_t> rows = rows_by_set_size(
        fingerprints,
        std::span(view.columns().sender_id).subspan(view.offset(), view.size()));

    AnonymityProfile profile;
    for (std::size_t size = 1; size < rows.size(); ++size) {
        if (rows[size] != 0) profile.add(static_cast<std::uint32_t>(size), rows[size]);
    }
    return profile;
}

}  // namespace xrpl::core
