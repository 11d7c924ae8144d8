#include "core/ig_study.hpp"

#include "core/fingerprint.hpp"
#include "core/ig_kernel.hpp"
#include "obs/phase.hpp"

namespace xrpl::core {

std::vector<ResolutionConfig> fig3_configurations() {
    using A = AmountResolution;
    using T = util::TimeResolution;
    const std::optional<A> no_amount;
    const std::optional<T> no_time;

    return {
        {A::kMax, T::kSeconds, true, true},    // <Am; Tsc; C; D>
        {A::kMax, T::kSeconds, false, true},   // <Am; Tsc; -; D>
        {A::kMax, T::kSeconds, true, false},   // <Am; Tsc; C; ->
        {no_amount, T::kSeconds, true, true},  // <-;  Tsc; C; D>
        {A::kHigh, T::kMinutes, true, true},   // <Ah; Tmn; C; D>
        {A::kAverage, T::kHours, true, true},  // <Aa; Thr; C; D>
        {A::kLow, T::kDays, true, true},       // <Al; Tdy; C; D>
        {A::kMax, no_time, true, true},        // <Am; -;   C; D>
        {A::kMax, no_time, false, false},      // <Am; -;   -; ->
        {A::kLow, T::kDays, false, false},     // <Al; Tdy; -; ->
    };
}

PaperReference fig3_paper_reference(std::size_t index) noexcept {
    // Exact values quoted in §V-B; approximate ones read off Fig 3.
    switch (index) {
        case 0: return {0.9983, true};   // "more than 99.83%"
        case 1: return {0.9983, true};   // "still ... 99.83%"
        case 2: return {0.9378, true};   // "decreases to 93.78%"
        case 3: return {0.8986, true};   // "drops to 89.86%"
        case 4: return {0.97, false};    // read off the figure
        case 5: return {0.88, false};    // read off the figure
        case 6: return {0.52, false};    // "slightly more than 50%"
        case 7: return {0.4884, true};   // "48.84%, less than a coin toss"
        case 8: return {0.30, false};    // read off the figure
        case 9: return {0.0128, true};   // "drops down to 1.28%"
        default: return {std::nullopt, false};
    }
}

namespace {

std::vector<IgStudyRow> attach_paper_references(std::vector<IgResult> results,
                                                const std::vector<ResolutionConfig>& configs) {
    std::vector<IgStudyRow> rows;
    rows.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        IgStudyRow row;
        row.config = configs[i];
        row.result = results[i];
        const PaperReference reference = fig3_paper_reference(i);
        row.paper_value = reference.value;
        row.paper_value_exact = reference.exact;
        rows.push_back(std::move(row));
    }
    return rows;
}

}  // namespace

std::vector<IgStudyRow> run_ig_study(const ledger::PaymentColumns& payments) {
    return run_ig_study(payments.view());
}

std::vector<IgStudyRow> run_ig_study(ledger::PaymentView view) {
    const obs::Phase phase("core.ig_study");
    // One configuration at a time: fingerprint the view chunk-parallel
    // into one reused column, then hand it to the shared IG kernel.
    // Holding a single configuration's transient keeps the study's
    // peak at the kernel's bound, not ten times it.
    const std::vector<ResolutionConfig> configs = fig3_configurations();
    const std::span<const std::uint32_t> senders =
        std::span(view.columns().sender_id).subspan(view.offset(), view.size());
    std::vector<std::uint64_t> fingerprints(view.size());
    std::vector<IgResult> results;
    results.reserve(configs.size());
    for (const ResolutionConfig& config : configs) {
        fingerprint_column(view, config, fingerprints);
        results.push_back(count_identified(fingerprints, senders));
    }
    return attach_paper_references(std::move(results), configs);
}

}  // namespace xrpl::core
