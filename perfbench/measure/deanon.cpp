// Workload `deanon` — the paper's main result (Fig 3, Table I) plus
// the Fig 4/5/7 column scans and a closed-loop attack-query client.
//
// Read-only bulk scans and point lookups: core, analytics and exec do
// the work, paths does none, so a paths change should not move it.
//
// No pass span is pooled (see Span::pooled): the IG study, the scans
// and the attack-index build reach the pool through ThreadPool::run
// and map_reduce, which record no exec.chunk_ns, so exec.busy_share
// reads 0 here.
#include <algorithm>
#include <optional>

#include "analytics/currency_stats.hpp"
#include "analytics/network_stats.hpp"
#include "analytics/survival.hpp"
#include "analytics/top_users.hpp"
#include "core/deanonymizer.hpp"
#include "core/ig_study.hpp"
#include "datagen/history.hpp"
#include "measure/workload.hpp"
#include "obs/stopwatch.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"

namespace perfbench {
namespace {

using namespace xrpl;

constexpr std::uint64_t kPayments = 120'000;
constexpr std::uint64_t kPaymentsPerSlice = 10'000;
/// The population mix of the paper benches (bench/common.hpp's
/// default_history_config); only the payment count is scaled down.
constexpr std::size_t kUsers = 8'000;
constexpr std::size_t kGateways = 40;
constexpr std::size_t kMarketMakers = 120;
constexpr std::size_t kMerchants = 500;
constexpr std::size_t kHubs = 20;
/// Observations per pass of the attack client.
constexpr std::size_t kQueries = 4'000;

/// Digest of the IG table: every configuration's label and counts.
std::string ig_digest(const std::vector<core::IgStudyRow>& rows) {
    util::Sha256 hasher;
    for (const core::IgStudyRow& row : rows) {
        hasher.update(row.config.label());
        hasher.update(std::to_string(row.result.total_payments) + "/" +
                      std::to_string(row.result.uniquely_identified) + ";");
    }
    return util::to_hex(hasher.finish());
}

class Deanon final : public Workload {
public:
    void setup(std::uint64_t seed, Trace* trace, PassResult& out) override {
        state_.reset();
        state_.emplace();
        State& s = *state_;

        datagen::GeneratorConfig config;
        config.seed = seed;
        config.num_users = kUsers;
        config.num_gateways = kGateways;
        config.num_market_makers = kMarketMakers;
        config.num_merchants = kMerchants;
        config.num_hubs = kHubs;
        config.target_payments = kPayments;
        config.payments_per_slice = kPaymentsPerSlice;
        {
            const ScopedSpan span(trace, "datagen.generate_history",
                                  Layer::kDatagen, true);
            s.history = datagen::generate_history(config);
        }
        const auto configs = core::fig3_configurations();
        {
            const ScopedSpan span(trace, "core.attack_index_build", Layer::kCore);
            s.full.emplace(s.history.payments, core::full_resolution());
            s.coarse.emplace(s.history.payments, configs.back());
        }

        util::Rng rng = util::RngStream(seed).derive("observations").rng();
        const std::size_t n = s.history.payments.size();
        out.check(n > 0, "deanon: generated history is empty");
        ++out.attempted;
        s.observations.reserve(kQueries);
        for (std::size_t q = 0; q < kQueries && n > 0; ++q) {
            s.observations.push_back(static_cast<std::uint32_t>(
                rng.uniform_u64(0, static_cast<std::uint64_t>(n - 1))));
        }
    }

    PassResult pass(Trace* trace) override {
        State& s = *state_;
        PassResult out;
        const ledger::PaymentView view = s.history.payments.view();
        const auto n = static_cast<double>(view.size());

        // --- Fig 3: the ten-configuration IG study ----------------------
        std::uint64_t t0 = obs::Stopwatch::now_ns();
        std::vector<core::IgStudyRow> rows;
        {
            const ScopedSpan span(trace, "core.run_ig_study", Layer::kCore);
            rows = core::run_ig_study(s.history.payments);
        }
        const double ig_s = seconds_since(t0);
        out.rates["ig_payments_per_s"] =
            n * static_cast<double>(rows.size()) / ig_s;
        ++out.attempted;
        out.check(rows.size() == 10, "deanon: IG study did not return 10 rows");
        for (const core::IgStudyRow& row : rows) {
            out.check(row.result.total_payments == view.size() &&
                          row.result.uniquely_identified <= view.size(),
                      "deanon: IG row counts do not cover the history");
        }
        out.counters["core.ig_table_sha256"] = ig_digest(rows);

        // --- Fig 4/5/7 column scans -------------------------------------
        t0 = obs::Stopwatch::now_ns();
        std::vector<analytics::CurrencyCount> ranked;
        {
            const ScopedSpan span(trace, "analytics.rank_currencies",
                                  Layer::kAnalytics);
            ranked = analytics::rank_currencies(view);
        }
        const ledger::Currency top =
            ranked.empty() ? ledger::Currency::xrp() : ranked.front().currency;
        std::size_t survival_samples = 0;
        {
            const ScopedSpan span(trace, "analytics.survival_of", Layer::kAnalytics);
            survival_samples =
                analytics::survival_of(view, top).sample_count();
        }
        std::unordered_map<ledger::AccountID, std::uint64_t> activity;
        {
            const ScopedSpan span(trace, "analytics.sender_activity",
                                  Layer::kAnalytics);
            activity = analytics::sender_activity(view);
        }
        analytics::NetworkStats network;
        {
            const ScopedSpan span(trace, "analytics.compute_network_stats",
                                  Layer::kAnalytics);
            network = analytics::compute_network_stats(s.history.ledger, view);
        }
        const double scan_s = seconds_since(t0);
        out.rates["scan_payments_per_s"] = 4.0 * n / scan_s;
        out.attempted += 4;

        std::uint64_t ranked_total = 0;
        std::uint64_t top_count = 0;
        for (const analytics::CurrencyCount& c : ranked) {
            ranked_total += c.payments;
            if (c.currency == top) top_count = c.payments;
        }
        std::uint64_t activity_total = 0;
        for (const auto& [account, sent] : activity) activity_total += sent;
        out.check(ranked_total == view.size(),
                  "deanon: currency ranks do not sum to the history");
        out.check(survival_samples == top_count,
                  "deanon: survival samples differ from the currency count");
        out.check(activity_total == view.size(),
                  "deanon: sender activity does not sum to the history");
        out.check(network.active_senders == activity.size(),
                  "deanon: active senders differ from sender activity");
        out.count("analytics.currencies", ranked.size());
        out.count("analytics.active_senders", network.active_senders);

        // --- closed-loop attack client ----------------------------------
        // One client; each query waits for the previous one. A query
        // asks the full-resolution index for the candidate senders (the
        // true sender must be one) and the coarsest index for its
        // anonymity set (the observed row must be in it; buckets are
        // ascending row indices). Deduplicating senders at the coarsest
        // resolution would scan thousands of rows per query.
        std::vector<double>& latency = out.latencies_us["attack_us"];
        latency.reserve(s.observations.size());
        std::uint64_t matches = 0;
        std::uint64_t candidates = 0;
        for (const std::uint32_t row : s.observations) {
            ledger::TxRecord observation = s.history.payments.row(row);
            const ledger::AccountID truth = observation.sender;
            observation.sender = ledger::AccountID{};
            t0 = obs::Stopwatch::now_ns();
            std::vector<ledger::AccountID> full;
            bool coarse_hit = false;
            std::size_t coarse_matches = 0;
            {
                const ScopedSpan span(trace, "core.candidate_senders", Layer::kCore);
                full = s.full->candidate_senders(observation);
                const std::vector<std::uint32_t>& coarse =
                    s.coarse->matches(observation);
                coarse_matches = coarse.size();
                coarse_hit = std::binary_search(coarse.begin(), coarse.end(), row);
            }
            latency.push_back(micros_since(t0));
            ++out.attempted;
            out.check(std::find(full.begin(), full.end(), truth) != full.end(),
                      "deanon: attack candidates miss the true sender");
            out.check(coarse_hit,
                      "deanon: coarse anonymity set misses the observed row");
            candidates += full.size();
            matches += s.full->matches(observation).size() + coarse_matches;
        }
        out.count("core.attack.candidates", candidates);
        out.count("core.attack.matches", matches);
        if (trace != nullptr) {
            const auto queries = static_cast<double>(s.observations.size());
            out.layer["core.attack.matches_per_query"] =
                static_cast<double>(matches) / queries;
            out.layer["core.attack.candidates_per_query"] =
                static_cast<double>(candidates) / queries;
            out.layer["ledger.accounts"] =
                static_cast<double>(s.history.ledger.account_count());
            out.layer["ledger.trust_lines"] =
                static_cast<double>(s.history.ledger.trustline_count());
            out.layer["ledger.offers"] =
                static_cast<double>(s.history.ledger.offer_count());
        }
        return out;
    }

    [[nodiscard]] std::array<const char*, 2> headline() const override {
        return {"ig_payments_per_s", "scan_payments_per_s"};
    }

    [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> sizes()
        const override {
        return {{"payments", kPayments},
                {"payments_per_slice", kPaymentsPerSlice},
                {"users", kUsers},
                {"ig_configurations", 10},
                {"attack_queries", kQueries},
                {"history_rows",
                 state_ ? state_->history.payments.size() : 0}};
    }

private:
    struct State {
        datagen::GeneratedHistory history;
        std::optional<core::AttackIndex> full;
        std::optional<core::AttackIndex> coarse;
        std::vector<std::uint32_t> observations;
    };
    std::optional<State> state_;
};

}  // namespace

std::unique_ptr<Workload> make_deanon() { return std::make_unique<Deanon>(); }

}  // namespace perfbench
