// Workload `generate` — history generation and the XCOL codec.
//
// The cold-cache path (generate, then encode) and the warm-cache path
// (decode the same bytes in memory). Generation runs parallel slices
// that each clone the population snapshot and rebuild a path index
// for short searches, so paths work here is build-heavy where the
// replay workload is query-heavy.
#include <numeric>
#include <optional>

#include "datagen/history.hpp"
#include "measure/workload.hpp"
#include "ledger/payment_columns.hpp"
#include "obs/stopwatch.hpp"
#include "snap/xcol.hpp"

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
/// A decode takes milliseconds, so one preempted decode would move a
/// pass's total: each is timed alone and the pass reports their median.
constexpr int kDecodes = 8;

class Generate final : public Workload {
public:
    void setup(std::uint64_t seed, Trace* trace, PassResult& out) override {
        state_.reset();
        state_.emplace();
        State& s = *state_;
        s.config.seed = seed;
        s.config.num_users = kUsers;
        s.config.num_gateways = kGateways;
        s.config.num_market_makers = kMarketMakers;
        s.config.num_merchants = kMerchants;
        s.config.num_hubs = kHubs;
        s.config.target_payments = kPayments;
        s.config.payments_per_slice = kPaymentsPerSlice;
        // The population stage alone: generate_history repeats it, and
        // its snapshot must equal the one inside every generated history.
        const ScopedSpan span(trace, "datagen.generate_population_only",
                              Layer::kDatagen);
        const datagen::PopulationSnapshot snapshot =
            datagen::generate_population_only(s.config);
        s.accounts = snapshot.ledger.account_count();
        s.trust_lines = snapshot.ledger.trustline_count();
        ++out.attempted;
        out.check(s.accounts > 0, "generate: population is empty");
    }

    PassResult pass(Trace* trace) override {
        State& s = *state_;
        PassResult out;

        // --- cold-cache path: generate, then encode ---------------------
        std::uint64_t t0 = obs::Stopwatch::now_ns();
        std::optional<datagen::GeneratedHistory> history;
        {
            const ScopedSpan span(trace, "datagen.generate_history",
                                  Layer::kDatagen, true);
            history.emplace(datagen::generate_history(s.config));
        }
        std::vector<std::uint8_t> bytes;
        {
            const ScopedSpan span(trace, "snap.encode_columns", Layer::kSnap);
            bytes = snap::encode_columns(history->payments);
        }
        const double generate_s = seconds_since(t0);
        const auto n = static_cast<double>(history->payments.size());
        out.rates["generate_payments_per_s"] = n / generate_s;

        // --- warm-cache path: decode the same bytes ---------------------
        snap::LoadResult loaded;
        bool all_ok = true;
        std::vector<double> decode_s;
        for (int i = 0; i < kDecodes; ++i) {
            t0 = obs::Stopwatch::now_ns();
            {
                const ScopedSpan span(trace, "snap.decode_columns", Layer::kSnap);
                loaded = snap::decode_columns(bytes);
            }
            decode_s.push_back(seconds_since(t0));
            all_ok = all_ok && loaded.ok();
        }
        out.rates["load_payments_per_s"] = n / median(decode_s);

        std::string generated_fp;
        std::string loaded_fp;
        {
            const ScopedSpan span(trace, "ledger.columns_fingerprint",
                                  Layer::kLedger);
            generated_fp = ledger::columns_fingerprint(history->payments);
            if (loaded.ok()) loaded_fp = ledger::columns_fingerprint(loaded.columns);
        }
        out.attempted += 1 + kDecodes;
        out.check(history->payments.size() >= kPayments,
                  "generate: history is shorter than its target");
        out.check(history->ledger.account_count() >= s.accounts &&
                      history->ledger.trustline_count() >= s.trust_lines,
                  "generate: history ledger is smaller than its population");
        out.check(all_ok, "generate: XCOL decode rejected its own bytes");
        out.check(loaded_fp == generated_fp,
                  "generate: XCOL round-trip fingerprint differs");
        out.counters["ledger.columns_fingerprint"] = generated_fp;
        out.count("snap.xcol_bytes", bytes.size());

        const auto& attempts = history->workload_stats.attempts;
        out.layer["paths.payments_executed"] = static_cast<double>(
            std::accumulate(attempts.begin(), attempts.end(), std::uint64_t{0}));
        if (trace != nullptr) {
            out.layer["snap.bytes_per_payment"] =
                static_cast<double>(bytes.size()) / n;
            out.layer["ledger.accounts"] =
                static_cast<double>(history->ledger.account_count());
            out.layer["ledger.trust_lines"] =
                static_cast<double>(history->ledger.trustline_count());
            out.layer["ledger.offers"] =
                static_cast<double>(history->ledger.offer_count());
        }
        return out;
    }

    [[nodiscard]] std::array<const char*, 2> headline() const override {
        return {"generate_payments_per_s", "load_payments_per_s"};
    }

    [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> sizes()
        const override {
        return {{"payments", kPayments},
                {"payments_per_slice", kPaymentsPerSlice},
                {"users", kUsers},
                {"decodes_per_pass", kDecodes}};
    }

private:
    struct State {
        datagen::GeneratorConfig config;
        std::size_t accounts = 0;
        std::size_t trust_lines = 0;
    };
    std::optional<State> state_;
};

}  // namespace

std::unique_ptr<Workload> make_generate() {
    return std::make_unique<Generate>();
}

}  // namespace perfbench
