// The benchmark's workload interface: set up inputs from a seed, then
// run measured passes over the workload's timed steps, checking every
// output a pass times.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "measure/trace.hpp"

namespace perfbench {

/// What one setup or one pass produced.
struct PassResult {
    /// Throughputs of the pass's timed steps (e.g. "ig_payments_per_s").
    std::map<std::string, double> rates;
    /// Latency samples in microseconds, by metric stem ("attack_us").
    std::map<std::string, std::vector<double>> latencies_us;
    /// Workload-specific per-layer figures (traced passes only).
    std::map<std::string, double> layer;
    /// Exact counters: identical for every pass and every run of the
    /// same code at the same seed. Values are decimal or hex strings.
    std::map<std::string, std::string> counters;
    /// Operations attempted (queries, payments, rounds, transactions,
    /// histories) and checks on their outputs that failed.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;  // first few failed checks

    void check(bool ok, std::string_view what) {
        if (ok) return;
        ++failed;
        if (failures.size() < 8) failures.emplace_back(what);
    }
    void count(std::string name, std::uint64_t value) {
        counters[std::move(name)] = std::to_string(value);
    }
    /// Fold in the result of steps run within the same pass. Layer
    /// figures add up (counts and input sizes over both); every other
    /// name belongs to one of the two.
    void merge(PassResult&& other) {
        rates.insert(other.rates.begin(), other.rates.end());
        for (auto& [stem, samples] : other.latencies_us) {
            latencies_us[stem] = std::move(samples);
        }
        for (const auto& [name, value] : other.layer) layer[name] += value;
        counters.insert(other.counters.begin(), other.counters.end());
        attempted += other.attempted;
        failed += other.failed;
        for (std::string& f : other.failures) {
            if (failures.size() < 8) failures.push_back(std::move(f));
        }
    }
};

class Workload {
public:
    virtual ~Workload() = default;

    /// Build the inputs for `seed`, replacing any previous state.
    /// Called several times per run; setup_s is the median.
    virtual void setup(std::uint64_t seed, Trace* trace, PassResult& out) = 0;

    /// One pass over the workload's timed steps.
    virtual PassResult pass(Trace* trace) = 0;

    /// Keys of PassResult::rates reported as primary_per_s and
    /// secondary_per_s.
    [[nodiscard]] virtual std::array<const char*, 2> headline() const = 0;

    /// Input sizes, for the report's config block.
    [[nodiscard]] virtual std::vector<std::pair<std::string, std::uint64_t>>
    sizes() const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_deanon();
[[nodiscard]] std::unique_ptr<Workload> make_replay();
[[nodiscard]] std::unique_ptr<Workload> make_generate();
/// Fig 2's validator periods and a full node: not a benchmark workload
/// of its own (its single-threaded passes moved too much with host
/// load), but steps the replay workload runs in each of its passes.
[[nodiscard]] std::unique_ptr<Workload> make_consensus();

/// Percentile q in [0, 1] by linear interpolation (0 for no samples).
[[nodiscard]] double percentile(std::vector<double> samples, double q);
[[nodiscard]] double median(std::vector<double> samples);

/// Seconds and microseconds since `start_ns` (obs::Stopwatch::now_ns).
[[nodiscard]] double seconds_since(std::uint64_t start_ns);
[[nodiscard]] double micros_since(std::uint64_t start_ns);

}  // namespace perfbench
