// perfbench_measure — one benchmark run of one workload.
//
//   perfbench_measure --workload <deanon|replay|generate>
//                    --seed <n> --seconds <s> --trace <0|1>
//
// Sets the workload up from the seed (several times, cheap setups
// again between passes; setup_s is the median), then runs measured
// passes over its timed steps until --seconds have elapsed, checking
// every output a pass times. Throughputs are medians over passes.
// Prints one JSON report line on stdout.
//
// --trace 0 measures end to end: metric recording off, no spans.
// --trace 1 alternates untraced passes with traced ones (obs metrics
// on, spans around every library call) and reports the per-layer
// figures plus the traced/untraced wall-time difference as the
// tracing overhead.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "measure/report.hpp"
#include "measure/workload.hpp"
#include "exec/thread_pool.hpp"
#include "obs/snapshot.hpp"
#include "obs/stopwatch.hpp"
#include "util/env.hpp"
#include "util/options.hpp"

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
    return percentile(std::move(samples), 0.5);
}

double seconds_since(std::uint64_t start_ns) {
    return static_cast<double>(xrpl::obs::Stopwatch::now_ns() - start_ns) * 1e-9;
}

double micros_since(std::uint64_t start_ns) {
    return static_cast<double>(xrpl::obs::Stopwatch::now_ns() - start_ns) * 1e-3;
}

namespace {

using namespace xrpl;

/// Setups per untraced run: kMinSetups before the first pass, then one
/// more before a pass whenever set-up time is under kSetupShare of the
/// run so far. A cheap setup is thus repeated throughout the run, and
/// its median sees the same host as the passes do.
constexpr int kMinSetups = 3;
constexpr double kSetupShare = 0.1;
constexpr std::size_t kMinPasses = 3;

/// Per-layer figures of the set-up builds (see run()).
constexpr const char* kSetupMetrics[] = {
    "datagen.population_s", "datagen.replay_workload_s",
    "core.attack_index_build_s",
};

/// Latency stems measured end to end (untraced passes); every other
/// stem is a per-layer figure from traced passes.
constexpr const char* kEndToEndLatency = "attack_us";

/// Exact program counters recorded by traced passes.
constexpr const char* kExactObsCounters[] = {
    "paths.nodes_expanded", "paths.offers_consumed", "core.fingerprint.rows",
    "consensus.validations", "snap.encode.bytes", "datagen.payments",
    "exec.tasks",
};

std::uint64_t counter_value(const obs::Snapshot& snap, std::string_view name) {
    for (const auto& [key, value] : snap.counters) {
        if (key == name) return value;
    }
    return 0;
}

double histogram_seconds(const obs::Snapshot& snap, std::string_view name) {
    for (const obs::HistogramSnapshot& h : snap.histograms) {
        if (h.name == name) return static_cast<double>(h.sum) * 1e-9;
    }
    return 0.0;
}

/// Seconds in phase root/<parent>/<child>.
double phase_seconds(const obs::PhaseSnapshot& root, std::string_view parent,
                     std::string_view child) {
    double total = 0.0;
    for (const obs::PhaseSnapshot& p : root.children) {
        if (p.name != parent) continue;
        for (const obs::PhaseSnapshot& c : p.children) {
            if (c.name == child) total += static_cast<double>(c.total_ns) * 1e-9;
        }
    }
    return total;
}

/// Per-layer figures of one traced setup or pass: the program's obs
/// counters and phases, the benchmark's spans, the workload's own
/// figures and the latency percentiles. A figure of a layer that does
/// no work on the workload is 0 or absent; run.py picks the figures
/// BENCHMARK.json names and reads an absent one of an idle layer as 0.
std::map<std::string, double> layer_figures(const Trace& trace,
                                            const obs::Snapshot& snap,
                                            const PassResult& result,
                                            std::size_t width) {
    std::map<std::string, double> m;
    const auto count = [&](const char* name) {
        m[name] = static_cast<double>(counter_value(snap, name));
    };
    m["datagen.population_s"] =
        phase_seconds(snap.phases, "datagen.generate", "population") +
        trace.total_seconds("datagen.generate_population_only");
    m["datagen.slices_s"] = phase_seconds(snap.phases, "datagen.generate", "slices");
    m["datagen.merge_s"] = phase_seconds(snap.phases, "datagen.generate", "merge");
    m["datagen.slice_busy_s"] = histogram_seconds(snap, "datagen.slice_ns");
    m["datagen.replay_workload_s"] = trace.total_seconds("datagen.replay_workload");
    count("datagen.payments");
    count("datagen.pages");

    const double pooled = trace.pooled_seconds();
    m["exec.busy_share"] =
        pooled <= 0.0 ? 0.0
                      : histogram_seconds(snap, "exec.chunk_ns") /
                            (pooled * static_cast<double>(width));
    count("exec.tasks");
    count("exec.batches");

    m["ledger.clone_s"] = trace.total_seconds("ledger.clone");
    m["snap.encode_s"] = trace.total_seconds("snap.encode_columns");
    m["snap.decode_s"] = trace.total_seconds("snap.decode_columns");
    count("snap.encode.bytes");

    m["core.ig_study_s"] = trace.total_seconds("core.run_ig_study");
    m["core.attack_index_build_s"] = trace.total_seconds("core.attack_index_build");
    count("core.fingerprint.rows");
    count("core.ig.chunks");

    for (const char* scan : {"rank_currencies", "survival_of", "sender_activity",
                             "compute_network_stats"}) {
        m[std::string("analytics.") + scan + "_s"] =
            trace.total_seconds(std::string("analytics.") + scan);
    }

    m["paths.index.build_s"] = histogram_seconds(snap, "paths.index.build_ns");
    count("paths.index.builds");
    count("paths.nodes_expanded");
    count("paths.offers_consumed");

    count("consensus.validations");
    count("consensus.rounds_failed");
    const std::uint64_t rounds = counter_value(snap, "consensus.rounds");
    m["consensus.validations_per_round"] =
        rounds == 0 ? 0.0 : m["consensus.validations"] / static_cast<double>(rounds);

    for (const auto& [stem, samples] : result.latencies_us) {
        if (stem == kEndToEndLatency) continue;
        m[stem + ".p50"] = percentile(samples, 0.5);
        m[stem + ".p99"] = percentile(samples, 0.99);
    }
    for (const auto& [name, value] : result.layer) m[name] = value;
    const double executed = m["paths.payments_executed"];
    m["paths.nodes_expanded_per_payment"] =
        executed <= 0.0 ? 0.0 : m["paths.nodes_expanded"] / executed;

    const std::array<double, kLayerCount> self = trace.self_seconds();
    for (std::size_t l = 0; l < kLayerCount; ++l) {
        const std::string layer = layer_name(static_cast<Layer>(l));
        m[layer + ".self_s"] = self[l];
    }
    return m;
}

std::map<std::string, std::string> exact_obs_counters(const obs::Snapshot& snap) {
    std::map<std::string, std::string> out;
    for (const char* name : kExactObsCounters) {
        out[name] = std::to_string(counter_value(snap, name));
    }
    return out;
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

[[noreturn]] void usage(const char* why) {
    std::cerr << "perfbench_measure: " << why
              << "\nusage: perfbench_measure --workload <deanon|replay|generate>"
                 " --seed <n> --seconds <s> --trace <0|1>\n";
    std::exit(2);
}

std::uint64_t parse_u64(const char* text, const char* flag) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
        usage((std::string("malformed ") + flag).c_str());
    }
    return v;
}

Args parse_args(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
        const char* value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = parse_u64(value, "--seed");
        } else if (flag == "--seconds") {
            const std::uint64_t s = parse_u64(value, "--seconds");
            if (s == 0 || s > 600) usage("--seconds must be in [1, 600]");
            args.seconds = static_cast<double>(s);
        } else if (flag == "--trace") {
            const std::uint64_t t = parse_u64(value, "--trace");
            if (t > 1) usage("--trace must be 0 or 1");
            args.trace = t == 1;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (args.workload.empty()) usage("--workload is required");
    return args;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
    if (name == "deanon") return make_deanon();
    if (name == "replay") return make_replay();
    if (name == "generate") return make_generate();
    usage(("unknown workload " + name).c_str());
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Run totals: operations, failed checks, and the determinism check
/// that every pass reproduces the first pass's exact counters.
struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::map<std::string, std::string> counters;
    std::map<std::string, std::string> obs_counters;

    void add(const PassResult& r) {
        attempted += r.attempted;
        failed += r.failed;
        for (const std::string& f : r.failures) {
            if (failures.size() < 16) failures.push_back(f);
        }
    }
    void compare(std::map<std::string, std::string>& first,
                 const std::map<std::string, std::string>& now, const char* what) {
        ++attempted;
        if (first.empty()) {
            first = now;
        } else if (first != now) {
            ++failed;
            if (failures.size() < 16) {
                failures.push_back(std::string(what) +
                                   " differ between passes of one run");
            }
        }
    }
};

Json config_block(const Args& args, const Workload& workload, std::size_t width) {
    Json config;
    config.set("workload", args.workload);
    config.set("seed", args.seed);
    config.set("seconds", args.seconds);
    config.set("trace", args.trace);
    config.set("xrpl_threads", static_cast<std::uint64_t>(width));
    config.set("hardware_threads",
               static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    config.set("build_type", PERFBENCH_BUILD_TYPE);
    Json sizes;
    for (const auto& [name, value] : workload.sizes()) sizes.set(name, value);
    config.set("sizes", std::move(sizes));
    Json knobs;
    for (const util::OptionInfo& option : util::option_table()) {
        knobs.set(option.name, util::env_present(option.name)
                                   ? util::env_string(option.name, "")
                                   : std::string("(unset) ") + option.fallback);
    }
    config.set("knobs", std::move(knobs));
    return config;
}

Json attribution_json(const std::array<double, kLayerCount>& self) {
    Json out;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
        out.set(layer_name(static_cast<Layer>(l)), self[l]);
    }
    return out;
}

int run(const Args& args) {
    std::unique_ptr<Workload> workload = make_workload(args.workload);
    obs::set_enabled(false);
    obs::reset_all();
    const std::size_t width = exec::ThreadPool::shared().parallelism();

    Tally tally;
    std::vector<double> setup_s;
    double setup_total_s = 0.0;
    const auto timed_setup = [&] {
        PassResult r;
        const std::uint64_t t0 = obs::Stopwatch::now_ns();
        workload->setup(args.seed, nullptr, r);
        setup_s.push_back(seconds_since(t0));
        setup_total_s += setup_s.back();
        tally.add(r);
    };
    const std::uint64_t run_start = obs::Stopwatch::now_ns();
    std::map<std::string, double> setup_layers;
    std::array<double, kLayerCount> setup_self{};
    if (!args.trace) {
        for (int i = 0; i < kMinSetups; ++i) timed_setup();
    } else {
        // An untraced setup first, so the traced one is not the
        // process's cold first run.
        PassResult warm;
        workload->setup(args.seed, nullptr, warm);
        tally.add(warm);
        PassResult r;
        Trace trace;
        obs::set_enabled(true);
        obs::reset_all();
        const std::uint64_t t0 = obs::Stopwatch::now_ns();
        {
            const ScopedSpan root(&trace, "setup", Layer::kBench);
            workload->setup(args.seed, &trace, r);
        }
        setup_s.push_back(seconds_since(t0));
        obs::set_enabled(false);
        setup_layers = layer_figures(trace, obs::snapshot(), r, width);
        setup_self = trace.self_seconds();
        tally.add(r);
    }

    // Passes until the time is up. A traced run alternates untraced and
    // traced passes so both see the same machine state.
    std::vector<double> plain_wall;
    std::vector<double> traced_wall;
    std::map<std::string, std::vector<double>> rates;
    std::map<std::string, std::vector<double>> e2e_latency;
    std::map<std::string, std::vector<double>> layer_samples;
    const std::uint64_t start = obs::Stopwatch::now_ns();
    bool traced_next = false;
    while (seconds_since(start) < args.seconds ||
           plain_wall.size() < kMinPasses ||
           (args.trace && traced_wall.size() < kMinPasses)) {
        const bool traced = args.trace && traced_next;
        traced_next = !traced_next;
        if (!args.trace &&
            setup_total_s < kSetupShare * seconds_since(run_start)) {
            timed_setup();
        }
        PassResult r;
        Trace trace;
        if (traced) {
            obs::set_enabled(true);
            obs::reset_all();
        }
        const std::uint64_t t0 = obs::Stopwatch::now_ns();
        {
            const ScopedSpan root(traced ? &trace : nullptr, "pass", Layer::kBench);
            r = workload->pass(traced ? &trace : nullptr);
        }
        const double wall = seconds_since(t0);
        tally.add(r);
        tally.compare(tally.counters, r.counters, "workload counters");
        if (traced) {
            obs::set_enabled(false);
            const obs::Snapshot snap = obs::snapshot();
            tally.compare(tally.obs_counters, exact_obs_counters(snap),
                          "obs counters");
            traced_wall.push_back(wall);
            for (const auto& [name, value] : layer_figures(trace, snap, r, width)) {
                layer_samples[name].push_back(value);
            }
            continue;
        }
        plain_wall.push_back(wall);
        for (const auto& [name, value] : r.rates) rates[name].push_back(value);
        for (auto& [stem, samples] : r.latencies_us) {
            if (stem != kEndToEndLatency) continue;
            auto& pooled = e2e_latency[stem];
            pooled.insert(pooled.end(), samples.begin(), samples.end());
        }
    }

    // --- end-to-end figures (untraced passes) ---------------------------
    Json workload_metrics;
    const std::array<const char*, 2> headline = workload->headline();
    for (const auto& [name, samples] : rates) {
        workload_metrics.set(name, Json::metric(median(samples), "1/s"));
    }
    for (const auto& [stem, samples] : e2e_latency) {
        const std::string base = stem.substr(0, stem.size() - 3);  // drop "_us"
        workload_metrics.set(base + "_p50_us",
                             Json::metric(percentile(samples, 0.5), "us"));
        workload_metrics.set(base + "_p99_us",
                             Json::metric(percentile(samples, 0.99), "us"));
        workload_metrics.set(base + "_samples",
                             Json::metric(static_cast<double>(samples.size()),
                                          "count"));
    }
    const double error_rate = static_cast<double>(tally.failed) /
                              static_cast<double>(std::max<std::uint64_t>(
                                  tally.attempted, 1));
    workload_metrics.set("error_rate", Json::metric(error_rate, "share"));
    workload_metrics.set("setup_s", Json::metric(median(setup_s), "s"));
    workload_metrics.set("peak_rss_mb", Json::metric(peak_rss_mb(), "MB"));

    Json report;
    report.set("workload", args.workload);
    report.set("config", config_block(args, *workload, width));
    report.set("correct", tally.failed == 0);
    report.set("attempted", tally.attempted);
    report.set("failed", tally.failed);
    Json::Array failures;
    for (const std::string& f : tally.failures) failures.emplace_back(f);
    report.set("failures", Json(std::move(failures)));
    report.set("passes", static_cast<std::uint64_t>(plain_wall.size()));
    report.set("pass_wall_s", median(plain_wall));
    Json pass_rates;
    for (const auto& [name, samples] : rates) {
        Json::Array values(samples.begin(), samples.end());
        pass_rates.set(name, Json(std::move(values)));
    }
    report.set("pass_rates", std::move(pass_rates));
    Json::Array setups;
    for (const double s : setup_s) setups.emplace_back(s);
    report.set("setup_runs_s", Json(std::move(setups)));

    // Every figure the run computed, by name; run.py reports the ones
    // BENCHMARK.json names, with their units.
    std::map<std::string, double> figures;
    if (!args.trace) {
        figures["setup_s"] = median(setup_s);
        figures["peak_rss_mb"] = peak_rss_mb();
        figures["primary_per_s"] = median(rates[headline[0]]);
        figures["secondary_per_s"] = median(rates[headline[1]]);
    } else {
        // Per-layer figures describe the passes, except the builds that
        // make up set-up: where the passes do not run them, they come
        // from the traced setup.
        for (const auto& [name, samples] : layer_samples) {
            figures[name] = median(samples);
        }
        for (const char* name : kSetupMetrics) {
            if (figures[name] == 0.0) figures[name] = setup_layers[name];
        }
        // From the untraced passes; 0 on workloads without the client.
        const std::vector<double>& attack = e2e_latency[kEndToEndLatency];
        figures["attack_p50_us"] = percentile(attack, 0.5);
        figures["attack_p99_us"] = percentile(attack, 0.99);
        figures["obs.trace_overhead_share"] =
            median(traced_wall) / median(plain_wall) - 1.0;
        report.set("traced_passes", static_cast<std::uint64_t>(traced_wall.size()));
        report.set("traced_pass_wall_s", median(traced_wall));
        Json attribution;
        attribution.set("setup", attribution_json(setup_self));
        std::array<double, kLayerCount> pass_self{};
        for (std::size_t l = 0; l < kLayerCount; ++l) {
            pass_self[l] =
                figures[std::string(layer_name(static_cast<Layer>(l))) + ".self_s"];
        }
        attribution.set("pass", attribution_json(pass_self));
        report.set("attribution", std::move(attribution));
        report.set("obs_counters", Json::from(tally.obs_counters));
    }
    Json figures_json;
    for (const auto& [name, value] : figures) figures_json.set(name, value);
    report.set("figures", std::move(figures_json));
    report.set("workload_metrics", std::move(workload_metrics));
    report.set("counters", Json::from(tally.counters));
    report.set("headline", Json(Json::Array{Json(headline[0]), Json(headline[1])}));

    for (const std::string& f : tally.failures) {
        std::cerr << "perfbench: check failed: " << f << "\n";
    }
    std::cout << report.dump() << "\n";
    return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    return perfbench::run(perfbench::parse_args(argc, argv));
}
