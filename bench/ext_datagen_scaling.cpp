// Extension — datagen thread-scaling sweep.
//
// Generates the same history at pool widths 1/2/4/8 and reports
// payments per second at each width, as JSON (one object, stdout).
// The sharded generator must scale — the ISSUE's acceptance bar is
// >= 3x at 8 threads — while staying byte-identical at every width;
// the sweep asserts the identical part too (size, last close and the
// columns_fingerprint of the whole history), so a perf regression
// can't hide behind a silent output drift. The JSON carries the
// fingerprint and last close, so a CI baseline can pin them.
//
// Knobs: XRPL_BENCH_DATAGEN_PAYMENTS (default 100,000) sizes the
// history; the slice width is fixed at target/16 so even the widest
// pool has two slices per worker to balance.
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "bench/harness.hpp"
#include "datagen/history.hpp"
#include "exec/thread_pool.hpp"
#include "obs/stopwatch.hpp"

XRPL_BENCH("ext_datagen_scaling", "Extension",
           "datagen thread-scaling sweep") {
    using namespace xrpl;

    const std::uint64_t target = util::options().bench_datagen_payments;
    datagen::GeneratorConfig config;
    config.seed = 20170605;
    config.num_users = 4'000;
    config.num_gateways = 30;
    config.num_market_makers = 80;
    config.num_merchants = 300;
    config.num_hubs = 15;
    config.target_payments = target;
    config.payments_per_slice = std::max<std::uint64_t>(1, target / 16);

    struct Point {
        std::size_t threads;
        double seconds;
        double payments_per_sec;
    };
    std::vector<Point> points;
    std::size_t baseline_payments = 0;
    std::int64_t baseline_close = 0;
    std::string baseline_fingerprint;

    for (const std::size_t width : {1u, 2u, 4u, 8u}) {
        exec::ScopedParallelism pool(width);
        const obs::Stopwatch watch;
        const datagen::GeneratedHistory history =
            datagen::generate_history(config);
        const double seconds = watch.elapsed_seconds();
        const std::string fingerprint =
            ledger::columns_fingerprint(history.payments);
        if (width == 1) {
            baseline_payments = history.payments.size();
            baseline_close = history.last_close.seconds;
            baseline_fingerprint = fingerprint;
        } else if (history.payments.size() != baseline_payments ||
                   history.last_close.seconds != baseline_close ||
                   fingerprint != baseline_fingerprint) {
            std::cerr << "FATAL: output drifted at width " << width << "\n";
            return 1;
        }
        points.push_back({width, seconds,
                          static_cast<double>(history.payments.size()) /
                              seconds});
    }

    const double base = points.front().payments_per_sec;
    std::cout << "{\n"
              << "  \"bench\": \"ext_datagen_scaling\",\n"
              << "  \"payments\": " << baseline_payments << ",\n"
              << "  \"fingerprint\": \"" << baseline_fingerprint << "\",\n"
              << "  \"last_close\": " << baseline_close << ",\n"
              << "  \"payments_per_slice\": " << config.payments_per_slice
              << ",\n"
              << "  \"results\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point& p = points[i];
        std::cout << "    {\"threads\": " << p.threads << ", \"seconds\": "
                  << p.seconds << ", \"payments_per_sec\": "
                  << static_cast<std::uint64_t>(p.payments_per_sec)
                  << ", \"speedup\": " << p.payments_per_sec / base << "}"
                  << (i + 1 < points.size() ? "," : "") << "\n";
    }
    std::cout << "  ]\n}\n";
    return 0;
}
