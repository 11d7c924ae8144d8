// Extension — replay throughput of the CSR path engine at scale.
//
// Builds a population snapshot sized by XRPL_BENCH_REPLAY_ACCOUNTS
// (users; default 20,000 — the paper-scale run uses 100,000), seeds
// every Market Maker's order book, generates a delivered Table II
// replay stream, then replays it once. Reports payments/second,
// paths.nodes_expanded per payment (the search-space cost that grows
// with the graph) and paths.capacity_reads per payment (the edges the
// searches priced) as JSON on stdout; the same numbers land in
// BENCH_ext_replay_scaling.json via bench gauges, next to the
// paths.nodes_expanded, paths.capacity_reads and paths.index.*
// counters. CI compares the exact counts against
// bench/baselines/ext_replay_scaling.ci.json.
//
// Knobs: XRPL_BENCH_REPLAY_ACCOUNTS (population), and
// XRPL_BENCH_REPLAY_PAYMENTS (stream length, default 40,000).
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench/common.hpp"
#include "bench/harness.hpp"
#include "obs/metrics.hpp"
#include "obs/stopwatch.hpp"
#include "paths/replay.hpp"
#include "util/rng.hpp"

namespace {

/// Population snapshots carry no offers (books are built by the
/// workload stage this bench skips), so seed each maker's book here:
/// two XRP-bridge quotes per currency the maker holds, fair-rate
/// sized, deterministic in the derived rng. Enough for the engine's
/// auto-bridge to serve the stream's cross-currency payments.
void seed_offer_books(xrpl::ledger::LedgerState& state,
                      const xrpl::datagen::Population& population,
                      xrpl::util::Rng& rng) {
    using xrpl::ledger::Amount;
    using xrpl::ledger::Currency;
    for (const xrpl::ledger::AccountID& maker : population.market_makers) {
        std::vector<Currency> currencies;
        for (const xrpl::ledger::TrustLine* line : state.lines_of(maker)) {
            const Currency c = line->key().currency;
            if (std::find(currencies.begin(), currencies.end(), c) ==
                currencies.end()) {
                currencies.push_back(c);
            }
        }
        for (const Currency c : currencies) {
            const double value = xrpl::datagen::usd_value(c);
            const double depth = (5e5 / value) * rng.lognormal(0.0, 0.4);
            const double xrp_per_unit =
                value / xrpl::datagen::usd_value(Currency::xrp());
            // Maker sells c for XRP and XRP for c, with a small spread.
            state.place_offer(maker, Amount::iou(c, depth),
                              Amount::iou(Currency::xrp(),
                                          depth * xrp_per_unit *
                                              rng.uniform(1.002, 1.02)));
            state.place_offer(
                maker, Amount::iou(Currency::xrp(), depth * xrp_per_unit),
                Amount::iou(c, depth / rng.uniform(1.002, 1.02)));
        }
    }
}

}  // namespace

XRPL_BENCH("ext_replay_scaling", "Extension",
           "replay throughput of the CSR path engine at scale") {
    using namespace xrpl;

    datagen::GeneratorConfig config;
    config.seed = 20150815;
    config.num_users = util::options().bench_replay_accounts;
    config.num_gateways = 40;
    config.num_market_makers =
        std::clamp<std::size_t>(config.num_users / 100, 40, 400);
    config.num_merchants =
        std::clamp<std::size_t>(config.num_users / 16, 100, 8'000);
    config.num_hubs = 20;

    std::cout << "[population: " << config.num_users << " users ...]\n";
    datagen::PopulationSnapshot snapshot =
        datagen::generate_population_only(config);
    util::Rng offer_rng = util::RngStream(config.seed).derive("offers").rng();
    seed_offer_books(snapshot.ledger, snapshot.population, offer_rng);

    const std::uint64_t stream = util::options().bench_replay_payments;
    util::Rng rng = util::RngStream(config.seed).derive("replay").rng();
    const auto payments = datagen::make_delivered_replay_workload(
        snapshot.population, snapshot.ledger, stream, 0.687, rng);
    std::cout << "[accounts: " << snapshot.ledger.account_count()
              << ", offers: " << snapshot.ledger.offer_count()
              << ", replay stream: " << payments.size() << " payments]\n\n";

    obs::Counter& expanded = obs::counter("paths.nodes_expanded");
    obs::Counter& priced = obs::counter("paths.capacity_reads");
    ledger::LedgerState world = snapshot.ledger.clone();
    paths::PaymentEngine engine(world);
    const std::uint64_t expanded_before = expanded.value();
    const std::uint64_t priced_before = priced.value();
    const obs::Stopwatch watch;
    const paths::ReplayStats stats = paths::replay(engine, payments);
    const double seconds = watch.elapsed_seconds();
    const std::uint64_t nodes_expanded = expanded.value() - expanded_before;
    const std::uint64_t capacity_reads = priced.value() - priced_before;
    const double payments_per_sec = static_cast<double>(payments.size()) / seconds;
    const auto per_payment = [&](std::uint64_t total) {
        return payments.empty() ? 0.0
                                : static_cast<double>(total) /
                                      static_cast<double>(payments.size());
    };
    const double nodes_per_payment = per_payment(nodes_expanded);
    const double reads_per_payment = per_payment(capacity_reads);

    // Mirror the headline numbers into the BENCH json's obs section.
    obs::gauge("bench.replay.pps")
        .set(static_cast<std::int64_t>(payments_per_sec));
    obs::gauge("bench.replay.nodes_per_payment")
        .set(static_cast<std::int64_t>(nodes_per_payment));
    obs::gauge("bench.replay.capacity_reads_per_payment")
        .set(static_cast<std::int64_t>(reads_per_payment));
    obs::gauge("bench.replay.accounts")
        .set(static_cast<std::int64_t>(snapshot.ledger.account_count()));

    std::cout << "{\n"
              << "  \"bench\": \"ext_replay_scaling\",\n"
              << "  \"accounts\": " << snapshot.ledger.account_count() << ",\n"
              << "  \"payments\": " << payments.size() << ",\n"
              << "  \"delivered\": " << stats.delivered() << ",\n"
              << "  \"seconds\": " << seconds << ",\n"
              << "  \"payments_per_sec\": "
              << static_cast<std::uint64_t>(payments_per_sec) << ",\n"
              << "  \"nodes_expanded\": " << nodes_expanded << ",\n"
              << "  \"nodes_expanded_per_payment\": " << nodes_per_payment << ",\n"
              << "  \"capacity_reads\": " << capacity_reads << ",\n"
              << "  \"capacity_reads_per_payment\": " << reads_per_payment << "\n"
              << "}\n";
    return 0;
}
