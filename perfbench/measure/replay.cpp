// Workload `replay` — Table II, the Market-Maker-removal replay.
//
// Many path queries against one long-lived GraphIndex per engine, on
// one thread, with ledger writes after every payment. A run replays
// three independent networks and reports their combined throughput.
// The makerless pass adds searches that fail: wasted work the baseline
// never does. Each pass then runs the consensus steps (Fig 2 periods
// and a full node, consensus.cpp), so the consensus and node layers
// are measured here; the replay throughputs time the replays alone.
#include <algorithm>
#include <optional>

#include "datagen/history.hpp"
#include "measure/workload.hpp"
#include "obs/stopwatch.hpp"
#include "paths/replay.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace xrpl;

/// Independent networks per run, each with its own population and
/// stream. One network's few hub and gateway draws set its search
/// cost; throughput over several is steadier from seed to seed.
constexpr std::size_t kNetworks = 3;
/// Users per network. The rest of the population follows
/// bench/ext_replay_scaling's ratios: 40 gateways, a Market Maker per
/// 100 users, a merchant per 16 users and 20 hubs.
constexpr std::size_t kUsers = 10'000;
constexpr std::size_t kGateways = 40;
constexpr std::size_t kMarketMakers = kUsers / 100;
constexpr std::size_t kMerchants = kUsers / 16;
constexpr std::size_t kHubs = 20;
/// Long enough that index builds (one per engine) stay near a third of
/// the replay time or less: the workload is about path queries.
constexpr std::size_t kStreamPerNetwork = 7'000;
/// The paper's Feb-Aug 2015 slice is 68.7% cross-currency.
constexpr double kCrossFraction = 0.687;

/// Population snapshots carry no offers, so each maker quotes both
/// sides of an XRP bridge for every currency it holds: enough depth
/// for the engine's auto-bridge to serve the cross-currency stream.
void seed_offer_books(ledger::LedgerState& state,
                      const datagen::Population& population, util::Rng& rng) {
    using ledger::Amount;
    using ledger::Currency;
    for (const ledger::AccountID& maker : population.market_makers) {
        std::vector<Currency> currencies;
        for (const ledger::TrustLine* line : state.lines_of(maker)) {
            const Currency c = line->key().currency;
            if (std::find(currencies.begin(), currencies.end(), c) ==
                currencies.end()) {
                currencies.push_back(c);
            }
        }
        for (const Currency c : currencies) {
            const double value = datagen::usd_value(c);
            const double depth = (5e5 / value) * rng.lognormal(0.0, 0.4);
            const double xrp_per_unit = value / datagen::usd_value(Currency::xrp());
            state.place_offer(maker, Amount::iou(c, depth),
                              Amount::iou(Currency::xrp(),
                                          depth * xrp_per_unit *
                                              rng.uniform(1.002, 1.02)));
            state.place_offer(maker,
                              Amount::iou(Currency::xrp(), depth * xrp_per_unit),
                              Amount::iou(c, depth / rng.uniform(1.002, 1.02)));
        }
    }
}

/// paths::replay's loop, one span and one latency sample per payment.
/// `undelivered_s` accumulates the time spent on payments that failed.
paths::ReplayStats traced_replay(paths::PaymentEngine& engine,
                                 std::span<const paths::PaymentRequest> payments,
                                 Trace* trace, std::vector<double>& latency_us,
                                 double& undelivered_s) {
    paths::ReplayStats stats;
    latency_us.reserve(payments.size());
    for (const paths::PaymentRequest& request : payments) {
        const bool cross = request.cross_currency();
        ++(cross ? stats.cross_submitted : stats.single_submitted);
        const std::uint64_t t0 = obs::Stopwatch::now_ns();
        bool delivered = false;
        {
            const ScopedSpan span(trace, "paths.execute", Layer::kPaths);
            delivered = engine.execute(request).success;
        }
        const double us = micros_since(t0);
        latency_us.push_back(us);
        if (delivered) {
            ++(cross ? stats.cross_delivered : stats.single_delivered);
        } else {
            undelivered_s += us * 1e-6;
        }
    }
    return stats;
}

void count_stats(PassResult& out, const char* prefix,
                 const paths::ReplayStats& stats) {
    const std::string p = prefix;
    out.count(p + ".cross_submitted", stats.cross_submitted);
    out.count(p + ".cross_delivered", stats.cross_delivered);
    out.count(p + ".single_submitted", stats.single_submitted);
    out.count(p + ".single_delivered", stats.single_delivered);
}

/// One replayed network: a population snapshot with seeded maker
/// books, its delivered stream, and the two ledger copies the next
/// pass replays against.
struct Network {
    datagen::PopulationSnapshot snapshot;
    std::vector<paths::PaymentRequest> payments;
    std::optional<ledger::LedgerState> baseline_world;
    std::optional<ledger::LedgerState> makerless_world;
};

void add(paths::ReplayStats& into, const paths::ReplayStats& stats) {
    into.cross_submitted += stats.cross_submitted;
    into.cross_delivered += stats.cross_delivered;
    into.single_submitted += stats.single_submitted;
    into.single_delivered += stats.single_delivered;
}

class Replay final : public Workload {
public:
    void setup(std::uint64_t seed, Trace* trace, PassResult& out) override {
        networks_.clear();
        networks_.resize(kNetworks);
        for (std::size_t i = 0; i < kNetworks; ++i) {
            Network& net = networks_[i];
            const util::RngStream root = util::RngStream(seed).derive("network", i);
            datagen::GeneratorConfig config;
            config.seed = root.key();
            config.num_users = kUsers;
            config.num_gateways = kGateways;
            config.num_market_makers = kMarketMakers;
            config.num_merchants = kMerchants;
            config.num_hubs = kHubs;
            {
                const ScopedSpan span(trace, "datagen.generate_population_only",
                                      Layer::kDatagen);
                net.snapshot = datagen::generate_population_only(config);
            }
            {
                const ScopedSpan span(trace, "ledger.seed_offer_books",
                                      Layer::kLedger);
                util::Rng rng = root.derive("offers").rng();
                seed_offer_books(net.snapshot.ledger, net.snapshot.population, rng);
            }
            {
                const ScopedSpan span(trace, "datagen.replay_workload",
                                      Layer::kDatagen);
                util::Rng rng = root.derive("replay").rng();
                net.payments = datagen::make_delivered_replay_workload(
                    net.snapshot.population, net.snapshot.ledger,
                    kStreamPerNetwork, kCrossFraction, rng);
            }
            ++out.attempted;
            out.check(!net.payments.empty(), "replay: delivered stream is empty");
            clone_worlds(net, trace);
        }
        consensus_->setup(seed, trace, out);
    }

    PassResult pass(Trace* trace) override {
        PassResult out;
        std::size_t n = 0;
        for (Network& net : networks_) {
            if (!net.baseline_world) clone_worlds(net, trace);
            n += net.payments.size();
        }

        // --- baseline: Market Makers present ----------------------------
        paths::ReplayStats baseline;
        double baseline_undelivered_s = 0.0;
        std::uint64_t t0 = obs::Stopwatch::now_ns();
        for (Network& net : networks_) {
            paths::PaymentEngine engine(*net.baseline_world);
            add(baseline, trace == nullptr
                              ? paths::replay(engine, net.payments)
                              : traced_replay(engine, net.payments, trace,
                                              out.latencies_us["paths.execute_us"],
                                              baseline_undelivered_s));
        }
        const double baseline_s = seconds_since(t0);
        out.rates["replay_baseline_payments_per_s"] =
            static_cast<double>(n) / baseline_s;

        // --- makerless: makers excluded, every offer removed ------------
        paths::ReplayStats makerless;
        double makerless_undelivered_s = 0.0;
        t0 = obs::Stopwatch::now_ns();
        for (Network& net : networks_) {
            paths::PaymentEngine engine(*net.makerless_world);
            const auto& makers = net.snapshot.population.market_makers;
            if (trace == nullptr) {
                add(makerless,
                    paths::replay_without(engine, net.payments, makers, true));
                continue;
            }
            // replay_without's preamble, then the traced loop.
            for (const ledger::AccountID& account : makers) {
                engine.graph().exclude(account);
                engine.ledger().remove_offers_of(account);
            }
            engine.ledger().clear_all_offers();
            add(makerless,
                traced_replay(engine, net.payments, trace,
                              out.latencies_us["paths.makerless.execute_us"],
                              makerless_undelivered_s));
        }
        const double makerless_s = seconds_since(t0);
        out.rates["replay_makerless_payments_per_s"] =
            static_cast<double>(n) / makerless_s;

        std::uint64_t cross = 0;
        double accounts = 0.0;
        double trust_lines = 0.0;
        double offers = 0.0;
        for (Network& net : networks_) {
            net.baseline_world.reset();
            net.makerless_world.reset();
            for (const paths::PaymentRequest& p : net.payments) {
                cross += p.cross_currency() ? 1 : 0;
            }
            accounts += static_cast<double>(net.snapshot.ledger.account_count());
            trust_lines +=
                static_cast<double>(net.snapshot.ledger.trustline_count());
            offers += static_cast<double>(net.snapshot.ledger.offer_count());
        }
        out.attempted += 2 * n;
        out.check(baseline.submitted() == n && makerless.submitted() == n,
                  "replay: submitted count differs from the stream length");
        out.check(baseline.cross_submitted == cross &&
                      makerless.cross_submitted == cross,
                  "replay: cross-currency submitted count differs");
        out.check(baseline.delivered() == n,
                  "replay: baseline did not deliver the delivered stream");
        out.check(makerless.cross_delivered == 0,
                  "replay: makerless pass delivered a cross-currency payment");
        count_stats(out, "paths.replay.baseline", baseline);
        count_stats(out, "paths.replay.makerless", makerless);

        if (trace != nullptr) {
            out.layer["paths.undelivered_time_share"] =
                makerless_undelivered_s / makerless_s;
            out.layer["ledger.accounts"] = accounts;
            out.layer["ledger.trust_lines"] = trust_lines;
            out.layer["ledger.offers"] = offers;
        }
        out.layer["paths.payments_executed"] = 2.0 * static_cast<double>(n);
        out.merge(consensus_->pass(trace));
        return out;
    }

    [[nodiscard]] std::array<const char*, 2> headline() const override {
        return {"replay_baseline_payments_per_s",
                "replay_makerless_payments_per_s"};
    }

    [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> sizes()
        const override {
        std::uint64_t stream = 0;
        std::uint64_t accounts = 0;
        for (const Network& net : networks_) {
            stream += net.payments.size();
            accounts += net.snapshot.ledger.account_count();
        }
        std::vector<std::pair<std::string, std::uint64_t>> out = {
            {"networks", kNetworks},
            {"users_per_network", kUsers},
            {"stream_requested_per_network", kStreamPerNetwork},
            {"stream", stream},
            {"accounts", accounts}};
        for (auto& size : consensus_->sizes()) out.push_back(std::move(size));
        return out;
    }

private:
    /// Fresh copies of the snapshot for the next pass; each replay
    /// mutates its world.
    static void clone_worlds(Network& net, Trace* trace) {
        const ScopedSpan span(trace, "ledger.clone", Layer::kLedger);
        net.baseline_world.emplace(net.snapshot.ledger.clone());
        net.makerless_world.emplace(net.snapshot.ledger.clone());
    }

    std::vector<Network> networks_;
    std::unique_ptr<Workload> consensus_ = make_consensus();
};

}  // namespace

std::unique_ptr<Workload> make_replay() { return std::make_unique<Replay>(); }

}  // namespace perfbench
