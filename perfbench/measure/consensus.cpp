// Consensus steps — Fig 2's three validator periods through the RPCA
// simulator with the validation monitor attached, then a full node fed
// a payment stream through its open-ledger queue and drained round by
// round. The replay workload runs them in each pass; without them the
// consensus and node layers would go unmeasured.
#include <optional>
#include <unordered_map>

#include "consensus/monitor.hpp"
#include "consensus/period_config.hpp"
#include "consensus/rpca.hpp"
#include "datagen/history.hpp"
#include "measure/workload.hpp"
#include "node/node.hpp"
#include "obs/stopwatch.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace xrpl;

/// Share of a full 252,000-round fortnight simulated per period.
constexpr double kPeriodScale = 0.05;
/// The node's population: the paper benches' mix (bench/common.hpp's
/// default_history_config).
constexpr std::size_t kUsers = 8'000;
constexpr std::size_t kGateways = 40;
constexpr std::size_t kMarketMakers = 120;
constexpr std::size_t kMerchants = 500;
constexpr std::size_t kHubs = 20;
constexpr std::size_t kNodeTxs = 2'000;
/// Upper bound on node rounds per pass; draining takes far fewer.
constexpr std::size_t kMaxNodeRounds = 20'000;

class Consensus final : public Workload {
public:
    void setup(std::uint64_t seed, Trace* trace, PassResult& out) override {
        state_.reset();
        state_.emplace();
        State& s = *state_;
        const util::RngStream root(seed);
        s.periods = consensus::all_periods();
        for (std::size_t i = 0; i < s.periods.size(); ++i) {
            s.configs.push_back(consensus::two_week_config(
                kPeriodScale, root.derive("period", i)));
        }

        datagen::GeneratorConfig config;
        config.seed = seed;
        config.num_users = kUsers;
        config.num_gateways = kGateways;
        config.num_market_makers = kMarketMakers;
        config.num_merchants = kMerchants;
        config.num_hubs = kHubs;
        {
            const ScopedSpan span(trace, "datagen.generate_population_only",
                                  Layer::kDatagen);
            s.snapshot = datagen::generate_population_only(config);
        }
        std::vector<paths::PaymentRequest> requests;
        {
            const ScopedSpan span(trace, "datagen.replay_workload",
                                  Layer::kDatagen);
            util::Rng rng = root.derive("node_stream").rng();
            requests = datagen::make_replay_workload(s.snapshot.population,
                                                     kNodeTxs, 0.0, rng);
        }
        std::unordered_map<ledger::AccountID, std::uint32_t> sequence;
        s.txs.reserve(requests.size());
        for (const paths::PaymentRequest& request : requests) {
            ledger::Transaction tx;
            tx.type = ledger::TxType::kPayment;
            tx.sender = request.sender;
            tx.sequence = ++sequence[request.sender];
            tx.destination = request.destination;
            tx.amount = request.deliver;
            tx.source_currency = request.source_currency;
            s.txs.push_back(std::move(tx));
        }
        ++out.attempted;
        out.check(s.txs.size() == kNodeTxs, "consensus: node stream is short");
        clone_world(trace);
    }

    PassResult pass(Trace* trace) override {
        State& s = *state_;
        PassResult out;
        if (!s.world) clone_world(trace);

        // --- Fig 2: three periods with the monitor attached -------------
        std::uint64_t rounds = 0;
        std::uint64_t failed_rounds = 0;
        std::vector<double>& round_us = out.latencies_us["consensus.round_us"];
        std::uint64_t t0 = obs::Stopwatch::now_ns();
        for (std::size_t i = 0; i < s.periods.size(); ++i) {
            const consensus::ConsensusConfig& config = s.configs[i];
            consensus::ConsensusSimulation sim(s.periods[i].validators, config);
            consensus::ValidationStream stream;
            consensus::ValidationMonitor monitor(sim.validators());
            monitor.attach(stream);
            std::uint64_t failed = 0;
            if (trace == nullptr) {
                const consensus::ConsensusStats stats = sim.run(stream);
                failed = stats.main_rounds_failed;
                out.check(stats.rounds == config.rounds &&
                              stats.main_pages_closed == sim.main_chain().size(),
                          "consensus: run() round count differs from config");
            } else {
                // ConsensusSimulation::run's loop, one span per round.
                round_us.reserve(round_us.size() + config.rounds);
                double clock = 0.0;
                for (std::uint64_t round = 1; round <= config.rounds; ++round) {
                    clock += config.round_interval_seconds;
                    const util::RippleTime close_time{
                        config.start_time.seconds +
                        static_cast<std::int64_t>(clock)};
                    const std::uint64_t r0 = obs::Stopwatch::now_ns();
                    bool closed = false;
                    {
                        const ScopedSpan span(trace, "consensus.run_round",
                                              Layer::kConsensus);
                        closed = sim.run_round(round, close_time, {}, stream)
                                     .main_closed;
                    }
                    round_us.push_back(micros_since(r0));
                    failed += closed ? 0 : 1;
                }
            }
            const std::uint64_t pages = sim.main_chain().size();
            out.check(pages + failed == config.rounds,
                      "consensus: main pages plus failed rounds != rounds");
            std::uint64_t valid = 0;
            for (const consensus::ValidatorReport& r : monitor.report()) {
                out.check(r.valid_pages <= r.total_pages,
                          "consensus: a validator has more valid than total pages");
                valid += r.valid_pages;
            }
            const std::string p = "consensus.period" + std::to_string(i);
            out.count(p + ".main_pages", pages);
            out.count(p + ".rounds_failed", failed);
            out.count(p + ".monitor_valid_pages", valid);
            rounds += config.rounds;
            failed_rounds += failed;
        }
        const double consensus_s = seconds_since(t0);
        out.rates["consensus_rounds_per_s"] =
            static_cast<double>(rounds) / consensus_s;
        out.attempted += rounds;

        // --- full node: submit the stream, drain round by round ---------
        node::NodeConfig config;
        config.consensus.seed = s.configs.front().seed;
        config.consensus.start_time = util::from_calendar(2016, 7, 1);
        std::vector<double>& submit_us = out.latencies_us["node.submit_us"];
        std::vector<double>& node_round_us = out.latencies_us["node.round_us"];
        std::uint64_t applied = 0;
        std::uint64_t retried = 0;
        std::uint64_t node_rounds = 0;
        std::uint64_t sealed = 0;
        bool chain_ok = false;
        t0 = obs::Stopwatch::now_ns();
        {
            node::Node node(*s.world, s.periods[1].validators, config);
            std::uint64_t queued = 0;
            for (const ledger::Transaction& tx : s.txs) {
                const std::uint64_t r0 = obs::Stopwatch::now_ns();
                node::TransactionQueue::SubmitResult result{};
                {
                    const ScopedSpan span(trace, "node.submit", Layer::kNode);
                    result = node.submit(tx);
                }
                if (trace != nullptr) submit_us.push_back(micros_since(r0));
                queued +=
                    result == node::TransactionQueue::SubmitResult::kQueued ? 1 : 0;
            }
            while (!node.queue().empty() && node_rounds < kMaxNodeRounds) {
                const std::uint64_t r0 = obs::Stopwatch::now_ns();
                node::RoundReport report;
                {
                    const ScopedSpan span(trace, "node.run_round", Layer::kNode);
                    report = node.run_round();
                }
                if (trace != nullptr) node_round_us.push_back(micros_since(r0));
                ++node_rounds;
                applied += report.applied.size();
                retried += report.retried;
                sealed += report.outcome.main_closed ? 1 : 0;
            }
            const double node_s = seconds_since(t0);
            out.rates["node_txs_per_s"] = static_cast<double>(s.txs.size()) / node_s;
            out.check(queued == s.txs.size(),
                      "node: a submitted transaction was not queued");
            out.check(applied == s.txs.size() && node.queue().empty(),
                      "node: sealed pages do not hold every submitted transaction");
            chain_ok = node.chain().verify_chain() == node.chain().size() &&
                       node.chain().size() == sealed;
        }
        s.world.reset();
        out.attempted += s.txs.size();
        out.check(chain_ok, "node: verify_chain() does not cover the whole chain");
        out.count("consensus.rounds", rounds);
        out.count("consensus.rounds_failed", failed_rounds);
        out.count("node.rounds", node_rounds);
        out.count("node.pages", sealed);
        out.count("node.retried", retried);

        out.layer["paths.payments_executed"] = static_cast<double>(applied);
        if (trace != nullptr) {
            out.layer["node.txs_per_page"] =
                sealed == 0 ? 0.0
                            : static_cast<double>(applied) /
                                  static_cast<double>(sealed);
            out.layer["node.retried_share"] =
                static_cast<double>(retried) /
                static_cast<double>(retried + applied);
            out.layer["ledger.accounts"] =
                static_cast<double>(s.snapshot.ledger.account_count());
            out.layer["ledger.trust_lines"] =
                static_cast<double>(s.snapshot.ledger.trustline_count());
            out.layer["ledger.offers"] =
                static_cast<double>(s.snapshot.ledger.offer_count());
        }
        return out;
    }

    [[nodiscard]] std::array<const char*, 2> headline() const override {
        return {"consensus_rounds_per_s", "node_txs_per_s"};
    }

    [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> sizes()
        const override {
        std::uint64_t rounds = 0;
        if (state_) {
            for (const auto& config : state_->configs) rounds += config.rounds;
        }
        return {{"periods", 3},
                {"rounds", rounds},
                {"node_users", kUsers},
                {"node_txs", kNodeTxs}};
    }

private:
    void clone_world(Trace* trace) {
        const ScopedSpan span(trace, "ledger.clone", Layer::kLedger);
        state_->world.emplace(state_->snapshot.ledger.clone());
    }

    struct State {
        std::vector<consensus::PeriodSpec> periods;
        std::vector<consensus::ConsensusConfig> configs;
        datagen::PopulationSnapshot snapshot;
        std::vector<ledger::Transaction> txs;
        std::optional<ledger::LedgerState> world;
    };
    std::optional<State> state_;
};

}  // namespace

std::unique_ptr<Workload> make_consensus() {
    return std::make_unique<Consensus>();
}

}  // namespace perfbench
