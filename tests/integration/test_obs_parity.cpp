// Observation must never perturb results: every analytical output is
// byte-identical with XRPL_OBS recording off or on, serial or wide.
// This is the acceptance gate for instrumenting hot paths — counters
// are striped side channels and phases live on the calling thread, so
// none of them can reorder a chunk merge or touch a value.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "analytics/survival.hpp"
#include "core/anonymity.hpp"
#include "core/fingerprint.hpp"
#include "core/ig_study.hpp"
#include "core/resolution.hpp"
#include "datagen/history.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"

namespace xrpl {
namespace {

datagen::GeneratorConfig parity_config() {
    datagen::GeneratorConfig config;
    config.seed = 20170605;
    config.num_users = 400;
    config.num_gateways = 10;
    config.num_market_makers = 20;
    config.num_merchants = 50;
    config.num_hubs = 6;
    config.target_payments = 12'000;
    return config;
}

/// One generated history shared by all parity checks; every test
/// restores recording to OFF (the process default) when it finishes.
class ObsParityTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        obs::set_enabled(false);
        history_ = new datagen::GeneratedHistory(
            datagen::generate_history(parity_config()));
    }
    static void TearDownTestSuite() {
        delete history_;
        history_ = nullptr;
    }
    void TearDown() override {
        obs::reset_all();
        obs::set_enabled(false);
    }

    /// Run `scan` four ways — recording {off, on} × pool width {1, 8} —
    /// and assert every result equals the unobserved serial baseline.
    template <typename Scan>
    static void expect_invariant(const Scan& scan) {
        obs::set_enabled(false);
        exec::ScopedParallelism serial(1);
        const auto baseline = scan();
        for (const bool enabled : {false, true}) {
            obs::set_enabled(enabled);
            obs::reset_all();
            for (const std::size_t width : {std::size_t{1}, std::size_t{8}}) {
                exec::ScopedParallelism pool(width);
                EXPECT_EQ(scan(), baseline)
                    << "obs=" << enabled << " width=" << width;
            }
        }
    }

    static datagen::GeneratedHistory* history_;
};

datagen::GeneratedHistory* ObsParityTest::history_ = nullptr;

TEST_F(ObsParityTest, FingerprintColumnUnperturbed) {
    const core::ResolutionConfig config = core::full_resolution();
    expect_invariant([&] {
        return core::fingerprint_column(history_->payments.view(), config);
    });
}

TEST_F(ObsParityTest, IgStudyUnperturbed) {
    expect_invariant([&] {
        std::vector<std::uint64_t> identified;
        for (const auto& row : core::run_ig_study(history_->payments.view())) {
            identified.push_back(row.result.uniquely_identified);
            identified.push_back(row.result.total_payments);
        }
        return identified;
    });
}

TEST_F(ObsParityTest, AnonymityProfileUnperturbed) {
    expect_invariant([&] {
        std::vector<std::map<std::uint32_t, std::uint64_t>> histograms;
        for (const core::ResolutionConfig& config : core::fig3_configurations()) {
            histograms.push_back(
                core::analyze_anonymity(history_->payments.view(), config)
                    .histogram());
        }
        return histograms;
    });
}

TEST_F(ObsParityTest, AmountSamplesUnperturbed) {
    expect_invariant(
        [&] { return analytics::amount_samples(history_->payments.view()); });
}

TEST_F(ObsParityTest, RecordingActuallyHappenedWhileEnabled) {
    // Guard against vacuous parity: the enabled legs above must have
    // exercised the instrumented paths. Re-run one scan with recording
    // on and check the hot counter moved.
    obs::set_enabled(true);
    obs::reset_all();
    const core::ResolutionConfig config = core::full_resolution();
    (void)core::fingerprint_column(history_->payments.view(), config);
    EXPECT_EQ(obs::counter("core.fingerprint.rows").value(),
              history_->payments.view().size());
}

}  // namespace
}  // namespace xrpl
