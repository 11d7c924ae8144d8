#include "node/node.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace xrpl::node {
namespace {

using consensus::ValidatorBehavior;
using consensus::ValidatorSpec;
using ledger::AccountID;
using ledger::Amount;
using ledger::Currency;
using ledger::Transaction;
using ledger::XrpAmount;

std::vector<ValidatorSpec> healthy_unl() {
    std::vector<ValidatorSpec> validators;
    for (int i = 1; i <= 5; ++i) {
        ValidatorSpec v;
        v.label = "R" + std::to_string(i);
        v.behavior = ValidatorBehavior::kCore;
        v.availability = 1.0;
        v.on_unl = true;
        validators.push_back(v);
    }
    return validators;
}

NodeConfig default_config() {
    NodeConfig config;
    config.consensus.seed = 5;
    config.consensus.start_time = util::from_calendar(2015, 1, 1);
    return config;
}

Transaction xrp_payment(const std::string& from, const std::string& to,
                        double amount, std::uint32_t sequence = 1) {
    Transaction tx;
    tx.type = ledger::TxType::kPayment;
    tx.sender = AccountID::from_seed(from);
    tx.sequence = sequence;
    tx.destination = AccountID::from_seed(to);
    tx.amount = Amount::xrp(amount);
    tx.source_currency = Currency::xrp();
    return tx;
}

class NodeTest : public ::testing::Test {
protected:
    void SetUp() override {
        state_.create_account(AccountID::from_seed("alice"),
                              XrpAmount::from_xrp(1'000));
        state_.create_account(AccountID::from_seed("bob"),
                              XrpAmount::from_xrp(1'000));
    }
    ledger::LedgerState state_;
};

TEST_F(NodeTest, TransactionFlowsIntoASealedPage) {
    Node node(state_, healthy_unl(), default_config());
    const Transaction tx = xrp_payment("alice", "bob", 100.0);
    EXPECT_EQ(node.submit(tx), TransactionQueue::SubmitResult::kQueued);

    const RoundReport report = node.run_round();
    EXPECT_TRUE(report.outcome.main_closed);
    ASSERT_EQ(report.applied.size(), 1u);
    EXPECT_TRUE(report.applied[0].success);
    EXPECT_EQ(report.applied[0].id, tx.id());

    // The page carries the transaction id and the chain verifies.
    ASSERT_EQ(node.chain().size(), 1u);
    ASSERT_EQ(node.chain().last().tx_ids.size(), 1u);
    EXPECT_EQ(node.chain().last().tx_ids[0], tx.id());
    EXPECT_EQ(node.chain().verify_chain(), 1u);

    // Balances moved, fee burned.
    EXPECT_EQ(state_.account(AccountID::from_seed("bob"))->balance.drops,
              1'100'000'000);
    EXPECT_EQ(state_.burned_fees().drops, 10);
}

TEST_F(NodeTest, FinalityIsInclusionNotSuccess) {
    // A payment alice cannot afford is still SEALED in the page (like
    // a tec result), it just does not move funds.
    Node node(state_, healthy_unl(), default_config());
    const Transaction tx = xrp_payment("alice", "bob", 5'000.0);
    node.submit(tx);
    const RoundReport report = node.run_round();
    EXPECT_TRUE(report.outcome.main_closed);
    ASSERT_EQ(report.applied.size(), 1u);
    EXPECT_FALSE(report.applied[0].success);
    EXPECT_EQ(node.chain().last().tx_ids.size(), 1u);
    EXPECT_EQ(state_.account(AccountID::from_seed("bob"))->balance.drops,
              1'000'000'000);
}

TEST_F(NodeTest, EmptyRoundsSealEmptyPages) {
    Node node(state_, healthy_unl(), default_config());
    const RoundReport report = node.run_round();
    EXPECT_TRUE(report.outcome.main_closed);
    EXPECT_TRUE(report.applied.empty());
    EXPECT_TRUE(node.chain().last().tx_ids.empty());
}

TEST_F(NodeTest, FailedQuorumRetriesTheBatch) {
    // A UNL that can never reach 80%: every candidate set is retried.
    std::vector<ValidatorSpec> weak = healthy_unl();
    for (std::size_t i = 1; i < weak.size(); ++i) weak[i].availability = 0.0;

    Node node(state_, weak, default_config());
    node.submit(xrp_payment("alice", "bob", 10.0));
    const RoundReport report = node.run_round();
    EXPECT_FALSE(report.outcome.main_closed);
    EXPECT_EQ(report.retried, 1u);
    EXPECT_EQ(node.queue().size(), 1u);
    // Nothing applied, nothing sealed.
    EXPECT_TRUE(node.chain().empty());
    EXPECT_EQ(state_.account(AccountID::from_seed("bob"))->balance.drops,
              1'000'000'000);
}

TEST_F(NodeTest, BatchesRespectPageCap) {
    NodeConfig config = default_config();
    config.max_txs_per_page = 3;
    Node node(state_, healthy_unl(), config);
    for (std::uint32_t i = 1; i <= 7; ++i) {
        node.submit(xrp_payment("alice", "bob", 1.0, i));
    }
    const RoundReport first = node.run_round();
    EXPECT_EQ(first.applied.size(), 3u);
    EXPECT_EQ(node.queue().size(), 4u);

    const auto reports = node.run_until_idle(10);
    EXPECT_TRUE(node.queue().empty());
    EXPECT_EQ(node.chain().verify_chain(), node.chain().size());
    // All 7 transactions sealed across the pages.
    std::size_t sealed = 0;
    for (const auto& page : node.chain().pages()) sealed += page.tx_ids.size();
    EXPECT_EQ(sealed, 7u);
    (void)reports;
}

TEST_F(NodeTest, StreamCarriesTheRounds) {
    Node node(state_, healthy_unl(), default_config());
    std::size_t pages_seen = 0;
    node.stream().subscribe_pages([&](const consensus::PageClosed& page) {
        if (page.chain == consensus::ChainTag::kMain) ++pages_seen;
    });
    node.submit(xrp_payment("alice", "bob", 10.0));
    node.run_round();
    node.run_round();
    EXPECT_EQ(pages_seen, 2u);
    EXPECT_EQ(node.rounds_run(), 2u);
}

TEST_F(NodeTest, IouPaymentsWorkThroughTheNode) {
    // Gateway + trust lines, then an IOU payment via the node.
    const AccountID gateway = AccountID::from_seed("gw");
    state_.create_account(gateway, XrpAmount::from_xrp(10'000), true);
    ledger::TrustLine& line = state_.set_trust(
        AccountID::from_seed("alice"), gateway, Currency::from_code("USD"),
        ledger::IouAmount::from_double(1'000));
    ASSERT_TRUE(line.transfer_from(gateway, ledger::IouAmount::from_double(200)));
    state_.set_trust(AccountID::from_seed("bob"), gateway,
                     Currency::from_code("USD"),
                     ledger::IouAmount::from_double(1'000));

    Node node(state_, healthy_unl(), default_config());
    Transaction tx;
    tx.type = ledger::TxType::kPayment;
    tx.sender = AccountID::from_seed("alice");
    tx.destination = AccountID::from_seed("bob");
    tx.amount = Amount::iou(Currency::from_code("USD"), 50.0);
    tx.source_currency = Currency::from_code("USD");
    node.submit(tx);

    const RoundReport report = node.run_round();
    ASSERT_EQ(report.applied.size(), 1u);
    EXPECT_TRUE(report.applied[0].success);
    EXPECT_NEAR(state_
                    .trustline(AccountID::from_seed("bob"), gateway,
                               Currency::from_code("USD"))
                    ->balance_for(AccountID::from_seed("bob"))
                    .to_double(),
                50.0, 1e-9);
}

TEST_F(NodeTest, BadTrustSetIsSealedAsFailureAndLeavesLedgerIntact) {
    // A TrustSet towards an account with no AccountRoot, and one with
    // sender == peer, are sealed as failures and create no line; an
    // IOU payment in the next page still routes.
    const AccountID alice = AccountID::from_seed("alice");
    const AccountID bob = AccountID::from_seed("bob");
    const AccountID gateway = AccountID::from_seed("gw");
    const Currency usd = Currency::from_code("USD");
    state_.create_account(gateway, XrpAmount::from_xrp(10'000), true);
    ledger::TrustLine& line =
        state_.set_trust(alice, gateway, usd, ledger::IouAmount::from_double(1'000));
    ASSERT_TRUE(line.transfer_from(gateway, ledger::IouAmount::from_double(200)));
    state_.set_trust(bob, gateway, usd, ledger::IouAmount::from_double(1'000));
    const std::size_t lines = state_.trustline_count();
    const std::uint64_t generation = state_.topology_generation();

    Node node(state_, healthy_unl(), default_config());
    for (const auto& [sender, peer] :
         {std::pair{alice, AccountID::from_seed("ghost")}, std::pair{bob, bob}}) {
        Transaction trust;
        trust.type = ledger::TxType::kTrustSet;
        trust.sender = sender;
        trust.trust_peer = peer;
        trust.trust_currency = usd;
        trust.trust_limit = ledger::IouAmount::from_double(10);
        node.submit(trust);
    }
    const RoundReport trust_round = node.run_round();
    ASSERT_TRUE(trust_round.outcome.main_closed);
    ASSERT_EQ(trust_round.applied.size(), 2u);
    EXPECT_FALSE(trust_round.applied[0].success);
    EXPECT_FALSE(trust_round.applied[1].success);
    EXPECT_EQ(node.chain().last().tx_ids.size(), 2u);
    EXPECT_EQ(state_.trustline_count(), lines);
    EXPECT_EQ(state_.topology_generation(), generation);
    EXPECT_EQ(state_.account(AccountID::from_seed("ghost")), nullptr);

    Transaction pay;
    pay.type = ledger::TxType::kPayment;
    pay.sender = alice;
    pay.destination = bob;
    pay.amount = Amount::iou(usd, 50.0);
    pay.source_currency = usd;
    node.submit(pay);
    const RoundReport pay_round = node.run_round();
    ASSERT_EQ(pay_round.applied.size(), 1u);
    EXPECT_TRUE(pay_round.applied[0].success);
    EXPECT_NEAR(state_.trustline(bob, gateway, usd)->balance_for(bob).to_double(),
                50.0, 1e-9);
}

TEST_F(NodeTest, ExplicitPathsTransactionThroughTheNode) {
    // A payment carrying the ledger's Paths field seals and applies
    // along the specified route.
    const AccountID alice = AccountID::from_seed("alice");
    const AccountID bob = AccountID::from_seed("bob");
    const AccountID via = AccountID::from_seed("via");
    state_.create_account(via, XrpAmount::from_xrp(10), false, true);
    const Currency usd = Currency::from_code("USD");
    // alice -> via -> bob wiring with capacity.
    state_.set_trust(via, alice, usd, ledger::IouAmount::from_double(100));
    state_.set_trust(bob, via, usd, ledger::IouAmount::from_double(100));

    Node node(state_, healthy_unl(), default_config());
    Transaction tx;
    tx.type = ledger::TxType::kPayment;
    tx.sender = alice;
    tx.destination = bob;
    tx.amount = Amount::iou(usd, 25.0);
    tx.source_currency = usd;
    tx.paths = {{alice, via, bob}};
    node.submit(tx);

    const RoundReport report = node.run_round();
    ASSERT_EQ(report.applied.size(), 1u);
    EXPECT_TRUE(report.applied[0].success);
    EXPECT_EQ(report.applied[0].result.intermediate_hops, 1u);
    EXPECT_NEAR(
        state_.trustline(via, bob, usd)->balance_for(bob).to_double(), 25.0,
        1e-9);
}

}  // namespace
}  // namespace xrpl::node
