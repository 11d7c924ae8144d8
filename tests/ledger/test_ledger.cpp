#include "ledger/ledger.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace xrpl::ledger {
namespace {

class LedgerStateTest : public ::testing::Test {
protected:
    void SetUp() override {
        alice_ = AccountID::from_seed("alice");
        bob_ = AccountID::from_seed("bob");
        gateway_ = AccountID::from_seed("gateway");
        ASSERT_TRUE(state_.create_account(alice_, XrpAmount::from_xrp(100.0)));
        ASSERT_TRUE(state_.create_account(bob_, XrpAmount::from_xrp(50.0)));
        ASSERT_TRUE(
            state_.create_account(gateway_, XrpAmount::from_xrp(1000.0), true));
    }

    LedgerState state_;
    AccountID alice_, bob_, gateway_;
    const Currency usd_ = Currency::from_code("USD");
};

TEST_F(LedgerStateTest, DuplicateAccountRejected) {
    EXPECT_FALSE(state_.create_account(alice_, XrpAmount{}));
    EXPECT_EQ(state_.account_count(), 3u);
}

TEST_F(LedgerStateTest, DenseIndicesAreSequential) {
    EXPECT_EQ(state_.account(alice_)->index, 0u);
    EXPECT_EQ(state_.account(bob_)->index, 1u);
    EXPECT_EQ(state_.account(gateway_)->index, 2u);
    EXPECT_EQ(state_.account_by_index(1), bob_);
}

TEST_F(LedgerStateTest, GatewayFlagStored) {
    EXPECT_FALSE(state_.account(alice_)->is_gateway);
    EXPECT_TRUE(state_.account(gateway_)->is_gateway);
}

TEST_F(LedgerStateTest, XrpPaymentMovesDropsAndBurnsFee) {
    ASSERT_TRUE(state_.xrp_payment(alice_, bob_, XrpAmount::from_xrp(10.0),
                                   XrpAmount{10}));
    EXPECT_EQ(state_.account(alice_)->balance.drops, 100'000'000 - 10'000'000 - 10);
    EXPECT_EQ(state_.account(bob_)->balance.drops, 50'000'000 + 10'000'000);
    EXPECT_EQ(state_.burned_fees().drops, 10);
    EXPECT_EQ(state_.account(alice_)->sequence, 1u);
}

TEST_F(LedgerStateTest, XrpPaymentInsufficientFundsFails) {
    EXPECT_FALSE(state_.xrp_payment(bob_, alice_, XrpAmount::from_xrp(50.0),
                                    XrpAmount{10}));
    EXPECT_EQ(state_.account(bob_)->balance.drops, 50'000'000);
}

TEST_F(LedgerStateTest, XrpPaymentUnknownAccountFails) {
    EXPECT_FALSE(state_.xrp_payment(AccountID::from_seed("ghost"), alice_,
                                    XrpAmount{100}));
    EXPECT_FALSE(
        state_.xrp_payment(alice_, AccountID::from_seed("ghost"), XrpAmount{100}));
}

TEST_F(LedgerStateTest, XrpPaymentRejectsNonPositive) {
    EXPECT_FALSE(state_.xrp_payment(alice_, bob_, XrpAmount{0}));
    EXPECT_FALSE(state_.xrp_payment(alice_, bob_, XrpAmount{-5}));
}

TEST_F(LedgerStateTest, SetTrustCreatesLineOnce) {
    state_.set_trust(alice_, gateway_, usd_, IouAmount::from_double(100.0));
    EXPECT_EQ(state_.trustline_count(), 1u);
    state_.set_trust(alice_, gateway_, usd_, IouAmount::from_double(200.0));
    EXPECT_EQ(state_.trustline_count(), 1u);
    const TrustLine* line = state_.trustline(alice_, gateway_, usd_);
    ASSERT_NE(line, nullptr);
    EXPECT_NEAR(line->limit_of(alice_).to_double(), 200.0, 1e-9);
}

TEST_F(LedgerStateTest, TrustIsDirectional) {
    state_.set_trust(alice_, gateway_, usd_, IouAmount::from_double(100.0));
    const TrustLine* line = state_.trustline(alice_, gateway_, usd_);
    ASSERT_NE(line, nullptr);
    EXPECT_NEAR(line->limit_of(alice_).to_double(), 100.0, 1e-9);
    EXPECT_TRUE(line->limit_of(gateway_).is_zero());
}

TEST_F(LedgerStateTest, AdjacencyTracksBothEndpoints) {
    state_.set_trust(alice_, gateway_, usd_, IouAmount::from_double(100.0));
    state_.set_trust(bob_, gateway_, usd_, IouAmount::from_double(50.0));
    EXPECT_EQ(state_.lines_of(alice_).size(), 1u);
    EXPECT_EQ(state_.lines_of(bob_).size(), 1u);
    EXPECT_EQ(state_.lines_of(gateway_).size(), 2u);
    EXPECT_TRUE(state_.lines_of(AccountID::from_seed("ghost")).empty());
}

TEST_F(LedgerStateTest, LinesOfUnknownAccountIsEmpty) {
    state_.set_trust(alice_, gateway_, usd_, IouAmount::from_double(10.0));
    EXPECT_TRUE(state_.lines_of(AccountID::from_seed("nobody")).empty());
    EXPECT_TRUE(state_.lines_of(bob_).empty());
    EXPECT_TRUE(state_.lines_of_index(state_.account(bob_)->index).empty());
}

TEST_F(LedgerStateTest, LinesRecordEndpointIndicesAndCurrencyIds) {
    const Currency eur = Currency::from_code("EUR");
    state_.set_trust(alice_, gateway_, usd_, IouAmount::from_double(10.0));
    state_.set_trust(bob_, gateway_, eur, IouAmount::from_double(10.0));
    state_.set_trust(gateway_, bob_, usd_, IouAmount::from_double(10.0));
    // Currencies are interned in first-use order.
    ASSERT_EQ(state_.line_currencies(), (std::vector<Currency>{usd_, eur}));
    for (const AccountID& id : {alice_, bob_, gateway_}) {
        const std::uint32_t index = state_.account(id)->index;
        EXPECT_EQ(&state_.lines_of(id), &state_.lines_of_index(index));
        for (const TrustLine* line : state_.lines_of(id)) {
            EXPECT_EQ(line->low_index(), state_.account(line->key().low)->index);
            EXPECT_EQ(line->high_index(), state_.account(line->key().high)->index);
            EXPECT_EQ(state_.line_currencies().at(line->currency_id()),
                      line->key().currency);
        }
    }
    // Updating a limit keeps the line and its slots.
    const TrustLine* line = state_.trustline(bob_, gateway_, eur);
    EXPECT_EQ(&state_.set_trust(gateway_, bob_, eur, IouAmount::from_double(3.0)),
              line);
    EXPECT_EQ(line->currency_id(), 1u);
    EXPECT_EQ(state_.line_currencies().size(), 2u);
}

TEST_F(LedgerStateTest, SeparateCurrenciesSeparateLines) {
    state_.set_trust(alice_, gateway_, usd_, IouAmount::from_double(100.0));
    state_.set_trust(alice_, gateway_, Currency::from_code("EUR"),
                     IouAmount::from_double(100.0));
    EXPECT_EQ(state_.trustline_count(), 2u);
    EXPECT_EQ(state_.lines_of(alice_).size(), 2u);
}

TEST_F(LedgerStateTest, OffersSortedByRate) {
    const AccountID maker1 = AccountID::from_seed("maker1");
    const AccountID maker2 = AccountID::from_seed("maker2");
    state_.create_account(maker1, XrpAmount{});
    state_.create_account(maker2, XrpAmount{});
    // maker2 quotes the better (lower) rate: 1.2 USD per EUR vs 1.4.
    state_.place_offer(maker1, Amount::iou(usd_, 140.0),
                       Amount::iou(Currency::from_code("EUR"), 100.0));
    state_.place_offer(maker2, Amount::iou(usd_, 120.0),
                       Amount::iou(Currency::from_code("EUR"), 100.0));
    const auto& book =
        state_.book(BookKey{usd_, Currency::from_code("EUR")});
    ASSERT_EQ(book.size(), 2u);
    EXPECT_EQ(book[0].owner, maker2);
    EXPECT_LT(book[0].rate(), book[1].rate());
}

TEST_F(LedgerStateTest, RemoveOffersOfOwner) {
    const AccountID maker = AccountID::from_seed("maker");
    state_.create_account(maker, XrpAmount{});
    state_.place_offer(maker, Amount::iou(usd_, 10.0),
                       Amount::iou(Currency::from_code("EUR"), 9.0));
    state_.place_offer(gateway_, Amount::iou(usd_, 10.0),
                       Amount::iou(Currency::from_code("EUR"), 9.0));
    EXPECT_EQ(state_.offer_count(), 2u);
    state_.remove_offers_of(maker);
    EXPECT_EQ(state_.offer_count(), 1u);
    state_.clear_all_offers();
    EXPECT_EQ(state_.offer_count(), 0u);
}

TEST_F(LedgerStateTest, NetIouBalanceConvertsCurrencies) {
    state_.set_trust(alice_, gateway_, usd_, IouAmount::from_double(100.0));
    TrustLine* line = state_.trustline(alice_, gateway_, usd_);
    ASSERT_TRUE(line->transfer_from(gateway_, IouAmount::from_double(40.0)));
    const auto rate = [](Currency) { return 2.0; };  // 1 USD = 2 reference
    EXPECT_NEAR(state_.net_iou_balance(alice_, rate), 80.0, 1e-9);
    EXPECT_NEAR(state_.net_iou_balance(gateway_, rate), -80.0, 1e-9);
}

TEST_F(LedgerStateTest, TrustSummarySplitsDirections) {
    state_.set_trust(alice_, gateway_, usd_, IouAmount::from_double(100.0));
    const auto rate = [](Currency) { return 1.0; };
    const auto gateway_summary = state_.trust_summary(gateway_, rate);
    EXPECT_NEAR(gateway_summary.received, 100.0, 1e-9);  // alice trusts it
    EXPECT_NEAR(gateway_summary.given, 0.0, 1e-9);
    const auto alice_summary = state_.trust_summary(alice_, rate);
    EXPECT_NEAR(alice_summary.received, 0.0, 1e-9);
    EXPECT_NEAR(alice_summary.given, 100.0, 1e-9);
}

TEST_F(LedgerStateTest, CloneIsDeepAndIndependent) {
    state_.set_trust(alice_, gateway_, usd_, IouAmount::from_double(100.0));
    state_.place_offer(gateway_, Amount::iou(usd_, 10.0),
                       Amount::iou(Currency::from_code("EUR"), 9.0));

    LedgerState copy = state_.clone();
    EXPECT_EQ(copy.account_count(), state_.account_count());
    EXPECT_EQ(copy.trustline_count(), state_.trustline_count());
    EXPECT_EQ(copy.offer_count(), state_.offer_count());

    // Mutating the copy leaves the original untouched.
    TrustLine* copy_line = copy.trustline(alice_, gateway_, usd_);
    ASSERT_TRUE(copy_line->transfer_from(gateway_, IouAmount::from_double(10.0)));
    EXPECT_TRUE(state_.trustline(alice_, gateway_, usd_)->balance().is_zero());
    EXPECT_FALSE(copy.trustline(alice_, gateway_, usd_)->balance().is_zero());

    // The clone's adjacency points into its own lines.
    ASSERT_EQ(copy.lines_of(alice_).size(), 1u);
    EXPECT_EQ(copy.lines_of(alice_)[0], copy_line);
}

}  // namespace
}  // namespace xrpl::ledger
