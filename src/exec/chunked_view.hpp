// Fixed-size chunking of a columnar payment window.
//
// The ordered whole-dataset scans (the Fig 4–7 analytics, the attack
// index build) run as: map each chunk to a chunk-local partial on the
// pool, then merge the partials IN CHUNK ORDER on the calling thread.
// (Fig 3's IG needs no merge order: see core/ig_kernel.hpp.)
// ChunkedView provides the first half of that contract: a
// deterministic partition of [0, view.size()) into contiguous runs of
// at most `chunk_rows` rows — the partition depends only on the view
// size and the chunk size, never on the thread count, which is what
// makes the ordered merge reproducible.
#pragma once

#include <cstddef>

#include "ledger/payment_columns.hpp"
#include "util/contract.hpp"

namespace xrpl::exec {

/// Default rows per chunk. Large enough that per-chunk partials and
/// scheduling amortize to noise (a task is ~8k rows of hashing, a
/// claim is one mutex round-trip), small enough that the default
/// 250k-payment bench dataset still splits ~31 ways and keeps every
/// worker busy.
inline constexpr std::size_t kDefaultChunkRows = 8192;

class ChunkedView {
public:
    explicit ChunkedView(ledger::PaymentView view,
                         std::size_t chunk_rows = kDefaultChunkRows);

    [[nodiscard]] std::size_t size() const noexcept { return view_.size(); }
    [[nodiscard]] std::size_t chunk_rows() const noexcept { return chunk_rows_; }
    /// Number of chunks (0 for an empty view).
    [[nodiscard]] std::size_t chunk_count() const noexcept {
        return chunk_count_;
    }

    /// Half-open row range of chunk `c`, relative to the view.
    struct Bounds {
        std::size_t begin = 0;
        std::size_t end = 0;
    };
    [[nodiscard]] Bounds bounds(std::size_t c) const noexcept {
        XRPL_ASSERT(c < chunk_count_, "chunk index must be within the view");
        const std::size_t begin = c * chunk_rows_;
        const std::size_t end = begin + chunk_rows_;
        return Bounds{begin, end < view_.size() ? end : view_.size()};
    }

    /// Chunk `c` as a zero-copy payment window.
    [[nodiscard]] ledger::PaymentView chunk(std::size_t c) const noexcept {
        const Bounds b = bounds(c);
        return view_.subview(b.begin, b.end - b.begin);
    }

    [[nodiscard]] const ledger::PaymentView& view() const noexcept {
        return view_;
    }

private:
    ledger::PaymentView view_;
    std::size_t chunk_rows_;
    std::size_t chunk_count_;
};

}  // namespace xrpl::exec
