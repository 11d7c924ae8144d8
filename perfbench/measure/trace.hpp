// Spans recorded by the benchmark around each public call it makes
// into a library layer.
//
// A span is (name, layer, start, end, parent). Spans are kept in
// memory for the whole traced pass and read back at its end; the
// calling thread is the only writer (every call the benchmark makes
// is sequential), so children never overlap and a span's self time is
// its duration minus the summed durations of its direct children.
// Self time of the benchmark's own root spans is the explicit
// "unattributed" remainder: glue, checks and allocation between calls.
//
// With no Trace attached (end-to-end passes) ScopedSpan costs one
// null-pointer test.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

/// The src/ modules the benchmark calls directly. exec and obs run
/// only inside these calls, so they have no spans of their own.
enum class Layer : std::uint8_t {
    kBench,  // the benchmark itself: root spans, checks, glue
    kDatagen,
    kLedger,
    kSnap,
    kCore,
    kAnalytics,
    kPaths,
    kConsensus,
    kNode,
};
inline constexpr std::size_t kLayerCount = 9;

/// Lowercase module name; "unattributed" for kBench.
[[nodiscard]] const char* layer_name(Layer layer) noexcept;

struct Span {
    std::string_view name;  // always a string literal
    Layer layer = Layer::kBench;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int32_t parent = -1;
    /// The call fans out through exec::parallel_for or map_reduce,
    /// whose chunks record exec.chunk_ns. Calls that use
    /// ThreadPool::run directly are not pooled spans.
    bool pooled = false;

    [[nodiscard]] double seconds() const noexcept {
        return static_cast<double>(end_ns - start_ns) * 1e-9;
    }
};

class Trace {
public:
    Trace() { spans_.reserve(1 << 16); }

    std::int32_t open(std::string_view name, Layer layer, bool pooled);
    void close(std::int32_t id);

    /// Self seconds per layer, indexed by Layer.
    [[nodiscard]] std::array<double, kLayerCount> self_seconds() const;
    /// Summed seconds of every span called `name`.
    [[nodiscard]] double total_seconds(std::string_view name) const;
    /// Summed seconds of pooled spans (the exec stage wall).
    [[nodiscard]] double pooled_seconds() const;

private:
    std::vector<Span> spans_;
    std::int32_t current_ = -1;
};

/// RAII span; a no-op when `trace` is null.
class ScopedSpan {
public:
    ScopedSpan(Trace* trace, std::string_view name, Layer layer,
               bool pooled = false);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    Trace* trace_;
    std::int32_t id_ = -1;
};

}  // namespace perfbench
