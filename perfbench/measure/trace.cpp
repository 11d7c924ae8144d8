#include "measure/trace.hpp"

#include "obs/stopwatch.hpp"

namespace perfbench {

const char* layer_name(Layer layer) noexcept {
    switch (layer) {
        case Layer::kBench: return "unattributed";
        case Layer::kDatagen: return "datagen";
        case Layer::kLedger: return "ledger";
        case Layer::kSnap: return "snap";
        case Layer::kCore: return "core";
        case Layer::kAnalytics: return "analytics";
        case Layer::kPaths: return "paths";
        case Layer::kConsensus: return "consensus";
        case Layer::kNode: return "node";
    }
    return "unattributed";
}

std::int32_t Trace::open(std::string_view name, Layer layer, bool pooled) {
    Span span;
    span.name = name;
    span.layer = layer;
    span.parent = current_;
    span.pooled = pooled;
    span.start_ns = xrpl::obs::Stopwatch::now_ns();
    spans_.push_back(span);
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
}

void Trace::close(std::int32_t id) {
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_ns = xrpl::obs::Stopwatch::now_ns();
    current_ = span.parent;
}

std::array<double, kLayerCount> Trace::self_seconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& span : spans_) {
        if (span.parent >= 0) {
            child[static_cast<std::size_t>(span.parent)] += span.seconds();
        }
    }
    std::array<double, kLayerCount> self{};
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        self[static_cast<std::size_t>(spans_[i].layer)] +=
            spans_[i].seconds() - child[i];
    }
    return self;
}

double Trace::total_seconds(std::string_view name) const {
    double total = 0.0;
    for (const Span& span : spans_) {
        if (span.name == name) total += span.seconds();
    }
    return total;
}

double Trace::pooled_seconds() const {
    double total = 0.0;
    for (const Span& span : spans_) {
        if (span.pooled) total += span.seconds();
    }
    return total;
}

ScopedSpan::ScopedSpan(Trace* trace, std::string_view name, Layer layer,
                       bool pooled)
    : trace_(trace) {
    if (trace_ != nullptr) id_ = trace_->open(name, layer, pooled);
}

ScopedSpan::~ScopedSpan() {
    if (trace_ != nullptr) trace_->close(id_);
}

}  // namespace perfbench
