// A minimal JSON value for perfbench_measure's one-line report: objects keep
// insertion order, numbers print with all their digits (%.17g), and a
// non-finite number prints as null so the runner rejects it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace perfbench {

class Json {
public:
    using Object = std::vector<std::pair<std::string, Json>>;
    using Array = std::vector<Json>;

    Json() : value_(Object{}) {}
    Json(double v) : value_(v) {}
    Json(std::uint64_t v) : value_(v) {}
    Json(bool v) : value_(v) {}
    Json(std::string v) : value_(std::move(v)) {}
    Json(const char* v) : value_(std::string(v)) {}
    Json(Array v) : value_(std::move(v)) {}

    /// Append `key` to an object.
    Json& set(std::string key, Json value);
    [[nodiscard]] std::string dump() const;

    /// {"value": v, "unit": unit}
    [[nodiscard]] static Json metric(double value, const char* unit);
    [[nodiscard]] static Json from(const std::map<std::string, std::string>& m);

private:
    void dump(std::string& out) const;
    std::variant<Object, Array, double, std::uint64_t, bool, std::string> value_;
};

}  // namespace perfbench
