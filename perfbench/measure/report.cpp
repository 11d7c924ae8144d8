#include "measure/report.hpp"

#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

void dump_string(const std::string& s, std::string& out) {
    out += '"';
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

}  // namespace

Json& Json::set(std::string key, Json value) {
    std::get<Object>(value_).emplace_back(std::move(key), std::move(value));
    return *this;
}

std::string Json::dump() const {
    std::string out;
    dump(out);
    return out;
}

void Json::dump(std::string& out) const {
    if (const auto* object = std::get_if<Object>(&value_)) {
        out += '{';
        for (std::size_t i = 0; i < object->size(); ++i) {
            if (i != 0) out += ", ";
            dump_string((*object)[i].first, out);
            out += ": ";
            (*object)[i].second.dump(out);
        }
        out += '}';
    } else if (const auto* array = std::get_if<Array>(&value_)) {
        out += '[';
        for (std::size_t i = 0; i < array->size(); ++i) {
            if (i != 0) out += ", ";
            (*array)[i].dump(out);
        }
        out += ']';
    } else if (const auto* d = std::get_if<double>(&value_)) {
        if (!std::isfinite(*d)) {
            out += "null";
        } else {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.17g", *d);
            out += buf;
        }
    } else if (const auto* u = std::get_if<std::uint64_t>(&value_)) {
        out += std::to_string(*u);
    } else if (const auto* b = std::get_if<bool>(&value_)) {
        out += *b ? "true" : "false";
    } else {
        dump_string(std::get<std::string>(value_), out);
    }
}

Json Json::metric(double value, const char* unit) {
    Json m;
    m.set("value", value);
    m.set("unit", unit);
    return m;
}

Json Json::from(const std::map<std::string, std::string>& m) {
    Json object;
    for (const auto& [key, value] : m) object.set(key, value);
    return object;
}

}  // namespace perfbench
