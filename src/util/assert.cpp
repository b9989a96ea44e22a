#include "util/assert.hpp"

#include <sstream>

namespace sa {

namespace {
std::string format_message(const char* kind, const char* expr, const char* file, int line,
                           const std::string& msg) {
    std::ostringstream os;
    os << kind << " failed: (" << expr << ") at " << file << ":" << line;
    if (!msg.empty()) {
        os << " — " << msg;
    }
    return os.str();
}

std::string stable_message(const char* kind, const char* expr, const std::string& msg) {
    std::ostringstream os;
    os << kind << " failed: (" << expr << ")";
    if (!msg.empty()) {
        os << " — " << msg;
    }
    return os.str();
}
} // namespace

ContractViolation::ContractViolation(const char* kind, const char* expr, const char* file,
                                     int line, const std::string& msg)
    : std::logic_error(format_message(kind, expr, file, line, msg)),
      line_(line),
      message_(stable_message(kind, expr, msg)) {}

namespace detail {

void contract_failed(const char* kind, const char* expr, const char* file, int line,
                     const std::string& msg) {
    throw ContractViolation(kind, expr, file, line, msg);
}

} // namespace detail
} // namespace sa
