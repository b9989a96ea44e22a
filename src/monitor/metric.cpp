#include "monitor/metric.hpp"

namespace sa::monitor {

const char* to_string(Domain domain) noexcept {
    switch (domain) {
    case Domain::Platform: return "platform";
    case Domain::Network: return "network";
    case Domain::Function: return "function";
    case Domain::Sensor: return "sensor";
    case Domain::Security: return "security";
    }
    return "?";
}

} // namespace sa::monitor
