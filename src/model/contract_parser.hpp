#pragma once
// Parser for the textual contracting language. Example:
//
//   component brake_ctrl {
//     asil D;
//     security_level 2;
//     task control { wcet 200us; bcet 100us; period 10ms; deadline 5ms; }
//     provides service brake_cmd { max_rate 200/s; min_client_level 1; }
//     requires service brake_actuator;
//     message brake_status { id 0x120; payload 8; period 20ms; }
//     pin ecu brake_ecu;
//     redundant_with brake_ctrl_b;
//     max_e2e_latency 15ms;
//     external;     // has an external interface (attack surface)
//     gateway;      // mediates between security zones
//   }
//
// Tokens follow the shared lexical rules in util/lexer.hpp, so names are
// plain identifiers (no '.'). Durations are one token,
// `<number><ns|us|ms|s>`; rates are `<number>/s`; ids are decimal or 0x hex
// and at most can::kMaxExtendedId; payload is at most 8 bytes and
// security_level at most 3. Malformed input throws util::ParseError.

#include <string>
#include <vector>

#include "model/contract.hpp"
#include "util/lexer.hpp"

namespace sa::model {

class ContractParser {
public:
    /// Parse a document possibly containing several component contracts.
    [[nodiscard]] std::vector<Contract> parse(const std::string& text) const;

    /// Parse exactly one contract (throws if the document has != 1).
    [[nodiscard]] Contract parse_one(const std::string& text) const;
};

} // namespace sa::model
