#include "model/contract_parser.hpp"

#include <limits>

#include "can/frame.hpp"
#include "util/string_util.hpp"

namespace sa::model {

using util::Lexer;

namespace {

constexpr std::uint64_t kMaxInt = std::numeric_limits<int>::max();

Duration duration(Lexer& lex) { return Duration(lex.take_duration_ns("a duration")); }

/// `<rate>/s`
double take_rate(Lexer& lex) {
    const double value = lex.take_real("a rate");
    lex.expect("/");
    if (!lex.accept("s")) {
        lex.fail("rates must be per second ('/s')");
    }
    return value;
}

TaskSpec parse_task(Lexer& lex) {
    TaskSpec task;
    task.name = lex.take_ident("task name");
    lex.expect("{");
    while (!lex.accept("}")) {
        const int line = lex.peek().line;
        const std::string key = lex.take_ident("task attribute");
        if (key == "wcet") task.wcet = duration(lex);
        else if (key == "bcet") task.bcet = duration(lex);
        else if (key == "period") task.period = duration(lex);
        else if (key == "deadline") task.deadline = duration(lex);
        else throw util::ParseError(line, "unknown task attribute '" + key + "'");
        lex.expect(";");
    }
    if (task.bcet.count_ns() == 0) {
        task.bcet = task.wcet;
    }
    if (task.bcet > task.wcet) {
        lex.fail("task " + task.name + ": bcet > wcet");
    }
    return task;
}

MessageSpec parse_message(Lexer& lex) {
    MessageSpec msg;
    msg.name = lex.take_ident("message name");
    lex.expect("{");
    while (!lex.accept("}")) {
        const int line = lex.peek().line;
        const std::string key = lex.take_ident("message attribute");
        if (key == "id")
            msg.can_id =
                static_cast<std::uint32_t>(lex.take_uint("a CAN id", can::kMaxExtendedId));
        else if (key == "payload")
            msg.payload_bytes = static_cast<int>(lex.take_uint("a payload size", 8));
        else if (key == "period") msg.period = duration(lex);
        else if (key == "deadline") msg.deadline = duration(lex);
        else if (key == "bus") msg.bus = lex.take_ident("bus name");
        else throw util::ParseError(line, "unknown message attribute '" + key + "'");
        lex.expect(";");
    }
    return msg;
}

ProvidedService parse_provided_service(Lexer& lex) {
    ProvidedService svc;
    svc.name = lex.take_ident("service name");
    if (lex.accept(";")) {
        return svc;
    }
    lex.expect("{");
    while (!lex.accept("}")) {
        const int line = lex.peek().line;
        const std::string attr = lex.take_ident("service attribute");
        if (attr == "max_rate") svc.max_client_rate_hz = take_rate(lex);
        else if (attr == "min_client_level")
            svc.min_client_level =
                static_cast<int>(lex.take_uint("a security level", kMaxInt));
        else throw util::ParseError(line, "unknown service attribute '" + attr + "'");
        lex.expect(";");
    }
    return svc;
}

Contract parse_component(Lexer& lex) {
    lex.expect("component");
    Contract c;
    c.component = lex.take_ident("component name");
    lex.expect("{");
    while (!lex.accept("}")) {
        const int line = lex.peek().line;
        const std::string key = lex.take_ident("contract clause");
        if (key == "task") {
            c.tasks.push_back(parse_task(lex));
            continue;
        }
        if (key == "provides") {
            lex.expect("service");
            c.provides.push_back(parse_provided_service(lex));
            continue;
        }
        if (key == "message") {
            c.messages.push_back(parse_message(lex));
            continue;
        }
        if (key == "asil") {
            const int level_line = lex.peek().line;
            const std::string level = lex.take_ident("ASIL level");
            const auto asil = asil_from_string(level);
            if (!asil.has_value()) {
                throw util::ParseError(level_line, "unknown ASIL '" + level + "'");
            }
            c.asil = *asil;
        } else if (key == "security_level") {
            c.security_level = static_cast<int>(lex.take_uint("a security level", 3));
        } else if (key == "requires") {
            lex.expect("service");
            c.requires_.push_back(RequiredService{lex.take_ident("service name")});
        } else if (key == "pin") {
            lex.expect("ecu");
            c.pinned_ecu = lex.take_ident("ECU name");
        } else if (key == "redundant_with") {
            c.redundant_with = lex.take_ident("component name");
        } else if (key == "max_e2e_latency") {
            c.max_e2e_latency = duration(lex);
        } else if (key == "external") {
            c.external_interface = true;
        } else if (key == "gateway") {
            c.gateway = true;
        } else {
            throw util::ParseError(line, "unknown contract clause '" + key + "'");
        }
        lex.expect(";");
    }
    if (c.tasks.empty()) {
        lex.fail("component " + c.component + " declares no tasks");
    }
    return c;
}

} // namespace

std::vector<Contract> ContractParser::parse(const std::string& text) const {
    Lexer lex(text);
    std::vector<Contract> out;
    while (!lex.at_end()) {
        out.push_back(parse_component(lex));
    }
    return out;
}

Contract ContractParser::parse_one(const std::string& text) const {
    auto contracts = parse(text);
    if (contracts.size() != 1) {
        throw util::ParseError(0, format("expected exactly one contract, found %zu",
                                   contracts.size()));
    }
    return contracts.front();
}

} // namespace sa::model
