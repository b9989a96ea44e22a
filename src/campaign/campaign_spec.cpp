#include "campaign/campaign_spec.hpp"

#include <limits>
#include <set>

#include "util/assert.hpp"
#include "util/string_util.hpp"

namespace sa::campaign {

using util::Lexer;

// --- axis names --------------------------------------------------------------------

const char* to_string(Weather weather) noexcept {
    switch (weather) {
    case Weather::Clear: return "clear";
    case Weather::Fog: return "fog";
    case Weather::Rain: return "rain";
    case Weather::Winter: return "winter";
    }
    return "?";
}

const char* to_string(Fault fault) noexcept {
    switch (fault) {
    case Fault::None: return "none";
    case Fault::FogBlind: return "fog_blind";
    case Fault::V2vBlackout: return "v2v_blackout";
    case Fault::Storm: return "storm";
    case Fault::Overrun: return "overrun";
    case Fault::SensorDrift: return "sensor_drift";
    case Fault::Misuse: return "misuse";
    case Fault::Crash: return "crash";
    }
    return "?";
}

const char* to_string(PolicyKind policy) noexcept {
    switch (policy) {
    case PolicyKind::Steady: return "steady";
    case PolicyKind::Cautious: return "cautious";
    case PolicyKind::Eager: return "eager";
    }
    return "?";
}

const char* to_string(Topology topology) noexcept {
    switch (topology) {
    case Topology::DualBus: return "dual_bus";
    case Topology::Bridged: return "bridged";
    case Topology::Mesh: return "mesh";
    case Topology::LossyMesh: return "lossy_mesh";
    }
    return "?";
}

bool topology_is_mesh(Topology topology) noexcept {
    return topology == Topology::Mesh || topology == Topology::LossyMesh;
}

namespace {

template <typename Enum>
bool enum_from_string(const std::string& text, Enum& out,
                      std::initializer_list<Enum> all) {
    for (Enum value : all) {
        if (text == to_string(value)) {
            out = value;
            return true;
        }
    }
    return false;
}

} // namespace

bool weather_from_string(const std::string& text, Weather& out) {
    return enum_from_string(text, out,
                            {Weather::Clear, Weather::Fog, Weather::Rain,
                             Weather::Winter});
}

bool fault_from_string(const std::string& text, Fault& out) {
    return enum_from_string(text, out,
                            {Fault::None, Fault::FogBlind, Fault::V2vBlackout,
                             Fault::Storm, Fault::Overrun, Fault::SensorDrift,
                             Fault::Misuse, Fault::Crash});
}

bool policy_from_string(const std::string& text, PolicyKind& out) {
    return enum_from_string(
        text, out, {PolicyKind::Steady, PolicyKind::Cautious, PolicyKind::Eager});
}

bool topology_from_string(const std::string& text, Topology& out) {
    return enum_from_string(text, out,
                            {Topology::DualBus, Topology::Bridged,
                             Topology::Mesh, Topology::LossyMesh});
}

bool fault_is_harness_probe(Fault fault) noexcept {
    return fault == Fault::Misuse || fault == Fault::Crash;
}

std::string duration_str(sim::Duration duration) {
    const std::int64_t ns = duration.count_ns();
    if (ns % 1'000'000'000 == 0) {
        return format("%llds", static_cast<long long>(ns / 1'000'000'000));
    }
    if (ns % 1'000'000 == 0) {
        return format("%lldms", static_cast<long long>(ns / 1'000'000));
    }
    if (ns % 1'000 == 0) {
        return format("%lldus", static_cast<long long>(ns / 1'000));
    }
    return format("%lldns", static_cast<long long>(ns));
}

void reject_repeat(std::set<std::string>& seen, const std::string& statement, int line) {
    if (!seen.insert(statement).second) {
        throw util::ParseError(line, "repeated statement '" + statement + "'");
    }
}

// --- CellConfig --------------------------------------------------------------------

std::string CellConfig::id() const {
    std::string out = campaign;
    out += " vehicles=" + std::to_string(vehicles);
    out += " duration=" + duration_str(duration);
    if (!spec_file.empty()) {
        out += " spec=" + spec_file;
    }
    out += " weather=" + std::string(to_string(weather));
    out += " fault=" + std::string(to_string(fault));
    out += " policy=" + std::string(to_string(policy));
    out += " topology=" + std::string(to_string(topology));
    out += " domains=" + std::to_string(domains);
    out += " seed=" + std::to_string(seed);
    if (learned_warmup.count_ns() > 0) {
        out += " learned=" + duration_str(learned_warmup);
        if (learned_no_metrics) {
            out += "/none";
        }
    }
    if (mesh_range_m > 0) {
        out += " mesh_range=" + std::to_string(mesh_range_m);
    }
    if (mesh_ttl > 0) {
        out += " mesh_ttl=" + std::to_string(mesh_ttl);
    }
    return out;
}

std::string CellConfig::str() const {
    std::string out = "cell {\n";
    out += "  campaign " + campaign + ";\n";
    out += "  template " + scenario_template + ";\n";
    out += "  vehicles " + std::to_string(vehicles) + ";\n";
    out += "  duration " + duration_str(duration) + ";\n";
    if (!spec_file.empty()) {
        out += "  spec \"" + spec_file + "\";\n";
    }
    out += "  weather " + std::string(to_string(weather)) + ";\n";
    out += "  fault " + std::string(to_string(fault)) + ";\n";
    out += "  policy " + std::string(to_string(policy)) + ";\n";
    out += "  topology " + std::string(to_string(topology)) + ";\n";
    out += "  domains " + std::to_string(domains) + ";\n";
    out += "  seed " + std::to_string(seed) + ";\n";
    if (learned_warmup.count_ns() > 0) {
        out += "  learned " + duration_str(learned_warmup) +
               (learned_no_metrics ? " none" : "") + ";\n";
    }
    if (mesh_range_m > 0) {
        out += "  mesh_range " + std::to_string(mesh_range_m) + ";\n";
    }
    if (mesh_ttl > 0) {
        out += "  mesh_ttl " + std::to_string(mesh_ttl) + ";\n";
    }
    out += "}\n";
    return out;
}

namespace {

constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

/// A count in [lo, hi] (platoon sizes, domain counts).
std::size_t take_count(Lexer& lex, const char* axis, const char* what, std::uint64_t lo,
                       std::uint64_t hi) {
    const int line = lex.peek().line;
    const std::uint64_t count = lex.take_uint(what, kMaxU64);
    if (count < lo || count > hi) {
        throw util::ParseError(line, std::string(axis) + " must be in [" +
                                         std::to_string(lo) + ", " + std::to_string(hi) +
                                         "], got " + std::to_string(count));
    }
    return static_cast<std::size_t>(count);
}

std::size_t take_vehicles(Lexer& lex) {
    return take_count(lex, "vehicles", "a vehicle count", 2, 8);
}

std::size_t take_domains(Lexer& lex) {
    return take_count(lex, "domains", "a domain count", 1, 8);
}

template <typename Enum>
Enum take_enum(Lexer& lex, const char* axis, const char* what,
               bool (*from_string)(const std::string&, Enum&)) {
    const int line = lex.peek().line;
    const std::string value = lex.take_ident(what);
    Enum out{};
    if (!from_string(value, out)) {
        throw util::ParseError(line, "unknown " + std::string(axis) + " '" + value + "'");
    }
    return out;
}

Weather take_weather(Lexer& lex) {
    return take_enum(lex, "weather", "a weather value", weather_from_string);
}
Fault take_fault(Lexer& lex) {
    return take_enum(lex, "fault", "a fault value", fault_from_string);
}
PolicyKind take_policy(Lexer& lex) {
    return take_enum(lex, "policy", "a policy value", policy_from_string);
}
Topology take_topology(Lexer& lex) {
    return take_enum(lex, "topology", "a topology value", topology_from_string);
}

/// `<value> [<value> ...];` — the values of a multi-valued axis statement.
template <typename Take>
auto take_list(Lexer& lex, Take take_one) {
    std::vector<decltype(take_one(lex))> values;
    do {
        values.push_back(take_one(lex));
    } while (!lex.accept(";"));
    return values;
}

/// Parse one cell statement into `cell`. Returns false when `keyword` is not
/// a cell statement (CampaignSpec::parse reads its scalar statements, which
/// are the cell's, through here too).
bool parse_cell_statement(Lexer& lex, const std::string& keyword, int line,
                          CellConfig& cell) {
    if (keyword == "campaign") {
        cell.campaign = lex.take_ident("a campaign name");
    } else if (keyword == "template") {
        cell.scenario_template = lex.take_ident("a template name");
    } else if (keyword == "vehicles") {
        cell.vehicles = take_vehicles(lex);
    } else if (keyword == "duration") {
        cell.duration = sim::Duration(lex.take_duration_ns("a duration"));
        if (cell.duration < sim::Duration::ms(1)) {
            throw util::ParseError(line, "duration must be at least 1ms");
        }
    } else if (keyword == "spec") {
        cell.spec_file = lex.take_string("a quoted spec file path");
    } else if (keyword == "weather") {
        cell.weather = take_weather(lex);
    } else if (keyword == "fault") {
        cell.fault = take_fault(lex);
    } else if (keyword == "policy") {
        cell.policy = take_policy(lex);
    } else if (keyword == "topology") {
        cell.topology = take_topology(lex);
    } else if (keyword == "domains") {
        cell.domains = take_domains(lex);
    } else if (keyword == "seed") {
        cell.seed = lex.take_uint("a seed", kMaxU64);
    } else if (keyword == "learned") {
        cell.learned_warmup = sim::Duration(lex.take_duration_ns("a warm-up duration"));
        if (cell.learned_warmup.count_ns() <= 0) {
            throw util::ParseError(line, "learned warm-up must be positive");
        }
        cell.learned_no_metrics = lex.accept("none");
    } else if (keyword == "mesh_range") {
        cell.mesh_range_m = lex.take_uint("a radio range in meters", kMaxU64);
    } else if (keyword == "mesh_ttl") {
        cell.mesh_ttl = lex.take_uint("a beacon TTL", kMaxU64);
    } else {
        return false;
    }
    lex.expect(";");
    return true;
}

void expect_end(const Lexer& lex, const char* block) {
    if (!lex.at_end()) {
        lex.fail("trailing input after the " + std::string(block) + " block: '" +
                 std::string(lex.peek().text) + "'");
    }
}

} // namespace

CellConfig CellConfig::parse(util::Lexer& lex) {
    lex.expect("cell");
    lex.expect("{");
    CellConfig cell;
    std::set<std::string> seen;
    while (!lex.accept("}")) {
        const int line = lex.peek().line;
        const std::string keyword = lex.take_ident("a cell statement");
        reject_repeat(seen, keyword, line);
        if (!parse_cell_statement(lex, keyword, line, cell)) {
            throw util::ParseError(line, "unknown cell statement '" + keyword + "'");
        }
    }
    return cell;
}

CellConfig CellConfig::parse(const std::string& text) {
    Lexer lex(text);
    CellConfig cell = parse(lex);
    expect_end(lex, "cell");
    return cell;
}

// --- CampaignSpec ------------------------------------------------------------------

CampaignSpec& CampaignSpec::seeds(std::uint64_t lo, std::uint64_t hi) {
    seeds_ = SeedRange{lo, hi};
    return *this;
}

CampaignSpec& CampaignSpec::spec_file(std::string path) {
    cell_.spec_file = std::move(path);
    return *this;
}

std::uint64_t CampaignSpec::cell_count() const noexcept {
    std::uint64_t count = seeds_.count();
    count *= weathers_.size();
    count *= faults_.size();
    count *= policies_.size();
    count *= topologies_.size();
    count *= domains_.size();
    count *= vehicles_.size();
    return count;
}

CellConfig CampaignSpec::first_cell() const {
    SA_REQUIRE(cell_count() > 0, "an empty matrix has no first cell");
    CellConfig cell = cell_;
    cell.vehicles = vehicles_.front();
    cell.weather = weathers_.front();
    cell.fault = faults_.front();
    cell.policy = policies_.front();
    cell.topology = topologies_.front();
    cell.domains = domains_.front();
    cell.seed = seeds_.lo;
    return cell;
}

std::vector<CellConfig> CampaignSpec::expand() const {
    std::vector<CellConfig> cells;
    cells.reserve(static_cast<std::size_t>(cell_count()));
    for (const Weather weather : weathers_) {
        for (const Fault fault : faults_) {
            for (const PolicyKind policy : policies_) {
                for (const Topology topology : topologies_) {
                    for (const std::size_t domains : domains_) {
                        for (const std::size_t vehicles : vehicles_) {
                            for (std::uint64_t seed = seeds_.lo;
                                 seed <= seeds_.hi && seeds_.count() > 0; ++seed) {
                                CellConfig& cell = cells.emplace_back(cell_);
                                cell.vehicles = vehicles;
                                cell.weather = weather;
                                cell.fault = fault;
                                cell.policy = policy;
                                cell.topology = topology;
                                cell.domains = domains;
                                cell.seed = seed;
                                if (seed == seeds_.hi) {
                                    break; // avoid overflow at UINT64_MAX
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    return cells;
}

std::string CampaignSpec::str() const {
    std::string out = "campaign " + cell_.campaign + " {\n";
    out += "  template " + cell_.scenario_template + ";\n";
    out += "  vehicles";
    for (const std::size_t count : vehicles_) {
        out += " " + std::to_string(count);
    }
    out += ";\n";
    out += "  duration " + duration_str(cell_.duration) + ";\n";
    if (!cell_.spec_file.empty()) {
        out += "  spec \"" + cell_.spec_file + "\";\n";
    }
    out += "  weather";
    for (const Weather weather : weathers_) {
        out += " " + std::string(to_string(weather));
    }
    out += ";\n";
    out += "  fault";
    for (const Fault fault : faults_) {
        out += " " + std::string(to_string(fault));
    }
    out += ";\n";
    out += "  policy";
    for (const PolicyKind policy : policies_) {
        out += " " + std::string(to_string(policy));
    }
    out += ";\n";
    out += "  topology";
    for (const Topology topology : topologies_) {
        out += " " + std::string(to_string(topology));
    }
    out += ";\n";
    out += "  domains";
    for (const std::size_t count : domains_) {
        out += " " + std::to_string(count);
    }
    out += ";\n";
    out += "  seeds " + std::to_string(seeds_.lo) + ".." + std::to_string(seeds_.hi) +
           ";\n";
    if (cell_.learned_warmup.count_ns() > 0) {
        out += "  learned " + duration_str(cell_.learned_warmup) +
               (cell_.learned_no_metrics ? " none" : "") + ";\n";
    }
    if (cell_.mesh_range_m > 0) {
        out += "  mesh_range " + std::to_string(cell_.mesh_range_m) + ";\n";
    }
    if (cell_.mesh_ttl > 0) {
        out += "  mesh_ttl " + std::to_string(cell_.mesh_ttl) + ";\n";
    }
    out += "}\n";
    return out;
}

CampaignSpec CampaignSpec::parse(const std::string& text) {
    Lexer lex(text);
    lex.expect("campaign");
    CampaignSpec spec;
    spec.cell_.campaign = lex.take_ident("a campaign name");
    lex.expect("{");
    std::set<std::string> seen;
    while (!lex.accept("}")) {
        const int line = lex.peek().line;
        const std::string keyword = lex.take_ident("a campaign statement");
        reject_repeat(seen, keyword, line);
        if (keyword == "vehicles") {
            spec.vehicles_ = take_list(lex, take_vehicles);
        } else if (keyword == "weather") {
            spec.weathers_ = take_list(lex, take_weather);
        } else if (keyword == "fault") {
            spec.faults_ = take_list(lex, take_fault);
        } else if (keyword == "policy") {
            spec.policies_ = take_list(lex, take_policy);
        } else if (keyword == "topology") {
            spec.topologies_ = take_list(lex, take_topology);
        } else if (keyword == "domains") {
            spec.domains_ = take_list(lex, take_domains);
        } else if (keyword == "seeds") {
            spec.seeds_.lo = lex.take_uint("a seed range low bound", kMaxU64);
            lex.expect("..");
            spec.seeds_.hi = lex.take_uint("a seed range high bound", kMaxU64);
            lex.expect(";");
        } else if (keyword == "campaign" || keyword == "seed" ||
                   !parse_cell_statement(lex, keyword, line, spec.cell_)) {
            throw util::ParseError(line, "unknown campaign axis '" + keyword + "'");
        }
    }
    expect_end(lex, "campaign");
    return spec;
}

} // namespace sa::campaign
