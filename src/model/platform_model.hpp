#pragma once
// Platform model: the target architecture the MCC maps functions onto
// ("multiple processing resources and networks", §II-A).

#include <optional>
#include <string>
#include <vector>

#include "model/contract.hpp"

namespace sa::model {

struct EcuDescriptor {
    std::string name;
    double speed_factor = 1.0;      ///< relative CPU performance
    double max_utilization = 0.75;  ///< admission cap for mapping
    Asil max_asil = Asil::D;        ///< highest ASIL certifiable on this ECU
    std::string thermal_zone = "cabin";
    std::string power_domain = "main";

    bool operator==(const EcuDescriptor&) const = default;
};

struct BusDescriptor {
    std::string name;
    std::int64_t bitrate_bps = 500'000;
    double max_utilization = 0.60;

    bool operator==(const BusDescriptor&) const = default;
};

struct PlatformModel {
    std::vector<EcuDescriptor> ecus;
    std::vector<BusDescriptor> buses;

    [[nodiscard]] const EcuDescriptor* find_ecu(const std::string& name) const;
    [[nodiscard]] const BusDescriptor* find_bus(const std::string& name) const;

    bool operator==(const PlatformModel&) const = default;
};

} // namespace sa::model
