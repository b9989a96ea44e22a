#include "model/function_model.hpp"

#include <algorithm>

namespace sa::model {

FunctionModel::FunctionModel(std::vector<Contract> contracts)
    : contracts_(std::move(contracts)) {}

void FunctionModel::upsert(Contract contract) {
    for (auto& c : contracts_) {
        if (c.component == contract.component) {
            c = std::move(contract);
            return;
        }
    }
    contracts_.push_back(std::move(contract));
}

void FunctionModel::remove(const std::string& component) {
    contracts_.erase(std::remove_if(contracts_.begin(), contracts_.end(),
                                    [&](const Contract& c) {
                                        return c.component == component;
                                    }),
                     contracts_.end());
}

const Contract* FunctionModel::find(const std::string& component) const {
    for (const auto& c : contracts_) {
        if (c.component == component) {
            return &c;
        }
    }
    return nullptr;
}

std::string FunctionModel::provider_of(const std::string& service) const {
    std::string provider;
    for (const auto& c : contracts_) {
        for (const auto& p : c.provides) {
            if (p.name == service) {
                if (!provider.empty()) {
                    return {}; // ambiguous
                }
                provider = c.component;
            }
        }
    }
    return provider;
}

std::vector<Channel> FunctionModel::channels() const {
    std::vector<Channel> out;
    for (const auto& c : contracts_) {
        for (const auto& r : c.requires_) {
            out.push_back(Channel{c.component, r.name, provider_of(r.name)});
        }
    }
    return out;
}

} // namespace sa::model
