#pragma once
// Test helper: set the sharded kernel's process-wide thread budget for one
// scope and restore the previous one when the scope ends, so a test that
// pins its thread count leaves the next test the default.

#include <cstddef>

#include "sim/sharded_kernel.hpp"

namespace sa::testutil {

class ScopedThreadBudget {
public:
    explicit ScopedThreadBudget(std::size_t threads)
        : previous_(sim::set_thread_budget(threads)) {}
    ~ScopedThreadBudget() { (void)sim::set_thread_budget(previous_); }
    ScopedThreadBudget(const ScopedThreadBudget&) = delete;
    ScopedThreadBudget& operator=(const ScopedThreadBudget&) = delete;

private:
    std::size_t previous_;
};

} // namespace sa::testutil
