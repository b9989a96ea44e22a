#pragma once
// Lightweight contract-checking macros used across the library.
//
// SA_ASSERT   — internal invariant; violation indicates a library bug.
// SA_REQUIRE  — precondition on a public API; violation indicates caller error.
// Both throw sa::ContractViolation so tests can verify misuse is rejected
// (EXPECT_THROW) instead of aborting the process.

#include <stdexcept>
#include <string>

namespace sa {

/// Thrown when an SA_ASSERT/SA_REQUIRE contract is violated.
class ContractViolation : public std::logic_error {
public:
    ContractViolation(const char* kind, const char* expr, const char* file, int line,
                      const std::string& msg);

    [[nodiscard]] int line() const noexcept { return line_; }
    /// The violation without the file:line suffix of what() — a stable form
    /// for reports and reproducer corpora that must not churn when code
    /// moves (e.g. sa::campaign verdicts).
    [[nodiscard]] const std::string& message() const noexcept { return message_; }

private:
    int line_;
    std::string message_;
};

namespace detail {
[[noreturn]] void contract_failed(const char* kind, const char* expr, const char* file,
                                  int line, const std::string& msg);
} // namespace detail

} // namespace sa

#define SA_ASSERT(expr, msg)                                                          \
    do {                                                                              \
        if (!(expr)) {                                                                \
            ::sa::detail::contract_failed("assertion", #expr, __FILE__, __LINE__,     \
                                          (msg));                                     \
        }                                                                             \
    } while (false)

#define SA_REQUIRE(expr, msg)                                                         \
    do {                                                                              \
        if (!(expr)) {                                                                \
            ::sa::detail::contract_failed("precondition", #expr, __FILE__, __LINE__,  \
                                          (msg));                                     \
        }                                                                             \
    } while (false)
