#pragma once
// Allocation-count harness: operator new/delete interposition behind a
// test-only hook.
//
// Linking semantics ARE the hook. The replacing operator new/delete live in
// alloc_hook.cpp together with every accessor declared here; sa is a static
// library, so that object file — interposition included — is linked into a
// binary whenever the link needs a symbol it defines: one of the accessors
// below, or operator new/delete themselves when the linker reaches libsa.a
// with operator new still undefined. The compiler driver appends the C++
// runtime after the user's libraries, so most binaries that link libsa get
// the interposed operators (they count only while counting is enabled). A
// binary that must keep the stock allocator names the C++ runtime before sa
// on its link line, as perfbench_driver does.
//
// The replacements forward to std::malloc/std::free, which is exactly what
// the defaults do — so ASan/TSan (which intercept malloc) keep their full
// heap bookkeeping underneath, and the zero-alloc pins hold under
// sanitizers too. Counters are thread_local: a CountScope observes only the
// calling thread, which is what the steady-state pins want (sharded worker
// threads warm their own pools independently).

#include <cstdint>

namespace sa::util::alloc_hook {

/// True iff the interposing operators are linked into this binary. Always
/// true when callable — referencing it is what links them — but lets tests
/// assert the pull-in semantics explicitly.
[[nodiscard]] bool interposed() noexcept;

/// Enable/disable counting on the calling thread; returns the previous
/// state. Counting is off by default (the operators always run — only the
/// counters are gated), so unrelated code in a harness-linked binary pays
/// one predicted-not-taken branch per allocation and nothing else.
bool set_counting(bool enabled) noexcept;
[[nodiscard]] bool counting() noexcept;

/// Monotonic per-thread counters; advance only while counting is enabled.
[[nodiscard]] std::uint64_t thread_allocations() noexcept;
[[nodiscard]] std::uint64_t thread_deallocations() noexcept;

/// RAII counting window: enables counting on construction, restores the
/// previous state on destruction, reports the deltas seen on this thread.
/// Scopes nest — an outer scope's counts include every inner scope's.
class CountScope {
public:
    CountScope() noexcept;
    ~CountScope();
    CountScope(const CountScope&) = delete;
    CountScope& operator=(const CountScope&) = delete;

    /// operator new calls on this thread since construction.
    [[nodiscard]] std::uint64_t allocations() const noexcept;
    /// operator delete calls (non-null) on this thread since construction.
    [[nodiscard]] std::uint64_t deallocations() const noexcept;

private:
    bool previous_;
    std::uint64_t start_allocations_;
    std::uint64_t start_deallocations_;
};

} // namespace sa::util::alloc_hook
