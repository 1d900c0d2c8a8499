// Global allocation-counting hook for the zero-allocation tests.
//
// Linking tests/support/alloc_hook.cc replaces the binary's global
// operator new/delete with malloc/free wrappers that count every
// allocation; a test snapshots allocation_count() around a region to
// assert the hot path stays off the heap. The replacements live in
// their own translation unit so the compiler never sees a test's
// new-expressions paired with the free() inside them.
#pragma once

#include <cstdint>

namespace adscope::test {

/// operator new / new[] calls in this process so far.
std::uint64_t allocation_count() noexcept;

}  // namespace adscope::test
