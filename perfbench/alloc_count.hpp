#pragma once

#include <cstdint>

namespace perfbench {

/// Heap allocations (every global operator new) the calling thread has
/// made so far.
/// Defined by alloc_count.cpp, which replaces the global allocation
/// functions and is linked only into perfbench_trace: untraced runs
/// keep the stock allocator.
std::uint64_t allocations();

}  // namespace perfbench
