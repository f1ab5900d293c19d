#pragma once

namespace perfbench {

/// Seconds a fixed reference kernel takes right now on the calling
/// thread's CPU: the median of five repetitions of identical work.
///
/// The kernel is the benchmark's own code and never changes with the
/// program. It is shaped like a discrete-event loop: it pops the earliest
/// of 8 192 pending keys from a binary heap, updates a random cache line
/// of a 16 MiB table and pushes a later key. On a shared host the
/// simulator's speed drifts by a third within minutes, with other tenants'
/// use of the shared cache and memory, and this kernel drifts with it.
/// perfbench_e2e times it on the run's CPU right before and right after
/// every timed run (and between a campaign's shards), and perfbench/run.py
/// rescales the run's times to the kernel's nominal speed. The first call
/// allocates and touches the table.
double reference_seconds();

/// Memory the kernel keeps resident from its first call on (its table and
/// heap), in MB. perfbench_e2e takes it out of the process's peak RSS.
double reference_footprint_mb();

}  // namespace perfbench
