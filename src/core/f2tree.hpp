#pragma once

/// Umbrella header: the full public API of the F²Tree reproduction.
///
/// Typical usage (see examples/quickstart.cpp):
///
///   f2t::core::Testbed bed([](f2t::net::Network& n) {
///     return f2t::topo::build_f2tree(n, /*ports=*/8);
///   });
///   bed.converge();
///   ... attach workloads from f2t::transport, inject failures via
///   bed.injector(), run bed.sim().run(...), read f2t::stats metrics.

#include "core/experiment.hpp"
#include "core/scalability.hpp"
#include "failure/random_failures.hpp"
#include "failure/scenarios.hpp"
#include "stats/cdf.hpp"
#include "stats/flow_metrics.hpp"
#include "stats/table.hpp"
#include "stats/timeseries.hpp"
#include "topo/f2tree.hpp"
#include "topo/leafspine.hpp"
#include "topo/validate.hpp"
#include "topo/vl2.hpp"
#include "transport/udp_app.hpp"
#include "transport/workload.hpp"
