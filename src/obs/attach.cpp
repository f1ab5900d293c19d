#include "obs/attach.hpp"

#include <memory>

#include "net/network.hpp"
#include "routing/bfd.hpp"
#include "routing/central.hpp"
#include "routing/detection.hpp"
#include "routing/ospf.hpp"
#include "routing/pathvector.hpp"
#include "sim/simulator.hpp"

namespace f2t::obs {

namespace {

Event packet_event(sim::Simulator& sim, EventType type, const net::Packet& p) {
  Event e;
  e.at = sim.now();
  e.type = type;
  e.proto = static_cast<std::uint8_t>(p.proto);
  e.uid = p.uid;
  return e;
}

DropReason reason_of(net::Link::DropKind kind) {
  switch (kind) {
    case net::Link::DropKind::kDown: return DropReason::kLinkDown;
    case net::Link::DropKind::kQueueFull: return DropReason::kQueueFull;
    case net::Link::DropKind::kGray: return DropReason::kGrayLoss;
  }
  return DropReason::kNone;
}

DropReason reason_of(net::L3Switch::DropReason reason) {
  switch (reason) {
    case net::L3Switch::DropReason::kNoRoute: return DropReason::kNoRoute;
    case net::L3Switch::DropReason::kTtlExpired: return DropReason::kTtlExpired;
  }
  return DropReason::kNone;
}

}  // namespace

void attach_journal(sim::Simulator& sim, net::Network& network,
                    EventJournal& journal) {
  for (net::Link* link : network.links()) {
    const std::int64_t link_id = link->id();
    link->add_observer([&sim, &journal, link_id](net::Link&, bool up) {
      Event e;
      e.at = sim.now();
      e.type = up ? EventType::kLinkUp : EventType::kLinkDown;
      e.link = link_id;
      journal.record(e);
    });
    link->set_drop_hook([&sim, &journal, link_id](const net::Packet& p,
                                                  net::Link::DropKind kind) {
      Event e = packet_event(sim, EventType::kPacketDrop, p);
      e.reason = reason_of(kind);
      e.link = link_id;
      journal.record(e);
    });
  }

  for (net::L3Switch* sw : network.switches()) {
    const std::int64_t node_id = sw->id();
    sw->add_port_state_handler(
        [&sim, &journal, node_id](net::PortId port, bool up) {
          Event e;
          e.at = sim.now();
          e.type = up ? EventType::kPortDetectedUp
                      : EventType::kPortDetectedDown;
          e.node = node_id;
          e.port = port;
          journal.record(e);
        });
    sw->set_drop_handler([&sim, &journal, node_id](
                             const net::Packet& p,
                             net::L3Switch::DropReason reason) {
      Event e = packet_event(sim, EventType::kPacketDrop, p);
      e.reason = reason_of(reason);
      e.node = node_id;
      journal.record(e);
    });
    // Backup activation is a *transition*: the first forward whose
    // resolution fell through to a kStatic F²Tree backup after the
    // previous one did not. One bool per switch keeps it O(1) per packet.
    auto was_static = std::make_shared<bool>(false);
    sw->add_forward_tap([&sim, &journal, sw, node_id, was_static](
                            const net::Packet&, net::PortId, net::PortId) {
      const bool is_static =
          sw->last_resolved_source() == routing::RouteSource::kStatic;
      if (is_static && !*was_static) {
        Event e;
        e.at = sim.now();
        e.type = EventType::kBackupActivated;
        e.node = node_id;
        journal.record(e);
      }
      *was_static = is_static;
    });
  }

  for (net::Host* host : network.hosts()) {
    const std::int64_t node_id = host->id();
    host->set_delivery_tap([&sim, &journal, node_id](const net::Packet& p) {
      Event e = packet_event(sim, EventType::kPacketDelivered, p);
      e.node = node_id;
      journal.record(e);
    });
  }
}

void attach_journal(sim::Simulator& sim, routing::Ospf& ospf,
                    EventJournal& journal) {
  const std::int64_t node_id = ospf.device().id();
  ospf.set_obs_hook([&sim, &journal, node_id](routing::Ospf::ObsEvent event) {
    Event e;
    e.at = sim.now();
    e.node = node_id;
    switch (event) {
      case routing::Ospf::ObsEvent::kLsaOriginated:
        e.type = EventType::kLsaOriginated;
        break;
      case routing::Ospf::ObsEvent::kLsaAccepted:
        e.type = EventType::kLsaAccepted;
        break;
      case routing::Ospf::ObsEvent::kSpfRun:
        e.type = EventType::kSpfRun;
        break;
      case routing::Ospf::ObsEvent::kFibInstall:
        e.type = EventType::kFibInstall;
        break;
    }
    journal.record(e);
  });
}

void attach_journal(sim::Simulator& sim,
                    routing::CentralController& controller,
                    EventJournal& journal) {
  controller.set_push_hook([&sim, &journal](net::L3Switch& sw) {
    Event e;
    e.at = sim.now();
    e.type = EventType::kControllerPush;
    e.node = sw.id();
    journal.record(e);
  });
}

void attach_journal(sim::Simulator& sim, routing::PathVector& path_vector,
                    EventJournal& journal) {
  const std::int64_t node_id = path_vector.device().id();
  path_vector.set_obs_hook(
      [&sim, &journal, node_id](routing::PathVector::ObsEvent event) {
        Event e;
        e.at = sim.now();
        e.node = node_id;
        switch (event) {
          case routing::PathVector::ObsEvent::kUpdateSent:
            e.type = EventType::kBgpUpdateSent;
            break;
          case routing::PathVector::ObsEvent::kUpdateReceived:
            e.type = EventType::kBgpUpdateReceived;
            break;
          case routing::PathVector::ObsEvent::kFibInstall:
            e.type = EventType::kFibInstall;
            break;
        }
        journal.record(e);
      });
}

void register_metrics(MetricsRegistry& registry, net::Network& network) {
  auto sum_switch = [&network](auto field) {
    return [&network, field]() {
      std::uint64_t total = 0;
      for (net::L3Switch* sw : network.switches()) total += field(*sw);
      return static_cast<double>(total);
    };
  };
  registry.register_probe("net.forwarded", sum_switch([](net::L3Switch& s) {
                            return s.counters().forwarded;
                          }));
  registry.register_probe("net.local_delivered",
                          sum_switch([](net::L3Switch& s) {
                            return s.counters().local_delivered;
                          }));
  registry.register_probe("net.dropped_no_route",
                          sum_switch([](net::L3Switch& s) {
                            return s.counters().dropped_no_route;
                          }));
  registry.register_probe("net.dropped_ttl", sum_switch([](net::L3Switch& s) {
                            return s.counters().dropped_ttl;
                          }));
  registry.register_probe("net.control_in", sum_switch([](net::L3Switch& s) {
                            return s.counters().control_in;
                          }));
  registry.register_probe("net.route_cache.hits",
                          sum_switch([](net::L3Switch& s) {
                            return s.route_cache().hits();
                          }));
  registry.register_probe("net.route_cache.misses",
                          sum_switch([](net::L3Switch& s) {
                            return s.route_cache().misses();
                          }));

  auto sum_link = [&network](auto field) {
    return [&network, field]() {
      std::uint64_t total = 0;
      for (net::Link* link : network.links()) total += field(*link);
      return static_cast<double>(total);
    };
  };
  registry.register_probe("link.delivered", sum_link([](net::Link& l) {
                            return l.delivered();
                          }));
  registry.register_probe("link.dropped_down", sum_link([](net::Link& l) {
                            return l.dropped_down();
                          }));
  registry.register_probe("link.dropped_queue", sum_link([](net::Link& l) {
                            return l.dropped_queue();
                          }));
  registry.register_probe("link.dropped_gray", sum_link([](net::Link& l) {
                            return l.dropped_gray();
                          }));
  registry.register_probe("queue.enqueued", sum_link([](net::Link& l) {
                            return l.queue_enqueued();
                          }));
  registry.register_probe("queue.marked", sum_link([](net::Link& l) {
                            return l.queue_marked();
                          }));
  registry.register_probe("queue.depth", sum_link([](net::Link& l) {
                            return l.queue_depth();
                          }));

  registry.register_probe("host.delivered", [&network]() {
    std::uint64_t total = 0;
    for (net::Host* h : network.hosts()) total += h->delivered();
    return static_cast<double>(total);
  });
  registry.register_probe("host.misdelivered", [&network]() {
    std::uint64_t total = 0;
    for (net::Host* h : network.hosts()) total += h->misdelivered();
    return static_cast<double>(total);
  });
}

void register_metrics(MetricsRegistry& registry, sim::Simulator& sim) {
  registry.register_probe("sim.events_executed", [&sim]() {
    return static_cast<double>(sim.scheduler().executed_count());
  });
}

void attach_journal(sim::Simulator& sim, routing::BfdManager& bfd,
                    EventJournal& journal) {
  bfd.set_obs_hook([&sim, &journal](routing::BfdManager::ObsEvent event,
                                    net::NodeId node, net::PortId port) {
    Event e;
    e.at = sim.now();
    e.node = node;
    e.port = port;
    switch (event) {
      case routing::BfdManager::ObsEvent::kSessionUp:
        e.type = EventType::kBfdSessionUp;
        break;
      case routing::BfdManager::ObsEvent::kSessionDown:
        e.type = EventType::kBfdSessionDown;
        break;
      case routing::BfdManager::ObsEvent::kSuppress:
        e.type = EventType::kBfdSuppress;
        break;
      case routing::BfdManager::ObsEvent::kReuse:
        e.type = EventType::kBfdReuse;
        break;
    }
    journal.record(e);
  });
}

void register_metrics(MetricsRegistry& registry,
                      routing::DetectionAgent& detection) {
  registry.register_probe("detection.reports_scheduled", [&detection]() {
    return static_cast<double>(detection.counters().reports_scheduled);
  });
  registry.register_probe("detection.flaps_suppressed", [&detection]() {
    return static_cast<double>(detection.counters().flaps_suppressed);
  });
  registry.register_probe("detection.detections_fired", [&detection]() {
    return static_cast<double>(detection.counters().detections_fired);
  });
}

void register_metrics(MetricsRegistry& registry, routing::BfdManager& bfd) {
  const auto probe = [&bfd](auto field) {
    return [&bfd, field]() {
      return static_cast<double>(field(bfd.counters()));
    };
  };
  using Counters = routing::BfdManager::Counters;
  registry.register_probe("bfd.hellos_sent", probe([](const Counters& c) {
                            return c.hellos_sent;
                          }));
  registry.register_probe("bfd.hellos_received", probe([](const Counters& c) {
                            return c.hellos_received;
                          }));
  registry.register_probe("bfd.hellos_missed", probe([](const Counters& c) {
                            return c.hellos_missed;
                          }));
  registry.register_probe("bfd.sessions_up", probe([](const Counters& c) {
                            return c.sessions_up;
                          }));
  registry.register_probe("bfd.sessions_down", probe([](const Counters& c) {
                            return c.sessions_down;
                          }));
  registry.register_probe("bfd.remote_down_signals",
                          probe([](const Counters& c) {
                            return c.remote_down_signals;
                          }));
  registry.register_probe("bfd.suppresses", probe([](const Counters& c) {
                            return c.suppresses;
                          }));
  registry.register_probe("bfd.reuses", probe([](const Counters& c) {
                            return c.reuses;
                          }));
}

}  // namespace f2t::obs
