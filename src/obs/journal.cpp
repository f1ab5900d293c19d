#include "obs/journal.hpp"

namespace f2t::obs {

const char* event_type_name(EventType type) {
  switch (type) {
    case EventType::kLinkDown: return "link_down";
    case EventType::kLinkUp: return "link_up";
    case EventType::kPortDetectedDown: return "port_detected_down";
    case EventType::kPortDetectedUp: return "port_detected_up";
    case EventType::kLsaOriginated: return "lsa_originated";
    case EventType::kLsaAccepted: return "lsa_accepted";
    case EventType::kSpfRun: return "spf_run";
    case EventType::kFibInstall: return "fib_install";
    case EventType::kBackupActivated: return "backup_activated";
    case EventType::kControllerPush: return "controller_push";
    case EventType::kBgpUpdateSent: return "bgp_update_sent";
    case EventType::kBgpUpdateReceived: return "bgp_update_received";
    case EventType::kPacketDrop: return "packet_drop";
    case EventType::kPacketDelivered: return "packet_delivered";
    case EventType::kBfdSessionUp: return "bfd_session_up";
    case EventType::kBfdSessionDown: return "bfd_session_down";
    case EventType::kBfdSuppress: return "bfd_suppress";
    case EventType::kBfdReuse: return "bfd_reuse";
  }
  return "?";
}

const char* drop_reason_name(DropReason reason) {
  switch (reason) {
    case DropReason::kNone: return "none";
    case DropReason::kNoRoute: return "no_route";
    case DropReason::kTtlExpired: return "ttl_expired";
    case DropReason::kLinkDown: return "link_down";
    case DropReason::kQueueFull: return "queue_full";
    case DropReason::kGrayLoss: return "gray_loss";
  }
  return "?";
}

void write_event_json(std::ostream& os, const Event& e) {
  os << "{\"at\": " << e.at << ", \"type\": \"" << event_type_name(e.type)
     << "\"";
  if (e.node >= 0) os << ", \"node\": " << e.node;
  if (e.link >= 0) os << ", \"link\": " << e.link;
  if (e.port >= 0) os << ", \"port\": " << e.port;
  if (e.reason != DropReason::kNone) {
    os << ", \"reason\": \"" << drop_reason_name(e.reason) << "\"";
  }
  if (e.proto != 0xff) os << ", \"proto\": " << static_cast<int>(e.proto);
  if (e.type == EventType::kPacketDrop ||
      e.type == EventType::kPacketDelivered) {
    os << ", \"uid\": " << e.uid;
  }
  os << "}";
}

void write_events_jsonl(std::ostream& os, const std::vector<Event>& events,
                        std::uint64_t dropped) {
  os << "{\"schema_version\": " << EventJournal::kSchemaVersion
     << ", \"stream\": \"f2t-events\", \"events\": " << events.size();
  if (dropped > 0) os << ", \"dropped\": " << dropped;
  os << "}\n";
  for (const Event& e : events) {
    write_event_json(os, e);
    os << "\n";
  }
}

}  // namespace f2t::obs
