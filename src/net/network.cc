#include "net/network.h"

#include <utility>

#include "common/check.h"

namespace gtpl::net {

Network::Network(sim::Simulator* simulator,
                 std::unique_ptr<LatencyModel> latency,
                 const LinkConfig& link)
    : simulator_(simulator),
      latency_(std::move(latency)),
      queue_delay_hist_(/*max_value=*/16384.0, /*num_buckets=*/1024) {
  GTPL_CHECK(simulator_ != nullptr);
  GTPL_CHECK(latency_ != nullptr);
  // A LinkModel only exists when it charges something; the infinite-
  // bandwidth configuration keeps the original pure-propagation Send path
  // byte for byte (the degenerate-case guarantee the equivalence suite
  // pins).
  if (link.bandwidth > 0.0) link_ = std::make_unique<LinkModel>(link);
}

double Network::MaxLinkUtilization(SimTime horizon) const {
  return link_ == nullptr ? 0.0 : link_->MaxUtilization(horizon);
}

uint32_t Network::Park(InFlight message) {
  if (free_slots_.empty()) {
    in_flight_.push_back(std::move(message));
    return static_cast<uint32_t>(in_flight_.size() - 1);
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  in_flight_[slot] = std::move(message);
  return slot;
}

Network::InFlight Network::Unpark(uint32_t slot) {
  InFlight message = std::move(in_flight_[slot]);
  free_slots_.push_back(slot);
  return message;
}

void Network::RunDelivery(uint32_t slot) {
  // Moved out first: the callback may Send, which can reuse the slot or
  // reallocate in_flight_.
  const InFlight message = Unpark(slot);
  const DeliveryInfo& info = message.info;
  if (tracer_ != nullptr && tracer_->enabled()) {
    const SimTime service =
        link_ == nullptr ? 0 : link_->TransmissionDelay(info.payload);
    obs::TraceEvent event;
    event.kind = obs::EventKind::kMsgDeliver;
    event.site = info.to;
    event.peer = info.from;
    event.payload = static_cast<int64_t>(info.payload);
    event.label = message.label;
    event.d0 = info.tx_start - info.send_time;               // sender queue
    event.d1 = info.Propagation();                           // propagation
    event.d2 = info.deliver_time - info.rx_queue_entry - service;
    event.d3 = service;                                      // transmission
    tracer_->Emit(std::move(event));
  }
  current_delivery_ = info;
  message.deliver();
  current_delivery_.active = false;
}

void Network::Send(SiteId from, SiteId to, std::string label,
                   std::function<void()> on_deliver, uint64_t payload) {
  const SimTime propagation = latency_->Latency(from, to);
  ++stats_.messages;
  stats_.payload_units += payload;
  const bool from_server = IsServerSite(from);
  const bool to_server = IsServerSite(to);
  if (from_server && to_server) {
    ++stats_.server_to_server;
  } else if (from_server) {
    ++stats_.server_to_client;
  } else if (to_server) {
    ++stats_.client_to_server;
  } else {
    ++stats_.client_to_client;
  }

  const SimTime now = simulator_->Now();
  InFlight message;
  message.info.active = true;
  message.info.send_time = now;
  message.info.from = from;
  message.info.to = to;
  message.info.payload = payload;
  message.label = std::move(label);
  message.deliver = std::move(on_deliver);
  if (link_ == nullptr) {
    if (tracer_ != nullptr && tracer_->enabled()) {
      obs::TraceEvent event;
      event.kind = obs::EventKind::kMsgSend;
      event.site = from;
      event.peer = to;
      event.payload = static_cast<int64_t>(payload);
      event.label = message.label;
      tracer_->Emit(std::move(event));
    }
    message.info.tx_start = now;
    message.info.rx_queue_entry = now + propagation;
    message.info.deliver_time = now + propagation;
    const uint32_t slot = Park(std::move(message));
    simulator_->Schedule(propagation, [this, slot] { RunDelivery(slot); });
    return;
  }

  // Link model: FIFO through the sender's uplink now, then propagation,
  // then FIFO through the receiver's downlink when the first bit arrives
  // (a second event, so downlink order is true arrival order).
  const SimTime service = link_->TransmissionDelay(payload);
  const SimTime departure = link_->AdmitUplink(from, payload, now);
  const SimTime tx_start = departure - service;
  const SimTime sender_delay = tx_start - now;
  stats_.sender_queue_delay.Add(static_cast<double>(sender_delay));
  stats_.transmission_ticks += static_cast<uint64_t>(service);
  const SimTime first_bit_arrival = tx_start + propagation;

  if (tracer_ != nullptr && tracer_->enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kMsgSend;
    event.site = from;
    event.peer = to;
    event.payload = static_cast<int64_t>(payload);
    event.label = message.label;
    event.d0 = sender_delay;
    event.d1 = service;
    tracer_->Emit(std::move(event));
  }

  message.info.tx_start = tx_start;
  message.service = service;
  const uint32_t slot = Park(std::move(message));
  simulator_->ScheduleAt(first_bit_arrival,
                         [this, slot] { ArriveAtDownlink(slot); });
}

void Network::ArriveAtDownlink(uint32_t slot) {
  DeliveryInfo& info = in_flight_[slot].info;
  const SimTime service = in_flight_[slot].service;
  const SimTime arrival = simulator_->Now();
  const SimTime deliver_time =
      link_->AdmitDownlink(info.to, info.payload, arrival);
  const SimTime sender_delay = info.tx_start - info.send_time;
  const SimTime receiver_delay = deliver_time - service - arrival;
  stats_.receiver_queue_delay.Add(static_cast<double>(receiver_delay));
  queue_delay_hist_.Add(static_cast<double>(sender_delay + receiver_delay));
  info.rx_queue_entry = arrival;
  info.deliver_time = deliver_time;
  simulator_->ScheduleAt(deliver_time, [this, slot] { RunDelivery(slot); });
}

}  // namespace gtpl::net
