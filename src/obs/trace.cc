#include "src/obs/trace.h"

namespace rcb {
namespace obs {

// The ring grows to `capacity` on demand instead of reserving it up front:
// a host holds one log per session, and most logs never fill (a reserved
// 1,024-event ring is 136 KiB per session whether used or not).
TraceLog::TraceLog(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

void TraceLog::Append(std::string name, Provenance provenance,
                      int64_t sim_start_us, int64_t duration_us) {
  TraceEvent event;
  event.name = std::move(name);
  event.provenance = provenance;
  event.sim_start_us = sim_start_us;
  event.duration_us = duration_us;
  event.seq = next_seq_++;
  if (events_.size() < capacity_) {
    events_.push_back(std::move(event));
    return;
  }
  // Full: overwrite the oldest slot and advance the ring head.
  events_[head_] = std::move(event);
  head_ = (head_ + 1) % capacity_;
}

uint64_t TraceLog::Append(std::string name, Provenance provenance,
                          int64_t sim_start_us, int64_t duration_us,
                          const TraceContext& context, TraceAttrs attrs,
                          uint64_t reserved_span_id) {
  if (!context.active()) {
    Append(std::move(name), provenance, sim_start_us, duration_us);
    return 0;
  }
  TraceEvent event;
  event.name = std::move(name);
  event.provenance = provenance;
  event.sim_start_us = sim_start_us;
  event.duration_us = duration_us;
  event.seq = next_seq_++;
  event.trace_id = context.trace_id;
  event.span_id = reserved_span_id != 0 ? reserved_span_id : ReserveSpanId();
  event.parent_span_id = context.parent_span_id;
  event.attrs = std::move(attrs);
  uint64_t span_id = event.span_id;
  if (events_.size() < capacity_) {
    events_.push_back(std::move(event));
  } else {
    events_[head_] = std::move(event);
    head_ = (head_ + 1) % capacity_;
  }
  return span_id;
}

std::vector<TraceEvent> TraceLog::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  for (size_t i = 0; i < events_.size(); ++i) {
    out.push_back(events_[(head_ + i) % events_.size()]);
  }
  return out;
}

}  // namespace obs
}  // namespace rcb
