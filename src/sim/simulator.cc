#include "src/sim/simulator.h"

#include <algorithm>
#include <utility>

namespace switchfs::sim {

void Simulator::ScheduleAt(SimTime at, std::function<void()> fn) {
  if (at <= now_) {
    now_events_.push_back(Event{now_, next_seq_++, std::move(fn)});
    return;
  }
  heap_.push_back(Event{at, next_seq_++, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), EventLater{});
}

void Simulator::ScheduleTimer(SimTime delay, std::function<void()> fn) {
  if (delay <= 0) {
    ScheduleAt(now_, std::move(fn));
    return;
  }
  size_t i = 0;
  while (i < lanes_.size() && lanes_[i].delay != delay) {
    ++i;
  }
  if (i == lanes_.size()) {
    lanes_.push_back(Lane{delay, {}});
  }
  std::deque<Event>& lane = lanes_[i].events;
  lane.push_back(Event{now_ + delay, next_seq_++, std::move(fn)});
  // Only a lane that was empty gets a new head, and it may be the least.
  if (lane.size() == 1 &&
      (least_lane_ == kNoLane ||
       Earlier(lane.front(), lanes_[least_lane_].events.front()))) {
    least_lane_ = i;
  }
}

size_t Simulator::lane_events() const {
  size_t n = 0;
  for (const Lane& lane : lanes_) {
    n += lane.events.size();
  }
  return n;
}

size_t Simulator::LeastLane() const {
  size_t least = kNoLane;
  for (size_t i = 0; i < lanes_.size(); ++i) {
    if (!lanes_[i].events.empty() &&
        (least == kNoLane ||
         Earlier(lanes_[i].events.front(), lanes_[least].events.front()))) {
      least = i;
    }
  }
  return least;
}

const Simulator::Event* Simulator::Least(Source* src) const {
  const Event* least = nullptr;
  if (!heap_.empty()) {
    *src = Source::kHeap;
    least = &heap_.front();
  }
  if (!now_events_.empty() &&
      (least == nullptr || Earlier(now_events_.front(), *least))) {
    *src = Source::kNow;
    least = &now_events_.front();
  }
  if (least_lane_ != kNoLane &&
      (least == nullptr ||
       Earlier(lanes_[least_lane_].events.front(), *least))) {
    *src = Source::kLane;
    least = &lanes_[least_lane_].events.front();
  }
  return least;
}

void Simulator::Fire(Source src) {
  // Each branch runs its own local: returning the event by value from one
  // pop function costs a heap-only run an extra move per event.
  if (src == Source::kHeap) {
    std::pop_heap(heap_.begin(), heap_.end(), EventLater{});
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    Execute(ev);
  } else if (src == Source::kNow) {
    Event ev = std::move(now_events_.front());
    now_events_.pop_front();
    Execute(ev);
  } else {
    std::deque<Event>& lane = lanes_[least_lane_].events;
    Event ev = std::move(lane.front());
    lane.pop_front();
    least_lane_ = LeastLane();
    Execute(ev);
  }
}

void Simulator::Execute(Event& ev) {
  now_ = ev.at;
  ++executed_;
  ev.fn();
}

bool Simulator::Step() {
  Source src = Source::kHeap;
  if (Least(&src) == nullptr) {
    return false;
  }
  Fire(src);
  return true;
}

SimTime Simulator::Run() {
  while (Step()) {
  }
  return now_;
}

void Simulator::RunThrough(SimTime deadline) {
  Source src = Source::kHeap;
  for (const Event* next = Least(&src); next != nullptr && next->at <= deadline;
       next = Least(&src)) {
    Fire(src);
  }
}

SimTime Simulator::RunUntil(SimTime deadline) {
  RunThrough(deadline);
  if (now_ < deadline) {
    now_ = deadline;
  }
  return now_;
}

uint64_t Simulator::RegisterWorkSource(WorkSource source) {
  const uint64_t id = next_source_id_++;
  sources_.emplace(id, std::move(source));
  return id;
}

void Simulator::UnregisterWorkSource(uint64_t id) { sources_.erase(id); }

size_t Simulator::pending_source_work() const {
  size_t n = 0;
  for (const auto& [id, source] : sources_) {
    n += source.pending();
  }
  return n;
}

SimTime Simulator::RunWhileWorkPending(SimTime deadline) {
  RunThrough(deadline);
  return now_;
}

}  // namespace switchfs::sim
