#include "core/interval_scheduler.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "core/invariants.h"
#include "util/check.h"
#include "util/hot_path.h"

namespace stagger {

Result<std::unique_ptr<IntervalScheduler>> IntervalScheduler::Create(
    Simulator* sim, DiskArray* disks, const SchedulerConfig& config) {
  if (config.interval <= SimTime::Zero()) {
    return Status::InvalidArgument("scheduler interval must be positive");
  }
  if (config.fragmented_lookahead < 0) {
    return Status::InvalidArgument("fragmented lookahead must be >= 0");
  }
  if (config.retry_backoff_intervals < 1) {
    return Status::InvalidArgument("retry backoff must be >= 1 interval");
  }
  if (config.max_retry_backoff_intervals < config.retry_backoff_intervals) {
    return Status::InvalidArgument(
        "max retry backoff must be >= the initial backoff");
  }
  STAGGER_ASSIGN_OR_RETURN(VirtualDiskFrame frame,
                           VirtualDiskFrame::Create(disks->num_disks(),
                                                    config.stride));
  auto scheduler = std::unique_ptr<IntervalScheduler>(
      new IntervalScheduler(sim, disks, config, frame));
  return scheduler;
}

IntervalScheduler::IntervalScheduler(Simulator* sim, DiskArray* disks,
                                     SchedulerConfig config,
                                     VirtualDiskFrame frame)
    : sim_(sim), disks_(disks), config_(config), frame_(frame),
      buffers_(config.buffer_capacity_fragments), epoch_(sim->Now()),
      vdisk_owner_(static_cast<size_t>(disks->num_disks()), kNoStream) {
  vdisk_occupied_.Resize(disks->num_disks());
  scratch_taken_.Resize(disks->num_disks());
  claimed_epoch_.assign(static_cast<size_t>(disks->num_disks()), 0);
  ticker_ = std::make_unique<PeriodicTicker>(
      sim_, epoch_, config_.interval, [this](int64_t tick) { Tick(tick); });
}

IntervalScheduler::~IntervalScheduler() = default;

Result<RequestId> IntervalScheduler::Submit(DisplayRequest request) {
  if (request.degree < 1 || request.degree > frame_.num_disks()) {
    return Status::InvalidArgument("display degree must be in [1, D]");
  }
  if (request.num_subobjects < 1) {
    return Status::InvalidArgument("display must cover at least one subobject");
  }
  if (request.start_disk < 0 || request.start_disk >= frame_.num_disks()) {
    return Status::InvalidArgument("start disk out of range");
  }
  const RequestId id = next_request_id_++;
  queue_.push_back(Pending{id, std::move(request), sim_->Now()});
  request_to_stream_[id] = kNoStream;
  ++metrics_.displays_requested;
  return id;
}

Status IntervalScheduler::Cancel(RequestId id) {
  auto it = request_to_stream_.find(id);
  if (it == request_to_stream_.end()) {
    return Status::NotFound("unknown request " + std::to_string(id));
  }
  if (it->second == kNoStream) {
    bool dequeued = false;
    for (auto qit = queue_.begin(); qit != queue_.end(); ++qit) {
      if (qit->id == id) {
        queue_.erase(qit);
        dequeued = true;
        break;
      }
    }
    if (!dequeued) {
      // A handle mapped to kNoStream but absent from the queue is a
      // stream parked by the degraded policy.
      for (auto pit = paused_.begin(); pit != paused_.end(); ++pit) {
        if (pit->id == id) {
          paused_.erase(pit);
          break;
        }
      }
    }
  } else {
    FinishStream(it->second, /*completed=*/false);
  }
  request_to_stream_.erase(id);
  ++metrics_.displays_cancelled;
  return Status::OK();
}

Result<RequestId> IntervalScheduler::Seek(RequestId id, int32_t new_start_disk,
                                          int64_t new_num_subobjects) {
  auto it = request_to_stream_.find(id);
  if (it == request_to_stream_.end() || it->second == kNoStream) {
    return Status::FailedPrecondition("Seek requires an active stream");
  }
  Stream* s = FindStream(it->second);
  STAGGER_CHECK(s != nullptr);
  DisplayRequest req;
  req.object = s->object;
  req.degree = s->degree;
  req.start_disk = new_start_disk;
  req.num_subobjects = new_num_subobjects;
  req.parity = s->parity;
  req.on_started = s->on_started;
  req.on_completed = s->on_completed;
  req.on_interrupted = s->on_interrupted;

  FinishStream(it->second, /*completed=*/false);
  request_to_stream_.erase(it);
  return Submit(std::move(req));
}

int32_t IntervalScheduler::idle_virtual_disks() const {
  return frame_.num_disks() - vdisk_occupied_.CountSet();
}

int32_t IntervalScheduler::SlotOf(StreamId id) const {
  auto it = std::lower_bound(
      active_.begin(), active_.end(), id,
      [](const std::pair<StreamId, int32_t>& e, StreamId v) {
        return e.first < v;
      });
  if (it == active_.end() || it->first != id) return -1;
  return it->second;
}

Stream* IntervalScheduler::FindStream(StreamId id) {
  const int32_t slot = SlotOf(id);
  return slot < 0 ? nullptr : &slots_[static_cast<size_t>(slot)];
}

const Stream* IntervalScheduler::FindStream(StreamId id) const {
  const int32_t slot = SlotOf(id);
  return slot < 0 ? nullptr : &slots_[static_cast<size_t>(slot)];
}

int32_t IntervalScheduler::AllocSlot() {
  if (!free_slots_.empty()) {
    const int32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<int32_t>(slots_.size()) - 1;
}

void IntervalScheduler::InsertActive(StreamId id, int32_t slot) {
  if (active_.empty() || active_.back().first < id) {
    active_.emplace_back(id, slot);
    return;
  }
  auto it = std::lower_bound(
      active_.begin(), active_.end(), id,
      [](const std::pair<StreamId, int32_t>& e, StreamId v) {
        return e.first < v;
      });
  STAGGER_DCHECK(it == active_.end() || it->first != id);
  active_.insert(it, {id, slot});
}

void IntervalScheduler::EraseActive(StreamId id) {
  auto it = std::lower_bound(
      active_.begin(), active_.end(), id,
      [](const std::pair<StreamId, int32_t>& e, StreamId v) {
        return e.first < v;
      });
  STAGGER_CHECK(it != active_.end() && it->first == id)
      << "unknown stream " << id;
  active_.erase(it);
}

STAGGER_HOT_PATH void IntervalScheduler::Tick(int64_t tick_index) {
  interval_index_ = tick_index;
  // Entries stamped in earlier intervals go stale without any clearing.
  claim_stamp_ = tick_index + 1;
  RetryPaused();
  TryAdmissions();
  AdvanceStreams();
  UpdateIntervalStats();
#ifdef STAGGER_AUDIT
  // Self-check every simulated interval: occupancy, delivery clock,
  // buffer accounting, and non-underflow (see core/invariants.h).
  STAGGER_CHECK_OK(InvariantAuditor::AuditScheduler(*this));
#endif
  // Whatever slack remains after display reads is genuinely idle
  // bandwidth: the rebuild hook may consume it before the interval
  // closes.  It runs after the audit so display-path invariants are
  // checked against display reads alone.
  if (idle_hook_) idle_hook_(interval_index_);
  // Interval close-out runs after the audit so the degraded-state rules
  // can inspect this interval's busy flags (a failed disk carries zero
  // load).
  disks_->EndInterval();
}

STAGGER_HOT_PATH void IntervalScheduler::TryAdmissions() {
  // Scan FIFO; with backfill, requests behind a blocked head may be
  // admitted (the paper's Figure 3 idle slots serving a new request).
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (TryAdmit(*it)) {
      it = queue_.erase(it);
    } else if (config_.allow_backfill) {
      ++it;
    } else {
      break;
    }
  }
}

STAGGER_HOT_PATH bool IntervalScheduler::TryAdmit(const Pending& p) {
  if (TryAdmitContiguous(p)) return true;
  if (config_.policy == AdmissionPolicy::kFragmented &&
      TryAdmitFragmented(p)) {
    return true;
  }
  return false;
}

STAGGER_HOT_PATH bool IntervalScheduler::TryAdmitContiguous(const Pending& p) {
  // The request starts only when the virtual disks *currently over* its
  // first fragments are all idle (alignment delay zero): one modular
  // window test over the occupancy bitmap.
  const int32_t v0 = frame_.VirtualOf(p.req.start_disk, interval_index_);
  const int32_t m = p.req.degree;
  if (!vdisk_occupied_.WindowClear(v0, m)) return false;
  if (config_.degraded_policy != DegradedPolicy::kNone &&
      disks_->UnavailableCount() > 0) {
    // The stream reads its first stripe immediately — refuse to start a
    // display whose first reads land on unavailable disks (it would
    // pause on its very first interval).  Under kReconstruct a single
    // lost fragment is tolerable when the stripe's parity disk can
    // stand in for it.
    int32_t down = 0;
    for (int32_t j = 0; j < m; ++j) {
      const int32_t physical = static_cast<int32_t>(PositiveMod(
          static_cast<int64_t>(p.req.start_disk) + j, frame_.num_disks()));
      if (!disks_->IsAvailable(physical)) ++down;
    }
    if (down > 0) {
      const int32_t parity_disk = static_cast<int32_t>(PositiveMod(
          static_cast<int64_t>(p.req.start_disk) + m, frame_.num_disks()));
      const bool reconstructable =
          config_.degraded_policy == DegradedPolicy::kReconstruct &&
          p.req.parity && down == 1 && disks_->IsAvailable(parity_disk);
      if (!reconstructable) return false;
    }
  }
  LaneArray lanes;
  lanes.Assign(m);
  for (int32_t j = 0; j < m; ++j) {
    lanes[static_cast<size_t>(j)].vdisk = static_cast<int32_t>(
        PositiveMod(static_cast<int64_t>(v0) + j, frame_.num_disks()));
    lanes[static_cast<size_t>(j)].next_read_tau = 0;
  }
  AdmitStream(p, std::move(lanes), /*delta_max=*/0, /*fragmented=*/false,
              /*lockstep=*/true, /*buffer_frags=*/0);
  return true;
}

STAGGER_HOT_PATH bool IntervalScheduler::TryAdmitFragmented(const Pending& p) {
  const int32_t m = p.req.degree;
  const int32_t d = frame_.num_disks();
  const bool check_health = config_.degraded_policy != DegradedPolicy::kNone &&
                            disks_->UnavailableCount() > 0;
  LaneArray lanes;
  lanes.Assign(m);
  int64_t delta_max = 0;

  // scratch_taken_ carries the virtual disks tentatively picked for
  // earlier lanes of this attempt; set bits are recorded so teardown is
  // O(m), not O(D).
  STAGGER_DCHECK(scratch_taken_bits_.empty());
  bool ok = true;
  for (int32_t j = 0; j < m; ++j) {
    const int32_t target = static_cast<int32_t>(
        PositiveMod(static_cast<int64_t>(p.req.start_disk) + j, d));
    // A lane with alignment delay zero reads `target` this interval;
    // skip such candidates while the disk is down (later-aligned lanes
    // are still fine — health at their read time is unknowable).
    const bool target_down = check_health && !disks_->IsAvailable(target);
    const auto found = frame_.FindEarliestFreeVdisk(
        vdisk_occupied_, scratch_taken_, interval_index_, target,
        config_.fragmented_lookahead, target_down);
    if (!found.has_value()) {
      ok = false;
      break;
    }
    scratch_taken_.Set(found->first);
    // stagger-lint: allow(hot-path-alloc) -- scratch_taken_bits_ keeps its capacity across admissions (clear(), never shrink), so this amortizes to zero allocations in steady state
    scratch_taken_bits_.push_back(found->first);
    lanes[static_cast<size_t>(j)].vdisk = found->first;
    lanes[static_cast<size_t>(j)].next_read_tau = found->second;
    delta_max = std::max(delta_max, found->second);
  }
  for (int32_t v : scratch_taken_bits_) scratch_taken_.Clear(v);
  scratch_taken_bits_.clear();
  if (!ok) return false;

  int64_t buffer_frags = 0;
  for (int32_t j = 0; j < m; ++j) {
    buffer_frags += delta_max - lanes[static_cast<size_t>(j)].next_read_tau;
  }
  if (!buffers_.TryReserve(buffer_frags)) return false;

  AdmitStream(p, std::move(lanes), delta_max, /*fragmented=*/buffer_frags > 0,
              /*lockstep=*/false,
              buffer_frags);
  return true;
}

void IntervalScheduler::AdmitStream(const Pending& p, LaneArray lanes,
                                    int64_t delta_max, bool fragmented,
                                    bool lockstep, int64_t buffer_frags) {
  const int32_t slot = AllocSlot();
  Stream& s = slots_[static_cast<size_t>(slot)];
  s.id = p.id;
  s.object = p.req.object;
  s.degree = p.req.degree;
  s.num_subobjects = p.req.num_subobjects;
  s.start_disk = p.req.start_disk;
  s.admit_interval = interval_index_;
  s.delta_max = delta_max;
  s.arrival_time = p.arrival;
  s.lanes = std::move(lanes);
  s.delivered = 0;
  s.fragmented = fragmented;
  s.lockstep = lockstep;
  s.parity = p.req.parity;
  s.buffer_reserved = buffer_frags;
  s.resumed_mid_display = p.started;
  s.on_completed = p.req.on_completed;
  s.on_started = p.req.on_started;
  s.on_interrupted = p.req.on_interrupted;

  for (const FragmentLane& lane : s.lanes) {
    STAGGER_DCHECK(vdisk_owner_[static_cast<size_t>(lane.vdisk)] == kNoStream);
    vdisk_owner_[static_cast<size_t>(lane.vdisk)] = s.id;
    vdisk_occupied_.Set(lane.vdisk);
  }
  // A resumed stream continues a display counted at first admission.
  if (!p.resumed) ++metrics_.displays_admitted;
  if (fragmented) ++metrics_.fragmented_admissions;
  request_to_stream_[p.id] = s.id;
  InsertActive(s.id, slot);
}

STAGGER_HOT_PATH void IntervalScheduler::AdvanceStreams() {
  const int32_t d = frame_.num_disks();
  // Physical disk under virtual disk v this interval is v + rot (mod D);
  // hoisting the rotation turns the per-lane mapping into an add and a
  // conditional subtract.
  const int32_t rot = frame_.RotationAt(interval_index_);

  // Physical disks some active lane is due to read this interval.  A
  // degraded remap may only borrow a disk no stream is about to use, or
  // a later stream's read would find its disk already reserved.  (A
  // coalescing migration either keeps the same read target this
  // interval or postpones the read, so the precomputed set stays sound.)
  // Disk health only changes between ticks (fault events), so when every
  // disk is up the set is never consulted and its build is skipped.
  const bool degraded = config_.degraded_policy != DegradedPolicy::kNone;
  const bool any_down = degraded && disks_->UnavailableCount() > 0;
  // Latent sector errors trip the same degraded ladder: a read whose
  // checksum fails is as unusable as a read off a failed disk.  The
  // O(1) active() test keeps the no-corruption common case free.
  const LatentErrorMap& latent = disks_->latent_errors();
  const bool latent_active = latent.active();
  if (any_down || (degraded && latent_active)) {
    for (const auto& [id, slot] : active_) {
      const Stream& s = slots_[static_cast<size_t>(slot)];
      const int64_t tau = s.Tau(interval_index_);
      for (const FragmentLane& lane : s.lanes) {
        if (lane.released() || lane.reads_done >= s.num_subobjects) continue;
        if (tau < lane.next_read_tau) continue;
        int32_t physical = lane.vdisk + rot;
        if (physical >= d) physical -= d;
        MarkClaimed(physical);
      }
    }
  }

  STAGGER_DCHECK(scratch_finished_.empty() && scratch_to_pause_.empty());
  // Hoisted out of the lane loop: testing a std::function loads its
  // target pointer every time, and the buffered-fragments counter is a
  // member the compiler cannot keep in a register across calls.  The
  // local delta is committed right after the loop, before the pause /
  // finish fix-ups below read the member.
  const bool observe = static_cast<bool>(config_.read_observer);
  int64_t buffered_delta = 0;
#ifdef STAGGER_AUDIT
  // Lane j reads subobject i off disk (start + i*k + j) mod D, whichever
  // path issues the read.
  const auto audit_alignment = [&](const Stream& s, int32_t j,
                                   int64_t subobject, int32_t physical) {
    const int32_t expected = static_cast<int32_t>(PositiveMod(
        static_cast<int64_t>(s.start_disk) + subobject * config_.stride + j,
        d));
    STAGGER_CHECK(physical == expected)
        << "lane misalignment: stream " << s.id << " fragment " << j;
  };
#endif
  // active_ is sorted by id, giving the deterministic ascending-id
  // processing order directly.  No admissions run inside this loop, so
  // slots_ is stable and index-based iteration is safe.
  for (size_t idx = 0; idx < active_.size(); ++idx) {
    const StreamId id = active_[idx].first;
    Stream& s = slots_[static_cast<size_t>(active_[idx].second)];
    // The slot walk jumps around slots_, whose active region is too
    // large to stay L1-resident at scale; fetching the next stream's
    // header + inline-lane lines while this one advances hides most of
    // that latency.
    if (idx + 1 < active_.size()) {
      const char* next = reinterpret_cast<const char*>(
          &slots_[static_cast<size_t>(active_[idx + 1].second)]);
      __builtin_prefetch(next);
      __builtin_prefetch(next + 64);
      __builtin_prefetch(next + 128);
    }
    const int64_t tau = s.Tau(interval_index_);

    if (config_.coalesce && s.fragmented) TryCoalesce(&s);

    // Reads: each lane reads the next fragment when its disk is aligned.
    // min_reads tracks the least-advanced unreleased lane so the
    // delivery step below can skip its per-lane hiccup scan on the
    // (overwhelmingly common) on-schedule path.  Released lanes are
    // excluded: they finished all their reads, so they never hiccup.
    bool pausing = false;
    int64_t min_reads = std::numeric_limits<int64_t>::max();
    bool advanced = false;
    // Lockstep fast path.  A contiguous stream's lanes are admitted
    // together and then read every interval, so they stay identical in
    // reads_done / next_read_tau and occupy M adjacent virtual disks
    // (a pause mid-stripe retires the stream before divergence can
    // reach this loop).  One masked range-reserve plus a branchless
    // lane update replaces the per-lane scatter.  The observer sees the
    // same reads, in the same lane order, as the per-lane path reports,
    // and audit builds check every lane's alignment here too.
    if (s.lockstep && !any_down && !latent_active && s.degree > 0) {
      FragmentLane* lanes = s.lanes.data();
      if (!lanes[0].released() && lanes[0].reads_done < s.num_subobjects &&
          tau >= lanes[0].next_read_tau) {
        int32_t first = lanes[0].vdisk + rot;
        if (first >= d) first -= d;
        disks_->ReserveRun(first, s.degree);
        const int64_t done = lanes[0].reads_done + 1;
        // Lane j reads disk first + j (mod D).  Reporting and auditing
        // get their own loops so the update loop below stays plain
        // stores; observers are a tracing aid, so their call is laid out
        // off the hot path.
        if (observe) [[unlikely]] {
          for (int32_t j = 0; j < s.degree; ++j) {
            config_.read_observer(interval_index_, s.object, done - 1, j,
                                  first + j < d ? first + j : first + j - d);
          }
        }
#ifdef STAGGER_AUDIT
        for (int32_t j = 0; j < s.degree; ++j) {
          audit_alignment(s, j, lanes[j].reads_done,
                          first + j < d ? first + j : first + j - d);
        }
#endif
        for (int32_t j = 0; j < s.degree; ++j) {
          STAGGER_DCHECK(!lanes[j].released() &&
                         lanes[j].reads_done + 1 == done &&
                         lanes[j].next_read_tau <= tau &&
                         lanes[j].vdisk ==
                             (lanes[0].vdisk + j) % frame_.num_disks())
              << "contiguous stream " << s.id << " lanes out of lockstep";
          lanes[j].reads_done = done;
          lanes[j].next_read_tau = tau + 1;
        }
        buffered_delta += s.degree;
        min_reads = done;
        if (done >= s.num_subobjects) {
          for (int32_t j = 0; j < s.degree; ++j) ReleaseLane(&s, j);
        }
        advanced = true;
      }
    }
    if (!advanced) for (int32_t j = 0; j < s.degree; ++j) {
      FragmentLane& lane = s.lanes[static_cast<size_t>(j)];
      if (lane.released()) continue;
      if (lane.reads_done >= s.num_subobjects || tau < lane.next_read_tau) {
        min_reads = std::min(min_reads, lane.reads_done);
        continue;
      }
      int32_t physical = lane.vdisk + rot;
      if (physical >= d) physical -= d;
#ifdef STAGGER_AUDIT
      audit_alignment(s, j, lane.reads_done, physical);
#endif
      int32_t read_disk = physical;
      const bool down = any_down && !disks_->IsAvailable(physical);
      const bool corrupt = !down && latent_active &&
                           latent.IsCorrupt(physical, lane.reads_done);
      if (corrupt && !degraded) {
        // DegradedPolicy::kNone verifies nothing: the corrupt fragment
        // ships to the viewer.  Counted so fault-aware configurations
        // can pin this to zero.
        ++metrics_.corrupt_frames_delivered;
      }
      if (degraded && (down || corrupt)) {
        if (corrupt) {
          // The checksum rejects the transfer before it completes, so
          // the corrupt read is not charged against the disk's slack;
          // the fragment is served through the ladder below instead.
          disks_->latent_errors().MarkDetected(physical, lane.reads_done);
          ++metrics_.corrupt_reads_detected;
        }
        read_disk = -1;
        if (config_.degraded_policy == DegradedPolicy::kReconstruct &&
            s.parity) {
          // Read the stripe's parity fragment in place of the lost one:
          // the M-1 surviving lanes plus parity reconstruct it in
          // buffer.  The extra read is charged against the parity
          // disk's slack this interval.
          const int32_t parity_disk = static_cast<int32_t>(PositiveMod(
              static_cast<int64_t>(s.start_disk) +
                  lane.reads_done * config_.stride + s.degree,
              d));
          if (disks_->IsAvailable(parity_disk) &&
              !disks_->SlotBusy(parity_disk) && !IsClaimed(parity_disk) &&
              !(latent_active &&
                latent.IsCorrupt(parity_disk, lane.reads_done))) {
            read_disk = parity_disk;
            ++metrics_.reconstructed_reads;
          }
        }
        if (read_disk < 0 &&
            config_.degraded_policy != DegradedPolicy::kPause) {
          // kRemapOrPause, or kReconstruct falling down its ladder when
          // parity offers no slack (or the stream carries none).  The
          // substitute models a replica read off another disk's copy,
          // so the original cell's corruption does not follow it.
          read_disk = FindDegradedSubstitute(s, static_cast<size_t>(j));
          if (read_disk >= 0) ++metrics_.degraded_reads;
        }
        if (read_disk < 0) {
          pausing = true;
          break;
        }
        MarkClaimed(read_disk);
      }
      disks_->ReserveSlot(read_disk);
      if (observe) {
        config_.read_observer(interval_index_, s.object, lane.reads_done, j,
                              read_disk);
      }
      ++lane.reads_done;
      ++buffered_delta;
      lane.next_read_tau = tau + 1;
      min_reads = std::min(min_reads, lane.reads_done);
      if (lane.reads_done >= s.num_subobjects) ReleaseLane(&s, j);
    }
    if (pausing) {
      // The stream cannot read its due fragment: park it before the
      // output clock would record a hiccup.  Reads already issued this
      // interval are wasted bandwidth, which is the honest cost of the
      // mid-stripe failure.
      // stagger-lint: allow(hot-path-alloc) -- scratch_to_pause_ keeps its capacity across ticks (clear(), never shrink), so this amortizes to zero allocations in steady state
      scratch_to_pause_.push_back(id);
      continue;
    }

    // Output: subobject `delivered` is transmitted at tau == delta_max +
    // delivered, synchronized across lanes (Algorithm 1).
    if (tau >= s.delta_max && s.delivered < s.num_subobjects) {
      const int64_t due = s.delivered;
      if (min_reads <= due) {
        // Some lane fell behind the output clock: charge one hiccup per
        // late lane, exactly as the full scan would.
        for (int32_t j = 0; j < s.degree; ++j) {
          if (s.lanes[static_cast<size_t>(j)].reads_done <= due) {
            ++metrics_.hiccups;
          }
        }
      }
      ++s.delivered;
      buffered_delta -= s.degree;
      if (s.delivered == 1 && !s.resumed_mid_display) {
        const SimTime latency = IntervalStart(interval_index_) - s.arrival_time;
        metrics_.startup_latency_sec.Add(latency.seconds());
        if (s.on_started) s.on_started(latency);
      }
      // stagger-lint: allow(hot-path-alloc) -- scratch_finished_ keeps its capacity across ticks (clear(), never shrink), so this amortizes to zero allocations in steady state
      if (s.delivered == s.num_subobjects) scratch_finished_.push_back(id);
    }
  }
  buffered_fragments_ += buffered_delta;

  for (StreamId id : scratch_to_pause_) PauseStream(id);
  scratch_to_pause_.clear();
  for (StreamId id : scratch_finished_) {
    if (SlotOf(id) < 0) continue;
    request_to_stream_.erase(id);
    FinishStream(id, /*completed=*/true);
  }
  scratch_finished_.clear();
}

int32_t IntervalScheduler::FindDegradedSubstitute(const Stream& s,
                                                  size_t lane_index) const {
  const int32_t d = frame_.num_disks();
  const FragmentLane& lane = s.lanes[lane_index];
  const auto usable = [&](int32_t disk) {
    return disks_->IsAvailable(disk) && !disks_->SlotBusy(disk) &&
           !IsClaimed(disk);
  };
  // Surviving disks of the subobject's own stripe first — they hold the
  // sibling fragments a stripe-level replica reconstructs from — then
  // any disk with slack this interval.
  const int64_t base = static_cast<int64_t>(s.start_disk) +
                       lane.reads_done * config_.stride;
  for (int32_t j = 0; j < s.degree; ++j) {
    const int32_t cand = static_cast<int32_t>(PositiveMod(base + j, d));
    if (usable(cand)) return cand;
  }
  for (int32_t cand = 0; cand < d; ++cand) {
    if (usable(cand)) return cand;
  }
  return -1;
}

void IntervalScheduler::PauseStream(StreamId id) {
  Stream* sp = FindStream(id);
  STAGGER_CHECK(sp != nullptr) << "unknown stream " << id;
  Stream& s = *sp;
  STAGGER_DCHECK(s.delivered < s.num_subobjects);

  PausedStream p;
  p.id = s.id;
  p.remainder.object = s.object;
  p.remainder.degree = s.degree;
  // Resume from the first undelivered subobject; buffered read-ahead is
  // dropped (those fragments will be re-read after recovery).
  p.remainder.start_disk = static_cast<int32_t>(PositiveMod(
      static_cast<int64_t>(s.start_disk) + s.delivered * config_.stride,
      frame_.num_disks()));
  p.remainder.num_subobjects = s.num_subobjects - s.delivered;
  p.remainder.parity = s.parity;
  p.remainder.on_started = std::move(s.on_started);
  p.remainder.on_completed = std::move(s.on_completed);
  p.remainder.on_interrupted = std::move(s.on_interrupted);
  p.arrival = s.arrival_time;
  p.paused_at = sim_->Now();
  p.paused_at_interval = interval_index_;
  p.backoff = config_.retry_backoff_intervals;
  p.retry_at_interval = interval_index_ + p.backoff;
  p.resumed_mid_display = s.delivered > 0 || s.resumed_mid_display;

  request_to_stream_[id] = kNoStream;
  ++metrics_.streams_paused;
  FinishStream(id, /*completed=*/false);
  paused_.push_back(std::move(p));
}

void IntervalScheduler::RetryPaused() {
  for (auto it = paused_.begin(); it != paused_.end();) {
    PausedStream& p = *it;
    if (interval_index_ < p.retry_at_interval) {
      ++it;
      continue;
    }
    if (config_.max_pause_intervals > 0 &&
        interval_index_ - p.paused_at_interval > config_.max_pause_intervals) {
      // Give up: the viewer's display is interrupted for good.  The
      // owner is told so it can release per-display state (pins) and a
      // closed-loop station is not left waiting forever.
      request_to_stream_.erase(p.id);
      ++metrics_.displays_interrupted;
      ++metrics_.displays_cancelled;
      auto on_interrupted = std::move(p.remainder.on_interrupted);
      it = paused_.erase(it);
      if (on_interrupted) on_interrupted();
      continue;
    }
    Pending pending;
    pending.id = p.id;
    pending.req = p.remainder;
    pending.arrival = p.arrival;
    pending.resumed = true;
    pending.started = p.resumed_mid_display;
    if (TryAdmit(pending)) {
      ++metrics_.streams_resumed;
      metrics_.resume_latency_sec.Add((sim_->Now() - p.paused_at).seconds());
      it = paused_.erase(it);
    } else {
      p.backoff =
          std::min(p.backoff * 2, config_.max_retry_backoff_intervals);
      p.retry_at_interval = interval_index_ + p.backoff;
      ++it;
    }
  }
}

void IntervalScheduler::TryCoalesce(Stream* s) {
  // One migration per stream per interval (Algorithm 2 admits a new
  // coalesce request only after the previous one completes).
  const int64_t tau = s->Tau(interval_index_);
  const int32_t d = frame_.num_disks();

  // Pick the lane with the largest lead (biggest buffer backlog).
  int32_t pick = -1;
  int64_t pick_lead = 0;
  for (int32_t j = 0; j < s->degree; ++j) {
    const FragmentLane& lane = s->lanes[static_cast<size_t>(j)];
    if (lane.released() || lane.reads_done >= s->num_subobjects) continue;
    if (lane.next_read_tau > tau) continue;  // mid-gap from prior migration
    const int64_t effective_delta = lane.next_read_tau - lane.reads_done;
    const int64_t lead = s->delta_max - effective_delta;
    if (lead > pick_lead) {
      pick_lead = lead;
      pick = j;
    }
  }
  if (pick < 0) return;

  FragmentLane& lane = s->lanes[static_cast<size_t>(pick)];
  const int32_t target = static_cast<int32_t>(PositiveMod(
      static_cast<int64_t>(s->start_disk) + lane.reads_done * config_.stride +
          pick,
      d));
  const int64_t cur_effective = lane.next_read_tau - lane.reads_done;
  // Latest safe resume: outputs reach subobject reads_done exactly when
  // the new disk takes over (backlog fully drained, no hiccup).
  const int64_t max_resume = lane.reads_done + s->delta_max;

  // The free virtual disk with the largest safe resume, found by probing
  // the occupancy bitmap in strictly decreasing resume order.
  const auto found = frame_.FindLatestFreeVdisk(vdisk_occupied_,
                                                interval_index_, target, tau,
                                                max_resume);
  if (!found.has_value()) return;
  const int32_t best_v = found->first;
  const int64_t best_resume = found->second;
  const int64_t new_effective = best_resume - lane.reads_done;
  if (new_effective <= cur_effective) return;  // no buffer improvement

  // Migrate: release the old disk now; reads resume on the new one.
  vdisk_owner_[static_cast<size_t>(lane.vdisk)] = kNoStream;
  vdisk_occupied_.Clear(lane.vdisk);
  vdisk_owner_[static_cast<size_t>(best_v)] = s->id;
  vdisk_occupied_.Set(best_v);
  lane.vdisk = best_v;
  lane.next_read_tau = best_resume;
  ++metrics_.coalesce_migrations;

  // Shrink the buffer reservation to the new steady-state backlog.
  int64_t new_reserved = 0;
  for (int32_t j = 0; j < s->degree; ++j) {
    const FragmentLane& l = s->lanes[static_cast<size_t>(j)];
    if (l.reads_done >= s->num_subobjects) continue;
    const int64_t eff = l.next_read_tau - l.reads_done;
    new_reserved += std::max<int64_t>(0, s->delta_max - eff);
  }
  if (new_reserved < s->buffer_reserved) {
    buffers_.Release(s->buffer_reserved - new_reserved);
    s->buffer_reserved = new_reserved;
  }
  // Still fragmented while any lane leads.
  s->fragmented = false;
  for (int32_t j = 0; j < s->degree; ++j) {
    const FragmentLane& l = s->lanes[static_cast<size_t>(j)];
    if (l.reads_done >= s->num_subobjects) continue;
    if (l.next_read_tau - l.reads_done < s->delta_max) {
      s->fragmented = true;
      break;
    }
  }
}

void IntervalScheduler::ReleaseLane(Stream* s, int32_t lane_index) {
  FragmentLane& lane = s->lanes[static_cast<size_t>(lane_index)];
  if (lane.released()) return;
  STAGGER_DCHECK(vdisk_owner_[static_cast<size_t>(lane.vdisk)] == s->id);
  vdisk_owner_[static_cast<size_t>(lane.vdisk)] = kNoStream;
  vdisk_occupied_.Clear(lane.vdisk);
  lane.vdisk = FragmentLane::kReleased;
}

void IntervalScheduler::FinishStream(StreamId id, bool completed) {
  const int32_t slot = SlotOf(id);
  STAGGER_CHECK(slot >= 0) << "unknown stream " << id;
  Stream& s = slots_[static_cast<size_t>(slot)];
  buffered_fragments_ -= s.TotalBufferedFragments();
  for (int32_t j = 0; j < s.degree; ++j) {
    ReleaseLane(&s, j);
  }
  if (s.buffer_reserved > 0) {
    buffers_.Release(s.buffer_reserved);
    s.buffer_reserved = 0;
  }
  auto on_completed = std::move(s.on_completed);
  // Reset the slot for reuse; lanes keep their capacity, callbacks drop
  // their captures.
  s.id = kNoStream;
  s.lanes.clear();
  s.on_completed = nullptr;
  s.on_started = nullptr;
  s.on_interrupted = nullptr;
  EraseActive(id);
  free_slots_.push_back(slot);
  if (completed) {
    ++metrics_.displays_completed;
    if (on_completed) on_completed();
  }
}

void IntervalScheduler::UpdateIntervalStats() {
  const SimTime now = sim_->Now();
  metrics_.queue_length.Set(now, static_cast<double>(queue_.size()));
  metrics_.buffered_fragments.Set(now,
                                  static_cast<double>(buffered_fragments_));
  metrics_.peak_buffered_fragments =
      std::max(metrics_.peak_buffered_fragments, buffered_fragments_);
}

}  // namespace stagger
