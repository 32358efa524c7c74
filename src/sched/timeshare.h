// Linux 2.2-style time-sharing scheduler — the paper's second baseline.
//
// Models the stock scheduler the paper compares against in Figures 6(b), 6(c), 7
// and Table 1: counter-driven epochs with a goodness() dispatch function.
//
//   * every thread has a static priority (default DEF_PRIORITY = 20 timer ticks)
//     and a counter holding its remaining timeslice in ticks;
//   * dispatch picks the runnable thread with the highest goodness =
//     counter + priority (+ a small bonus for processor affinity), 0 if the
//     counter is exhausted;
//   * when every runnable thread has exhausted its counter a new epoch begins:
//     for ALL threads counter = counter/2 + priority — blocked (I/O-bound) threads
//     therefore carry up to priority extra ticks into the next epoch, which is how
//     the time-sharing scheduler favours interactive applications (Figure 6(c));
//   * weights are ignored — there is no notion of proportional share, which is
//     exactly why isolation fails in Figure 6(b).

#ifndef SFS_SCHED_TIMESHARE_H_
#define SFS_SCHED_TIMESHARE_H_

#include "src/common/intrusive_list.h"
#include "src/sched/scheduler.h"

namespace sfs::sched {

class Timeshare : public Scheduler {
 public:
  // Counter/priority unit is the timer tick (kLinuxTimerTick = 10 ms).
  static constexpr int kDefaultPriorityTicks = 20;
  static constexpr int kAffinityBonus = 1;

  explicit Timeshare(const SchedConfig& config);
  ~Timeshare() override;

  std::string_view name() const override { return "timeshare"; }

  // Remaining timeslice drives the quantum: a dispatched thread runs until its
  // counter is exhausted (or it blocks), like the kernel's tick-driven slice.
  Tick QuantumFor(ThreadId tid) override;

  CpuId SuggestPreemption(ThreadId woken, const std::vector<Tick>& elapsed) override;

  // Adjusts a thread's static priority (the nice/setpriority analogue).
  void SetPriorityTicks(ThreadId tid, int ticks);

  std::int64_t CounterTicks(ThreadId tid) const { return FindEntity(tid).counter; }
  std::int64_t epochs() const { return epochs_; }

 protected:
  void OnAdmit(Entity& e) override;
  void OnRemove(Entity& e) override;
  void OnBlocked(Entity& e) override;
  void OnWoken(Entity& e) override;
  void OnWeightChanged(Entity& e, Weight old_weight) override;
  Entity* PickNextEntity(CpuId cpu) override;
  void OnCharge(Entity& e, Tick ran_for) override;

 private:
  std::int64_t Goodness(const Entity& e, CpuId cpu) const;
  void RecalculateEpoch();

  common::IntrusiveList<Entity, &Entity::by_queue> run_queue_;
  std::int64_t epochs_ = 0;
};

}  // namespace sfs::sched

#endif  // SFS_SCHED_TIMESHARE_H_
