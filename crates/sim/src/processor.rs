//! A processor-sharing multi-core CPU with per-group rate caps.
//!
//! The model matches Linux CFS bandwidth control as used by Docker CPU
//! shares in the ATOM paper:
//!
//! * the processor has `cores` cores, each executing `speed` work-units per
//!   second (work is expressed in *reference* CPU-seconds, so `speed`
//!   captures CPU frequency differences between servers, Table V);
//! * each **group** (one container replica) is capped at `cap` cores, e.g.
//!   a CPU share of 0.2 means at most 20% of one core even when the rest of
//!   the machine is idle;
//! * each **job** (one request being executed by one thread) can use at most
//!   one core — a single-threaded service cannot go faster by being given a
//!   larger share, which is exactly the effect that makes vertical scaling
//!   ineffective in the paper's heavy-load Case B (Fig. 2b);
//! * capacity is divided by *water-filling*: every group demands
//!   `min(cap, jobs)` cores; if total demand exceeds the machine, groups
//!   share the shortfall equally (no group gets more than its demand).
//!
//! Callers drive virtual time explicitly: every mutating call takes the
//! current simulation time and internally advances all remaining-work
//! counters. The [`PsProcessor::generation`] counter is bumped whenever the
//! rate allocation changes, letting simulators detect stale completion
//! events.
//!
//! # Cost
//!
//! A discrete-event simulator calls this processor on every event, so
//! the layout is built for one pass over the *live* jobs per event:
//!
//! * live jobs sit in dense parallel arrays (slot, group, remaining work),
//!   removed by swap-remove, with a slot → position map. Freed slots are
//!   reused last-in first-out, so [`JobId`]s are small dense integers;
//! * every job of a group runs at the same rate, so rates are kept per
//!   group and a reallocation costs O(groups), not O(jobs);
//! * [`PsProcessor::add_job`] and [`PsProcessor::next_completion`] drain
//!   the elapsed work and search for the next completion in the same
//!   pass;
//! * the last completion search is cached under `(now, generation, last
//!   update)`, so asking again at the same instant is free.
//!
//! Every result is bitwise what a per-job slot-order scan computes: each
//! job still drains by `remaining - rate·dt` on its own, and equal
//! completion times resolve to the lowest [`JobId`].

/// Identifier of a group (container) on a processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub usize);

/// Identifier of a job (in-flight request execution) on a processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub usize);

/// Slot-map entry of a slot with no live job.
const FREE: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Group {
    cap: f64,
    active_jobs: usize,
    /// Allocated cores at the current allocation.
    alloc: f64,
    /// ∫ allocated-cores dt — for per-container utilisation metering.
    busy_integral: f64,
}

/// A completion search result and the state it was computed in.
#[derive(Debug, Clone, Copy)]
struct CachedCompletion {
    now: u64,
    generation: u64,
    last_update: u64,
    next: Option<(f64, JobId)>,
}

/// A multi-core processor-sharing CPU. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct PsProcessor {
    cores: f64,
    speed: f64,
    groups: Vec<Group>,
    /// Work-units per second of each job of a group, by group.
    rate: Vec<f64>,
    /// `rate` before the latest reallocation (`add_job` drains with it).
    prev_rate: Vec<f64>,
    /// Live jobs, dense and unordered: slot, group, remaining work.
    live_slot: Vec<usize>,
    live_group: Vec<usize>,
    live_remaining: Vec<f64>,
    /// Position of each slot's job in the live arrays, or [`FREE`].
    position: Vec<usize>,
    free_slots: Vec<usize>,
    last_update: f64,
    busy_integral: f64,
    generation: u64,
    /// Scratch for `reallocate`'s water-filling.
    demands: Vec<(usize, f64)>,
    cached: Option<CachedCompletion>,
}

impl PsProcessor {
    /// Creates a processor with `cores` cores, each running at `speed`
    /// work-units per second.
    ///
    /// # Panics
    ///
    /// Panics if `cores` or `speed` is not strictly positive and finite.
    pub fn new(cores: f64, speed: f64) -> Self {
        assert!(
            cores.is_finite() && cores > 0.0,
            "cores must be positive, got {cores}"
        );
        assert!(
            speed.is_finite() && speed > 0.0,
            "speed must be positive, got {speed}"
        );
        PsProcessor {
            cores,
            speed,
            groups: Vec::new(),
            rate: Vec::new(),
            prev_rate: Vec::new(),
            live_slot: Vec::new(),
            live_group: Vec::new(),
            live_remaining: Vec::new(),
            position: Vec::new(),
            free_slots: Vec::new(),
            last_update: 0.0,
            busy_integral: 0.0,
            generation: 0,
            demands: Vec::new(),
            cached: None,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> f64 {
        self.cores
    }

    /// Speed factor (work-units per core-second).
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Adds a group (container) capped at `cap` cores and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is negative or NaN.
    pub fn add_group(&mut self, cap: f64) -> GroupId {
        assert!(cap.is_finite() && cap >= 0.0, "cap must be >= 0, got {cap}");
        self.groups.push(Group {
            cap,
            active_jobs: 0,
            alloc: 0.0,
            busy_integral: 0.0,
        });
        self.rate.push(0.0);
        self.prev_rate.push(0.0);
        GroupId(self.groups.len() - 1)
    }

    /// Changes the core cap of `group` (vertical scaling), effective at
    /// simulation time `now`.
    ///
    /// # Panics
    ///
    /// Panics if the group does not exist or `cap` is invalid.
    pub fn set_group_cap(&mut self, now: f64, group: GroupId, cap: f64) {
        assert!(cap.is_finite() && cap >= 0.0, "cap must be >= 0, got {cap}");
        self.advance(now);
        self.groups[group.0].cap = cap;
        self.reallocate();
    }

    /// Current core cap of `group`.
    pub fn group_cap(&self, group: GroupId) -> f64 {
        self.groups[group.0].cap
    }

    /// Adds a job with `work` work-units to `group` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `work` is negative/NaN or the group does not exist.
    pub fn add_job(&mut self, now: f64, group: GroupId, work: f64) -> JobId {
        assert!(
            work.is_finite() && work >= 0.0,
            "work must be >= 0, got {work}"
        );
        let dt = self.accrue(now);
        self.groups[group.0].active_jobs += 1;
        std::mem::swap(&mut self.rate, &mut self.prev_rate);
        self.reallocate();
        // The jobs already running drain at the old rates; the scan for
        // the next completion runs at the new ones.
        let mut next = self.drain_and_scan(now, dt, true);
        let slot = match self.free_slots.pop() {
            Some(slot) => slot,
            None => {
                self.position.push(FREE);
                self.position.len() - 1
            }
        };
        self.position[slot] = self.live_slot.len();
        self.live_slot.push(slot);
        self.live_group.push(group.0);
        self.live_remaining.push(work);
        let rate = self.rate[group.0];
        if rate > 0.0 {
            next = earlier(next, (now + work / rate, JobId(slot)));
        }
        self.cache(now, next);
        JobId(slot)
    }

    /// Removes `job` at time `now` (normally on completion) and returns its
    /// residual work (≈0 when complete).
    ///
    /// # Panics
    ///
    /// Panics if the job does not exist.
    pub fn remove_job(&mut self, now: f64, job: JobId) -> f64 {
        let at = self.position_of(job);
        self.advance(now);
        self.live_slot.swap_remove(at);
        let group = self.live_group.swap_remove(at);
        let remaining = self.live_remaining.swap_remove(at);
        if let Some(&moved) = self.live_slot.get(at) {
            self.position[moved] = at;
        }
        self.position[job.0] = FREE;
        self.free_slots.push(job.0);
        self.groups[group].active_jobs -= 1;
        self.reallocate();
        remaining
    }

    /// Remaining work of `job`, after advancing to `now`.
    ///
    /// # Panics
    ///
    /// Panics if the job does not exist.
    pub fn remaining(&mut self, now: f64, job: JobId) -> f64 {
        let at = self.position_of(job);
        self.advance(now);
        self.live_remaining[at]
    }

    /// Earliest `(completion_time, job)` among active jobs, evaluated at
    /// `now`. Equal completion times resolve to the lowest [`JobId`].
    /// Returns `None` if no job is running (or all rates are zero, e.g.
    /// every group cap is 0).
    pub fn next_completion(&mut self, now: f64) -> Option<(f64, JobId)> {
        if let Some(c) = self.cached {
            if c.now == now.to_bits()
                && c.generation == self.generation
                && c.last_update == self.last_update.to_bits()
            {
                return c.next;
            }
        }
        let dt = self.accrue(now);
        let next = self.drain_and_scan(now, dt, false);
        self.cache(now, next);
        next
    }

    /// Generation counter: bumped whenever the rate allocation changes.
    /// Completion events scheduled under an older generation are stale.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of active jobs.
    pub fn active_jobs(&self) -> usize {
        self.live_slot.len()
    }

    /// Number of active jobs in `group`.
    pub fn group_active_jobs(&self, group: GroupId) -> usize {
        self.groups[group.0].active_jobs
    }

    /// Advances virtual time to `now`, draining remaining work at the
    /// current rates. Idempotent for `now <=` the last update time.
    pub fn advance(&mut self, now: f64) {
        let dt = self.accrue(now);
        if dt > 0.0 {
            for (remaining, &g) in self.live_remaining.iter_mut().zip(&self.live_group) {
                *remaining = (*remaining - self.rate[g] * dt).max(0.0);
            }
        }
    }

    /// ∫ busy-cores dt since construction (core-seconds).
    /// `(busy_core_seconds(t2) - busy_core_seconds(t1)) / (cores · (t2-t1))`
    /// is the machine utilisation over a window.
    pub fn busy_core_seconds(&self) -> f64 {
        self.busy_integral
    }

    /// ∫ busy-cores dt for one group (container utilisation metering).
    pub fn group_busy_core_seconds(&self, group: GroupId) -> f64 {
        self.groups[group.0].busy_integral
    }

    /// [`PsProcessor::busy_core_seconds`] projected to `now` *without*
    /// advancing state: the accumulated integral plus the current
    /// allocation extrapolated over `now - last_update` (allocations only
    /// change at mutating calls, so the extrapolation is exact).
    ///
    /// Monitors should read utilisation at observation points (window
    /// boundaries) through this instead of `advance` + the accumulator:
    /// advancing splits the remaining-work arithmetic at the observation
    /// time, so the same simulation windowed differently would drift
    /// apart by floating-point rounding. A pure read keeps replays
    /// bit-identical across window sizes.
    pub fn busy_core_seconds_at(&self, now: f64) -> f64 {
        let dt = (now - self.last_update).max(0.0);
        let total_alloc: f64 = self.groups.iter().map(|g| g.alloc).sum();
        self.busy_integral + total_alloc * dt
    }

    /// [`PsProcessor::group_busy_core_seconds`] projected to `now`
    /// without advancing state (see [`PsProcessor::busy_core_seconds_at`]).
    pub fn group_busy_core_seconds_at(&self, now: f64, group: GroupId) -> f64 {
        let dt = (now - self.last_update).max(0.0);
        let g = &self.groups[group.0];
        g.busy_integral + g.alloc * dt
    }

    /// Position of `job` in the live arrays.
    fn position_of(&self, job: JobId) -> usize {
        match self.position.get(job.0) {
            Some(&at) if at != FREE => at,
            _ => panic!("job does not exist: {job:?}"),
        }
    }

    /// Moves the clock and the busy integrals to `now` and returns the
    /// elapsed time, which the caller must drain from every live job.
    /// Returns a non-positive value, and changes nothing, when `now` is
    /// not past the last update.
    fn accrue(&mut self, now: f64) -> f64 {
        let dt = now - self.last_update;
        if dt <= 0.0 {
            return dt;
        }
        let mut total_alloc = 0.0;
        for g in &mut self.groups {
            g.busy_integral += g.alloc * dt;
            total_alloc += g.alloc;
        }
        self.busy_integral += total_alloc * dt;
        self.last_update = now;
        dt
    }

    /// The one pass over the live jobs: drains `dt` of work from each
    /// (at the previous allocation's rates if `drain_at_prev_rates`, else
    /// at the current ones; nothing if `dt <= 0`), and returns the earliest
    /// completion at the current rates.
    fn drain_and_scan(
        &mut self,
        now: f64,
        dt: f64,
        drain_at_prev_rates: bool,
    ) -> Option<(f64, JobId)> {
        let drain_rate = if drain_at_prev_rates {
            &self.prev_rate
        } else {
            &self.rate
        };
        let mut next = None;
        for ((remaining, &g), &slot) in self
            .live_remaining
            .iter_mut()
            .zip(&self.live_group)
            .zip(&self.live_slot)
        {
            if dt > 0.0 {
                *remaining = (*remaining - drain_rate[g] * dt).max(0.0);
            }
            let rate = self.rate[g];
            if rate > 0.0 {
                next = earlier(next, (now + *remaining / rate, JobId(slot)));
            }
        }
        next
    }

    fn cache(&mut self, now: f64, next: Option<(f64, JobId)>) {
        self.cached = Some(CachedCompletion {
            now: now.to_bits(),
            generation: self.generation,
            last_update: self.last_update.to_bits(),
            next,
        });
    }

    /// Recomputes the water-filling allocation and the per-group rates.
    /// Called internally after any change; bumps the generation counter.
    fn reallocate(&mut self) {
        self.generation += 1;
        // Demands in cores: a group can use at most min(cap, jobs) cores.
        let mut demands = std::mem::take(&mut self.demands);
        demands.clear();
        for (i, g) in self.groups.iter_mut().enumerate() {
            g.alloc = 0.0;
            if g.active_jobs > 0 {
                let d = g.cap.min(g.active_jobs as f64);
                if d > 0.0 {
                    demands.push((i, d));
                }
            }
        }
        let total_demand: f64 = demands.iter().map(|&(_, d)| d).sum();
        if total_demand <= self.cores {
            for &(i, d) in &demands {
                self.groups[i].alloc = d;
            }
        } else {
            // Water-filling: equal shares, clamped at each group's demand.
            demands.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            let mut remaining_cap = self.cores;
            let mut remaining = demands.as_slice();
            while !remaining.is_empty() {
                let share = remaining_cap / remaining.len() as f64;
                // Groups whose demand fits under the fair share are granted
                // fully; the rest re-share what is left.
                let split = remaining.partition_point(|&(_, d)| d <= share);
                if split == 0 {
                    for &(i, _) in remaining {
                        self.groups[i].alloc = share;
                    }
                    break;
                }
                for &(i, d) in &remaining[..split] {
                    self.groups[i].alloc = d;
                    remaining_cap -= d;
                }
                remaining = &remaining[split..];
            }
        }
        self.demands = demands;
        // Per-job rates: equal split within the group, times speed.
        for (rate, g) in self.rate.iter_mut().zip(&self.groups) {
            *rate = if g.active_jobs > 0 {
                g.alloc / g.active_jobs as f64 * self.speed
            } else {
                0.0
            };
        }
    }
}

/// The earlier of a completion and a candidate; equal times resolve to the
/// lower job id, which is what a strict `<` scan in slot order keeps.
fn earlier(best: Option<(f64, JobId)>, candidate: (f64, JobId)) -> Option<(f64, JobId)> {
    match best {
        Some(b) if b.0 < candidate.0 || (b.0 == candidate.0 && b.1 < candidate.1) => best,
        _ => Some(candidate),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_job_full_core() {
        let mut cpu = PsProcessor::new(4.0, 1.0);
        let g = cpu.add_group(4.0);
        let j = cpu.add_job(0.0, g, 2.0);
        let (t, id) = cpu.next_completion(0.0).unwrap();
        assert_eq!(id, j);
        // One job can use at most one core even with cap 4.
        assert!((t - 2.0).abs() < 1e-12);
    }

    #[test]
    fn share_cap_limits_rate() {
        let mut cpu = PsProcessor::new(4.0, 1.0);
        let g = cpu.add_group(0.2);
        cpu.add_job(0.0, g, 1.0);
        let (t, _) = cpu.next_completion(0.0).unwrap();
        assert!((t - 5.0).abs() < 1e-12);
    }

    #[test]
    fn speed_scales_execution() {
        let mut cpu = PsProcessor::new(1.0, 0.8);
        let g = cpu.add_group(1.0);
        cpu.add_job(0.0, g, 0.8);
        let (t, _) = cpu.next_completion(0.0).unwrap();
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ps_sharing_within_group() {
        let mut cpu = PsProcessor::new(1.0, 1.0);
        let g = cpu.add_group(1.0);
        let j1 = cpu.add_job(0.0, g, 1.0);
        let _j2 = cpu.add_job(0.0, g, 2.0);
        // Each job runs at 0.5: j1 done at t=2.
        let (t, id) = cpu.next_completion(0.0).unwrap();
        assert_eq!(id, j1);
        assert!((t - 2.0).abs() < 1e-12);
        cpu.remove_job(t, j1);
        // j2 has 2 - 0.5*2 = 1 left, now at full rate: done at t=3.
        let (t2, _) = cpu.next_completion(t).unwrap();
        assert!((t2 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn water_filling_respects_caps() {
        let mut cpu = PsProcessor::new(2.0, 1.0);
        let small = cpu.add_group(0.25);
        let big = cpu.add_group(4.0);
        cpu.add_job(0.0, small, 10.0);
        for _ in 0..4 {
            cpu.add_job(0.0, big, 10.0);
        }
        // Demands: small 0.25, big min(4, 4)=4 -> total 4.25 > 2.
        // Fair share pass: share=1.0 -> small (0.25) granted, big gets 1.75.
        cpu.advance(1.0);
        assert!((cpu.group_busy_core_seconds(small) - 0.25).abs() < 1e-12);
        assert!((cpu.group_busy_core_seconds(big) - 1.75).abs() < 1e-12);
        assert!((cpu.busy_core_seconds() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn equal_split_when_all_saturated() {
        let mut cpu = PsProcessor::new(3.0, 1.0);
        let g1 = cpu.add_group(2.0);
        let g2 = cpu.add_group(2.0);
        for _ in 0..2 {
            cpu.add_job(0.0, g1, 10.0);
            cpu.add_job(0.0, g2, 10.0);
        }
        // Demands 2+2=4 > 3 -> each gets 1.5.
        cpu.advance(2.0);
        assert!((cpu.group_busy_core_seconds(g1) - 3.0).abs() < 1e-12);
        assert!((cpu.group_busy_core_seconds(g2) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn vertical_scale_mid_flight() {
        let mut cpu = PsProcessor::new(1.0, 1.0);
        let g = cpu.add_group(0.5);
        let j = cpu.add_job(0.0, g, 1.0);
        // After 1s at rate 0.5, 0.5 work left; double the share.
        cpu.set_group_cap(1.0, g, 1.0);
        let (t, id) = cpu.next_completion(1.0).unwrap();
        assert_eq!(id, j);
        assert!((t - 1.5).abs() < 1e-12);
    }

    #[test]
    fn generation_bumps_on_change() {
        let mut cpu = PsProcessor::new(1.0, 1.0);
        let g = cpu.add_group(1.0);
        let g0 = cpu.generation();
        let j = cpu.add_job(0.0, g, 1.0);
        assert!(cpu.generation() > g0);
        let g1 = cpu.generation();
        cpu.remove_job(0.5, j);
        assert!(cpu.generation() > g1);
    }

    #[test]
    fn zero_cap_group_makes_no_progress() {
        let mut cpu = PsProcessor::new(1.0, 1.0);
        let g = cpu.add_group(0.0);
        cpu.add_job(0.0, g, 1.0);
        assert!(cpu.next_completion(0.0).is_none());
        assert_eq!(cpu.active_jobs(), 1);
    }

    #[test]
    fn remove_returns_residual_work() {
        let mut cpu = PsProcessor::new(1.0, 1.0);
        let g = cpu.add_group(1.0);
        let j = cpu.add_job(0.0, g, 2.0);
        let residual = cpu.remove_job(0.5, j);
        assert!((residual - 1.5).abs() < 1e-12);
        assert_eq!(cpu.active_jobs(), 0);
    }

    #[test]
    fn slot_reuse_after_removal() {
        let mut cpu = PsProcessor::new(1.0, 1.0);
        let g = cpu.add_group(1.0);
        let j1 = cpu.add_job(0.0, g, 1.0);
        cpu.remove_job(0.1, j1);
        let j2 = cpu.add_job(0.2, g, 1.0);
        assert_eq!(j1.0, j2.0, "slot should be reused");
        assert_eq!(cpu.active_jobs(), 1);
    }

    #[test]
    fn utilization_integral_accumulates() {
        let mut cpu = PsProcessor::new(2.0, 1.0);
        let g = cpu.add_group(2.0);
        cpu.add_job(0.0, g, 10.0);
        cpu.add_job(0.0, g, 10.0);
        cpu.advance(3.0);
        // Two jobs, cap 2 -> 2 cores busy for 3 s.
        assert!((cpu.busy_core_seconds() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn projected_integrals_match_advance_without_mutating() {
        let mut cpu = PsProcessor::new(2.0, 1.0);
        let g = cpu.add_group(2.0);
        let j = cpu.add_job(0.0, g, 10.0);
        // Projection at t=3 agrees with what advancing would report...
        let projected = cpu.busy_core_seconds_at(3.0);
        let group_projected = cpu.group_busy_core_seconds_at(3.0, g);
        let mut advanced = cpu.clone();
        advanced.advance(3.0);
        assert_eq!(projected, advanced.busy_core_seconds());
        assert_eq!(group_projected, advanced.group_busy_core_seconds(g));
        // ...but leaves the simulation state untouched.
        assert!((cpu.remaining(0.0, j) - 10.0).abs() < 1e-12);
        assert_eq!(cpu.busy_core_seconds(), 0.0);
    }

    #[test]
    fn equal_completion_times_resolve_to_lowest_job_id() {
        let mut cpu = PsProcessor::new(2.0, 1.0);
        let g = cpu.add_group(2.0);
        let jobs: Vec<JobId> = (0..3).map(|_| cpu.add_job(0.0, g, 1.0)).collect();
        // Free the lowest slot and refill it last: the tie must still go
        // to the lowest id, not to the first or last job added.
        cpu.remove_job(0.0, jobs[0]);
        let refilled = cpu.add_job(0.0, g, 1.0);
        assert_eq!(refilled, jobs[0]);
        let (t, first) = cpu.next_completion(0.0).unwrap();
        assert_eq!(first, jobs[0]);
        cpu.remove_job(t, first);
        let (t2, second) = cpu.next_completion(t).unwrap();
        assert_eq!(second, jobs[1]);
        assert_eq!(t2.to_bits(), cpu.next_completion(t).unwrap().0.to_bits());
    }

    #[test]
    #[should_panic(expected = "job does not exist")]
    fn double_remove_panics() {
        let mut cpu = PsProcessor::new(1.0, 1.0);
        let g = cpu.add_group(1.0);
        let j = cpu.add_job(0.0, g, 1.0);
        cpu.add_job(0.0, g, 1.0);
        cpu.remove_job(0.5, j);
        cpu.remove_job(0.5, j);
    }

    #[test]
    #[should_panic(expected = "job does not exist")]
    fn removing_a_never_issued_job_panics() {
        let mut cpu = PsProcessor::new(1.0, 1.0);
        let g = cpu.add_group(1.0);
        cpu.add_job(0.0, g, 1.0);
        cpu.remove_job(0.5, JobId(7));
    }

    #[test]
    #[should_panic(expected = "job does not exist")]
    fn remaining_of_a_never_issued_job_panics() {
        let mut cpu = PsProcessor::new(1.0, 1.0);
        cpu.remaining(0.0, JobId(0));
    }

    #[test]
    #[should_panic(expected = "cores must be positive")]
    fn rejects_zero_cores() {
        PsProcessor::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "work must be >= 0")]
    fn rejects_negative_work() {
        let mut cpu = PsProcessor::new(1.0, 1.0);
        let g = cpu.add_group(1.0);
        cpu.add_job(0.0, g, -1.0);
    }
}
