//! The processor-sharing CPU must return bit-for-bit what the original
//! slot-scan implementation returned — every completion time, residual,
//! busy integral, job id and generation — under arbitrary interleavings
//! of its operations. The cluster's pinned digests depend on this
//! equivalence.

use atom_sim::{GroupId, JobId, PsProcessor, SimRng};

/// The original implementation: a `Vec<Option<Job>>` job table scanned in
/// slot order, with one rate per job recomputed on every reallocation.
mod reference {
    use atom_sim::{GroupId, JobId};

    struct Group {
        cap: f64,
        active_jobs: usize,
        alloc: f64,
        busy_integral: f64,
    }

    struct Job {
        group: GroupId,
        remaining: f64,
        rate: f64,
    }

    pub struct SlotScanProcessor {
        cores: f64,
        speed: f64,
        groups: Vec<Group>,
        jobs: Vec<Option<Job>>,
        free_slots: Vec<usize>,
        active_count: usize,
        last_update: f64,
        busy_integral: f64,
        generation: u64,
    }

    impl SlotScanProcessor {
        pub fn new(cores: f64, speed: f64) -> Self {
            SlotScanProcessor {
                cores,
                speed,
                groups: Vec::new(),
                jobs: Vec::new(),
                free_slots: Vec::new(),
                active_count: 0,
                last_update: 0.0,
                busy_integral: 0.0,
                generation: 0,
            }
        }

        pub fn add_group(&mut self, cap: f64) -> GroupId {
            self.groups.push(Group {
                cap,
                active_jobs: 0,
                alloc: 0.0,
                busy_integral: 0.0,
            });
            GroupId(self.groups.len() - 1)
        }

        pub fn set_group_cap(&mut self, now: f64, group: GroupId, cap: f64) {
            self.advance(now);
            self.groups[group.0].cap = cap;
            self.reallocate();
        }

        pub fn add_job(&mut self, now: f64, group: GroupId, work: f64) -> JobId {
            self.advance(now);
            let job = Job {
                group,
                remaining: work,
                rate: 0.0,
            };
            let id = match self.free_slots.pop() {
                Some(slot) => {
                    self.jobs[slot] = Some(job);
                    JobId(slot)
                }
                None => {
                    self.jobs.push(Some(job));
                    JobId(self.jobs.len() - 1)
                }
            };
            self.groups[group.0].active_jobs += 1;
            self.active_count += 1;
            self.reallocate();
            id
        }

        pub fn remove_job(&mut self, now: f64, job: JobId) -> f64 {
            self.advance(now);
            let j = self.jobs[job.0].take().expect("job does not exist");
            self.groups[j.group.0].active_jobs -= 1;
            self.active_count -= 1;
            self.free_slots.push(job.0);
            self.reallocate();
            j.remaining
        }

        pub fn remaining(&mut self, now: f64, job: JobId) -> f64 {
            self.advance(now);
            self.jobs[job.0]
                .as_ref()
                .expect("job does not exist")
                .remaining
        }

        pub fn next_completion(&mut self, now: f64) -> Option<(f64, JobId)> {
            self.advance(now);
            let mut best: Option<(f64, JobId)> = None;
            for (i, slot) in self.jobs.iter().enumerate() {
                if let Some(j) = slot {
                    if j.rate > 0.0 {
                        let t = now + j.remaining / j.rate;
                        if best.is_none_or(|(bt, _)| t < bt) {
                            best = Some((t, JobId(i)));
                        }
                    }
                }
            }
            best
        }

        pub fn generation(&self) -> u64 {
            self.generation
        }

        pub fn active_jobs(&self) -> usize {
            self.active_count
        }

        pub fn group_active_jobs(&self, group: GroupId) -> usize {
            self.groups[group.0].active_jobs
        }

        pub fn advance(&mut self, now: f64) {
            let dt = now - self.last_update;
            if dt <= 0.0 {
                return;
            }
            let mut total_alloc = 0.0;
            for g in &mut self.groups {
                g.busy_integral += g.alloc * dt;
                total_alloc += g.alloc;
            }
            self.busy_integral += total_alloc * dt;
            for j in self.jobs.iter_mut().flatten() {
                j.remaining = (j.remaining - j.rate * dt).max(0.0);
            }
            self.last_update = now;
        }

        pub fn busy_core_seconds(&self) -> f64 {
            self.busy_integral
        }

        pub fn group_busy_core_seconds(&self, group: GroupId) -> f64 {
            self.groups[group.0].busy_integral
        }

        pub fn busy_core_seconds_at(&self, now: f64) -> f64 {
            let dt = (now - self.last_update).max(0.0);
            let total_alloc: f64 = self.groups.iter().map(|g| g.alloc).sum();
            self.busy_integral + total_alloc * dt
        }

        pub fn group_busy_core_seconds_at(&self, now: f64, group: GroupId) -> f64 {
            let dt = (now - self.last_update).max(0.0);
            let g = &self.groups[group.0];
            g.busy_integral + g.alloc * dt
        }

        fn reallocate(&mut self) {
            self.generation += 1;
            let mut demands: Vec<(usize, f64)> = Vec::new();
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
                demands.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
                let mut remaining_cap = self.cores;
                let mut remaining = demands.as_slice();
                while !remaining.is_empty() {
                    let share = remaining_cap / remaining.len() as f64;
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
            for j in self.jobs.iter_mut().flatten() {
                let g = &self.groups[j.group.0];
                j.rate = if g.active_jobs > 0 {
                    g.alloc / g.active_jobs as f64 * self.speed
                } else {
                    0.0
                };
            }
        }
    }
}

use reference::SlotScanProcessor;

/// The shape of one randomised schedule.
struct Schedule {
    cores: f64,
    speed: f64,
    groups: usize,
    /// Caps are drawn from `[0, max_cap)`; a total above `cores`
    /// over-commits the machine and exercises water-filling.
    max_cap: f64,
    /// Probability that a cap is exactly zero (a dead container).
    zero_cap: f64,
    /// Probability that a new job repeats the previous job's group and
    /// work at the same instant (a forced completion tie).
    tie: f64,
    /// Mean job work, in work-units.
    work: f64,
    ops: usize,
}

/// Both implementations, driven in lockstep: every call goes to both and
/// every answer must agree bit for bit.
struct Lockstep {
    fast: PsProcessor,
    slow: SlotScanProcessor,
    /// Where we are, for failure messages.
    at: String,
}

impl Lockstep {
    fn same(&self, what: &str, a: f64, b: f64) -> f64 {
        assert_eq!(a.to_bits(), b.to_bits(), "{what} {a} vs {b} at {}", self.at);
        a
    }

    fn add_group(&mut self, cap: f64) -> GroupId {
        let g = self.fast.add_group(cap);
        assert_eq!(g, self.slow.add_group(cap), "group id at {}", self.at);
        g
    }

    fn add_job(&mut self, now: f64, group: GroupId, work: f64) -> JobId {
        let id = self.fast.add_job(now, group, work);
        let expected = self.slow.add_job(now, group, work);
        assert_eq!(id, expected, "job id at {}", self.at);
        id
    }

    fn remove_job(&mut self, now: f64, job: JobId) -> f64 {
        let (a, b) = (
            self.fast.remove_job(now, job),
            self.slow.remove_job(now, job),
        );
        self.same("residual", a, b)
    }

    fn remaining(&mut self, now: f64, job: JobId) -> f64 {
        let (a, b) = (self.fast.remaining(now, job), self.slow.remaining(now, job));
        self.same("remaining", a, b)
    }

    fn set_group_cap(&mut self, now: f64, group: GroupId, cap: f64) {
        self.fast.set_group_cap(now, group, cap);
        self.slow.set_group_cap(now, group, cap);
    }

    fn advance(&mut self, now: f64) {
        self.fast.advance(now);
        self.slow.advance(now);
    }

    fn next_completion(&mut self, now: f64) -> Option<(f64, JobId)> {
        let a = self.fast.next_completion(now);
        let b = self.slow.next_completion(now);
        assert_eq!(
            a.map(|(t, j)| (t.to_bits(), j)),
            b.map(|(t, j)| (t.to_bits(), j)),
            "next completion {a:?} vs {b:?} at {}",
            self.at
        );
        a
    }

    /// Compares every observable that no call above returns.
    fn check_state(&self, probe: f64, groups: &[GroupId]) {
        let (f, s) = (&self.fast, &self.slow);
        assert_eq!(f.generation(), s.generation(), "generation at {}", self.at);
        assert_eq!(f.active_jobs(), s.active_jobs(), "active at {}", self.at);
        self.same("busy", f.busy_core_seconds(), s.busy_core_seconds());
        self.same(
            "projected busy",
            f.busy_core_seconds_at(probe),
            s.busy_core_seconds_at(probe),
        );
        for &g in groups {
            assert_eq!(f.group_active_jobs(g), s.group_active_jobs(g));
            self.same(
                "group busy",
                f.group_busy_core_seconds(g),
                s.group_busy_core_seconds(g),
            );
            self.same(
                "projected group busy",
                f.group_busy_core_seconds_at(probe, g),
                s.group_busy_core_seconds_at(probe, g),
            );
        }
    }
}

fn draw_cap(rng: &mut SimRng, s: &Schedule) -> f64 {
    if rng.bernoulli(s.zero_cap) {
        0.0
    } else {
        rng.uniform_in(0.0, s.max_cap)
    }
}

fn pick<T: Copy>(rng: &mut SimRng, items: &[T]) -> T {
    items[(rng.uniform() * items.len() as f64) as usize]
}

/// Drives both processors through the same seeded schedule.
fn check_schedule(seed: u64, s: &Schedule) {
    let mut rng = SimRng::seed_from(seed);
    let mut cpu = Lockstep {
        fast: PsProcessor::new(s.cores, s.speed),
        slow: SlotScanProcessor::new(s.cores, s.speed),
        at: format!("setup (seed {seed})"),
    };
    let mut groups: Vec<GroupId> = (0..s.groups)
        .map(|_| {
            let cap = draw_cap(&mut rng, s);
            cpu.add_group(cap)
        })
        .collect();
    let mut live: Vec<JobId> = Vec::new();
    let mut now = 0.0f64;
    let mut last_job: Option<(GroupId, f64)> = None;
    let mut last_query = 0.0f64;
    for op in 0..s.ops {
        cpu.at = format!("op {op} (seed {seed})");
        let r = rng.uniform();
        if r < 0.30 {
            // Add a job, usually after some time has passed.
            let (group, work) = match last_job {
                Some(prev) if rng.bernoulli(s.tie) => prev,
                _ => {
                    if rng.bernoulli(0.6) {
                        now += rng.exponential(s.work);
                    }
                    (pick(&mut rng, &groups), rng.exponential(s.work))
                }
            };
            live.push(cpu.add_job(now, group, work));
            last_job = Some((group, work));
        } else if r < 0.55 {
            // Complete the next job, as the cluster's processor check
            // does, then ask again at the same instant, as a reschedule
            // does.
            if let Some((t, job)) = cpu.next_completion(now) {
                now = now.max(t);
                cpu.remove_job(now, job);
                live.retain(|&j| j != job);
                cpu.next_completion(now);
            }
        } else if r < 0.65 && !live.is_empty() {
            // Remove an arbitrary job (a killed replica's work).
            let job = live.swap_remove((rng.uniform() * live.len() as f64) as usize);
            cpu.remove_job(now, job);
        } else if r < 0.72 {
            // Vertical scaling, sometimes to a zero cap.
            now += rng.exponential(s.work) * 0.5;
            let g = pick(&mut rng, &groups);
            let cap = draw_cap(&mut rng, s);
            cpu.set_group_cap(now, g, cap);
        } else if r < 0.76 {
            let cap = draw_cap(&mut rng, s);
            groups.push(cpu.add_group(cap));
        } else if r < 0.84 {
            now += rng.exponential(s.work);
            cpu.advance(now);
        } else if r < 0.90 && !live.is_empty() {
            now += rng.exponential(s.work) * 0.25;
            let job = pick(&mut rng, &live);
            cpu.remaining(now, job);
        } else {
            // A completion query that is not followed by a removal: later,
            // now, slightly in the past, or at the last query's instant
            // after the clock has moved on since.
            let u = rng.uniform();
            let at = if u < 0.3 {
                now += rng.exponential(s.work);
                now
            } else if u < 0.5 {
                now - rng.exponential(s.work)
            } else if u < 0.7 {
                last_query
            } else {
                now
            };
            cpu.next_completion(at);
            last_query = at;
        }
        cpu.check_state(now + s.work, &groups);
    }
    // Drain: run every job that can finish to completion, then pull the
    // ones stuck in zero-cap groups.
    cpu.at = format!("drain (seed {seed})");
    while let Some((t, job)) = cpu.next_completion(now) {
        now = now.max(t);
        cpu.remove_job(now, job);
        live.retain(|&j| j != job);
    }
    for job in live {
        cpu.remove_job(now, job);
    }
    assert_eq!(cpu.fast.active_jobs(), 0);
    cpu.check_state(now, &groups);
}

#[test]
fn matches_slot_scan_under_capacity() {
    // Caps sum below the cores: every group gets its full demand.
    let s = Schedule {
        cores: 8.0,
        speed: 1.0,
        groups: 4,
        max_cap: 1.5,
        zero_cap: 0.0,
        tie: 0.1,
        work: 0.01,
        ops: 3000,
    };
    for seed in 0..5 {
        check_schedule(seed, &s);
    }
}

#[test]
fn matches_slot_scan_when_water_filling_over_commits() {
    // Many hungry groups on two cores: the shortfall is shared.
    let s = Schedule {
        cores: 2.0,
        speed: 0.8,
        groups: 6,
        max_cap: 3.0,
        zero_cap: 0.05,
        tie: 0.1,
        work: 0.02,
        ops: 3000,
    };
    for seed in 10..15 {
        check_schedule(seed, &s);
    }
}

#[test]
fn matches_slot_scan_with_forced_ties_and_dead_groups() {
    // Equal work added at one instant in one group finishes in a tie;
    // zero-cap groups hold jobs that never finish.
    let s = Schedule {
        cores: 4.0,
        speed: 1.25,
        groups: 3,
        max_cap: 2.0,
        zero_cap: 0.3,
        tie: 0.6,
        work: 0.005,
        ops: 3000,
    };
    for seed in 20..25 {
        check_schedule(seed, &s);
    }
}

#[test]
fn matches_slot_scan_with_heavy_slot_reuse() {
    // A long run around a few dozen live jobs churns the free-slot stack.
    let s = Schedule {
        cores: 4.0,
        speed: 1.0,
        groups: 8,
        max_cap: 1.0,
        zero_cap: 0.02,
        tie: 0.2,
        work: 0.01,
        ops: 20_000,
    };
    for seed in 30..33 {
        check_schedule(seed, &s);
    }
}
