//! The serving side of the pipeline: exported snapshots are loaded into a
//! `ShardedDecisionService` and driven by a seeded open-loop Poisson
//! schedule over a fixed ladder of offered rates.
//!
//! One load thread per shard both generates its shard's arrivals and
//! drains its shard's waves, so the benchmark never runs more threads than
//! shards. A request is timed from the moment it was due, not from when the
//! load thread got round to submitting it, so a stall delays every request that
//! fell due during it.

use crate::schedule::{mix, Arrivals};
use crate::stats::{Histogram, RungOutcome};
use pfrl_core::serve::shard::{ServeLedger, ShardedDecisionService, ShardedServeConfig};
use pfrl_core::serve::{PolicyStore, SessionId};
use pfrl_core::workloads::TaskSpec;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Offered rates below overload, requests per second.
pub const RATES: [f64; 5] = [100e3, 200e3, 400e3, 800e3, 1.2e6];
/// The rung driven far above capacity to measure it.
pub const OVERLOAD: f64 = 4e6;
/// The rung whose latency is reported end to end.
pub const REFERENCE: f64 = 200e3;
/// Latency limit on the p99 from due time to wave return.
pub const LIMIT_US: f64 = 2000.0;
/// Admission queue slots per shard. The service's default (256) holds
/// 1.3 ms of arrivals at the reference rung, while a virtualised host can
/// deschedule a load thread for over 10 ms; with the default, every rung would
/// refuse requests and the ladder would measure the host, not the service.
/// This queue absorbs such stalls, which then show as latency instead.
const QUEUE_CAPACITY: usize = 1 << 16;
/// Tasks in each held-out window a session replays.
const WINDOW: usize = 50;
/// Each rung's arrival window is cut into slices this long. On the shared
/// host this was built on, a fixed piece of work runs up to 1.8 times slower
/// whenever the host's other tenants are busy, in stretches from a
/// millisecond to over a second, so a whole rung's reading mixes the
/// service's speed with the host's. The quietest slice is the service's
/// own; 10 ms holds 2,000 requests at the reference rung and about 9,000
/// decisions at capacity.
pub const SLICE: Duration = Duration::from_millis(10);

/// A loaded service with its sessions opened and mapped to shards.
pub struct Plane {
    svc: ShardedDecisionService,
    /// Per shard: the sessions it owns and each one's client index.
    by_shard: Vec<Vec<(SessionId, usize)>>,
    windows: Vec<Vec<TaskSpec>>,
    seed: u64,
}

/// Clients whose policies serve sessions: the first four snapshots. With
/// [`SESSIONS_PER_CLIENT`] that is 128 sessions on every workload, so the
/// reference rung is below one shard's capacity everywhere.
pub const SERVED_CLIENTS: usize = 4;
pub const SESSIONS_PER_CLIENT: usize = 32;

/// Loads all of `blobs` into a sharded service and opens
/// [`SESSIONS_PER_CLIENT`] sessions for each of the first
/// [`SERVED_CLIENTS`] clients, each starting on a seeded held-out window.
pub fn load(
    blobs: &[Vec<u8>],
    shards: usize,
    heldout: &[Vec<TaskSpec>],
    seed: u64,
) -> Result<Plane, String> {
    let store = PolicyStore::from_blobs(blobs.iter().map(Vec::as_slice))
        .map_err(|e| format!("snapshot store refused the exported blobs: {e}"))?;
    let clients: Vec<String> = store.iter().map(|s| s.client.clone()).collect();
    let svc = ShardedDecisionService::new(
        store,
        ShardedServeConfig {
            shards,
            queue_capacity: QUEUE_CAPACITY,
            ..ShardedServeConfig::default()
        },
    );
    let mut opened = Vec::with_capacity(SERVED_CLIENTS * SESSIONS_PER_CLIENT);
    for (c, name) in clients.iter().enumerate().take(SERVED_CLIENTS) {
        for _ in 0..SESSIONS_PER_CLIENT {
            let id = svc.open_session(name).map_err(|e| format!("open_session({name}): {e}"))?;
            opened.push((id, c));
        }
    }
    let mut plane =
        Plane { svc, by_shard: Vec::new(), windows: heldout.to_vec(), seed: mix(seed, 0x5345) };
    for &(id, c) in &opened {
        plane.begin(id, c, 0)?;
    }
    plane.map_shards(opened)?;
    Ok(plane)
}

impl Plane {
    /// Starts a seeded held-out window on session `id` of client `c`.
    fn begin(&self, id: SessionId, c: usize, episode: u64) -> Result<(), String> {
        let pool = &self.windows[c];
        let off = (mix(self.seed ^ id, episode) % (pool.len() - WINDOW + 1) as u64) as usize;
        self.svc
            .begin_episode(id, &pool[off..off + WINDOW])
            .map_err(|e| format!("begin_episode: {e}"))
    }

    /// Learns which shard owns each session through the public API: one
    /// request per session, then one drain per shard. Also warms every
    /// plan's weights and scratch before timing starts.
    fn map_shards(&mut self, sessions: Vec<(SessionId, usize)>) -> Result<(), String> {
        let client_of: std::collections::HashMap<SessionId, usize> =
            sessions.iter().copied().collect();
        let ids: Vec<SessionId> = sessions.iter().map(|s| s.0).collect();
        if self.svc.submit_many(&ids) != ids.len() {
            return Err("warm-up requests were refused".into());
        }
        self.by_shard = vec![Vec::new(); self.svc.shards()];
        for s in 0..self.svc.shards() {
            loop {
                let wave = self.svc.decide_wave(s);
                if wave.is_empty() {
                    break;
                }
                for (id, d) in wave {
                    let c = client_of[&id];
                    self.by_shard[s].push((id, c));
                    if d.done {
                        self.begin(id, c, u64::MAX)?;
                    }
                }
            }
        }
        if self.by_shard.iter().map(Vec::len).sum::<usize>() != ids.len() {
            return Err("warm-up decisions do not cover every session".into());
        }
        Ok(())
    }

    pub fn ledger(&self) -> ServeLedger {
        self.svc.ledger()
    }
}

/// What one shard's load thread measured over one rung.
#[derive(Default)]
struct ShardRun {
    latency_ns: Histogram,
    queue_wait_ns: Histogram,
    wave_ns: Histogram,
    sent: u64,
    admitted: u64,
    rejected: u64,
    stale: u64,
    decisions: u64,
    waves: u64,
    busy_ns: u64,
    wall_ns: u64,
    submit_ns: u64,
    backlog: u64,
    late_max_ns: u64,
    /// Per slice of the arrival window: latencies of the requests due in
    /// it, and decisions whose wave returned in it.
    slice_latency_ns: Vec<Histogram>,
    slice_decisions: Vec<u64>,
}

impl ShardRun {
    /// An empty run with one slice per whole [`SLICE`] of `dur`.
    fn new(dur: Duration) -> Self {
        let slices = (dur.as_nanos() / SLICE.as_nanos()) as usize;
        Self {
            slice_latency_ns: vec![Histogram::default(); slices],
            slice_decisions: vec![0; slices],
            ..Self::default()
        }
    }
}

/// One rung of the ladder, merged over shards.
#[derive(Clone)]
pub struct Rung {
    pub offered: f64,
    pub outcome: RungOutcome,
    pub p50_us: f64,
    pub sent: u64,
    pub admitted: u64,
    pub stale: u64,
    pub decisions: u64,
    /// Decisions per second of the rung's wall time.
    pub served_dps: f64,
    pub late_max_us: f64,
    pub waves: u64,
    pub busy_ns: u64,
    pub wall_ns: u64,
    pub wave_us_p50: f64,
    pub wave_us_p99: f64,
    pub queue_wait_us_p50: f64,
    pub queue_wait_us_p99: f64,
    pub submit_ns: u64,
    pub samples: usize,
    /// Due-to-return latencies, for pooling rungs across ladder passes.
    pub latency: Histogram,
    /// Median latency of each slice with enough requests to carry one.
    pub slice_p50_us: Vec<f64>,
    /// Decisions per second served in each slice.
    pub slice_dps: Vec<f64>,
}

impl Plane {
    /// Drives one rung at `rate` for `dur`. With `detail`, also times
    /// submissions, waves and queue waits (the per-layer view).
    pub fn rung(&self, rate: f64, dur: Duration, seed: u64, detail: bool) -> Result<Rung, String> {
        let total: usize = self.by_shard.iter().map(Vec::len).sum();
        let t0 = Instant::now() + Duration::from_millis(2);
        let runs: Vec<Result<ShardRun, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .by_shard
                .iter()
                .enumerate()
                .filter(|(_, owned)| !owned.is_empty())
                .map(|(shard, owned)| {
                    let share = rate * owned.len() as f64 / total as f64;
                    let arrivals = Arrivals::new(share, owned.len(), mix(seed, shard as u64));
                    s.spawn(move || self.drive(shard, owned, arrivals, t0, dur, detail))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
        });
        let mut m = ShardRun::new(dur);
        for r in runs {
            let r = r?;
            for (a, b) in m.slice_latency_ns.iter_mut().zip(&r.slice_latency_ns) {
                a.merge(b);
            }
            for (a, b) in m.slice_decisions.iter_mut().zip(&r.slice_decisions) {
                *a += b;
            }
            m.latency_ns.merge(&r.latency_ns);
            m.queue_wait_ns.merge(&r.queue_wait_ns);
            m.wave_ns.merge(&r.wave_ns);
            m.sent += r.sent;
            m.admitted += r.admitted;
            m.rejected += r.rejected;
            m.stale += r.stale;
            m.decisions += r.decisions;
            m.waves += r.waves;
            m.busy_ns += r.busy_ns;
            m.wall_ns = m.wall_ns.max(r.wall_ns);
            m.submit_ns += r.submit_ns;
            m.backlog += r.backlog;
            m.late_max_ns = m.late_max_ns.max(r.late_max_ns);
        }
        if m.latency_ns.count() == 0 {
            return Err(format!("rung at {rate}/s served nothing"));
        }
        let us = |h: &Histogram, p: f64| h.percentile(p) as f64 / 1e3;
        let slice_p50_us = m
            .slice_latency_ns
            .iter()
            .filter(|h| crate::stats::highest_reportable(h.count() as usize).is_some())
            .map(|h| us(h, 0.5))
            .collect();
        let slice_dps = m.slice_decisions.iter().map(|&d| d as f64 / SLICE.as_secs_f64()).collect();
        Ok(Rung {
            offered: rate,
            outcome: RungOutcome {
                offered: rate,
                p99_us: us(&m.latency_ns, 0.99),
                rejected: m.rejected,
                backlog: m.backlog,
            },
            p50_us: us(&m.latency_ns, 0.5),
            sent: m.sent,
            admitted: m.admitted,
            stale: m.stale,
            decisions: m.decisions,
            served_dps: m.decisions as f64 / (m.wall_ns as f64 * 1e-9),
            late_max_us: m.late_max_ns as f64 / 1e3,
            waves: m.waves,
            busy_ns: m.busy_ns,
            wall_ns: m.wall_ns,
            wave_us_p50: us(&m.wave_ns, 0.5),
            wave_us_p99: us(&m.wave_ns, 0.99),
            queue_wait_us_p50: us(&m.queue_wait_ns, 0.5),
            queue_wait_us_p99: us(&m.queue_wait_ns, 0.99),
            submit_ns: m.submit_ns,
            samples: m.latency_ns.count() as usize,
            latency: m.latency_ns,
            slice_p50_us,
            slice_dps,
        })
    }

    /// One shard's load loop: submit whatever has fallen due, serve one
    /// wave, restart finished sessions on a fresh window, repeat until the
    /// rung's arrivals are exhausted and the queue is drained.
    fn drive(
        &self,
        shard: usize,
        owned: &[(SessionId, usize)],
        mut arrivals: Arrivals,
        t0: Instant,
        dur: Duration,
        detail: bool,
    ) -> Result<ShardRun, String> {
        let end_ns = dur.as_nanos() as u64;
        let slice_ns = SLICE.as_nanos() as u64;
        let ns = || Instant::now().saturating_duration_since(t0).as_nanos() as u64;
        let mut r = ShardRun::new(dur);
        let mut next = arrivals.next().expect("arrivals are endless");
        let mut batch: Vec<SessionId> = Vec::with_capacity(1024);
        let mut dues: Vec<u64> = Vec::with_capacity(1024);
        let mut pending: VecDeque<(SessionId, u64, u64)> = VecDeque::with_capacity(1024);
        let mut out = Vec::with_capacity(64);
        let mut episodes = vec![0u64; owned.len()];
        let slot_of: std::collections::HashMap<SessionId, usize> =
            owned.iter().enumerate().map(|(k, &(id, _))| (id, k)).collect();
        let mut backlog_taken = false;
        while Instant::now() < t0 {
            std::hint::spin_loop();
        }
        loop {
            let now = ns();
            batch.clear();
            dues.clear();
            while next.0 < end_ns && next.0 <= now {
                batch.push(owned[next.1].0);
                dues.push(next.0);
                next = arrivals.next().expect("arrivals are endless");
            }
            if !batch.is_empty() {
                r.late_max_ns = r.late_max_ns.max(now - dues[0]);
                let admitted = if detail {
                    let t = Instant::now();
                    let a = self.svc.submit_many(&batch);
                    r.submit_ns += t.elapsed().as_nanos() as u64;
                    a
                } else {
                    self.svc.submit_many(&batch)
                };
                // A shard's queue only refuses once full, and nothing pops
                // it during the call, so the admitted requests are a prefix.
                for k in 0..admitted {
                    pending.push_back((batch[k], dues[k], now));
                }
                r.sent += batch.len() as u64;
                r.admitted += admitted as u64;
                r.rejected += (batch.len() - admitted) as u64;
            }
            if next.0 >= end_ns && !backlog_taken {
                backlog_taken = true;
                r.backlog = pending.len() as u64;
            }
            if pending.is_empty() {
                if next.0 >= end_ns {
                    break;
                }
                std::hint::spin_loop();
                continue;
            }
            let start = ns();
            self.svc.decide_wave_into(shard, &mut out);
            let done = ns();
            r.waves += 1;
            r.busy_ns += done - start;
            if detail {
                r.wave_ns.record(done - start);
            }
            if out.is_empty() {
                // Every popped request was stale and the queue is empty.
                r.stale += pending.len() as u64;
                pending.clear();
            }
            if let Some(c) = r.slice_decisions.get_mut((done / slice_ns) as usize) {
                *c += out.len() as u64;
            }
            for (id, d) in out.drain(..) {
                loop {
                    let (pid, due, submitted) =
                        pending.pop_front().ok_or("a served request was never submitted")?;
                    if pid == id {
                        r.latency_ns.record(done - due);
                        if let Some(h) = r.slice_latency_ns.get_mut((due / slice_ns) as usize) {
                            h.record(done - due);
                        }
                        if detail {
                            r.queue_wait_ns.record(start.saturating_sub(submitted));
                        }
                        break;
                    }
                    r.stale += 1;
                }
                r.decisions += 1;
                if d.done {
                    let k = slot_of[&id];
                    episodes[k] += 1;
                    self.begin(id, owned[k].1, episodes[k])?;
                }
            }
        }
        r.wall_ns = ns();
        Ok(r)
    }
}
