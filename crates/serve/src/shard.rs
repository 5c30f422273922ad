//! Sharded, wave-batched decision serving with hot-swap version ramps.
//!
//! [`ShardedDecisionService`] scales [`DecisionService`](crate::DecisionService)
//! across cores. The design is share-nothing on the hot path:
//!
//! * **Shard ownership** — every session lives in exactly one shard, chosen
//!   at open time by hashing the session's global sequence number. The
//!   session id encodes `(generation, slot, shard)`, so routing a request
//!   touches only arithmetic plus that one shard's lock; there are no
//!   cross-shard locks anywhere on the decision path.
//! * **Per-shard admission queues** — [`submit`](ShardedDecisionService::submit)
//!   enqueues into the owning shard and applies the same explicit
//!   backpressure contract as the sequential service
//!   ([`ServeError::Overloaded`], never silent buffering).
//! * **Wave batching** — a worker draining a shard pops up to `max_batch`
//!   requests, groups them by policy *plan* (one per distinct
//!   `(client, version)` snapshot), fills one state matrix per plan, and
//!   runs a **single batched GEMM** per plan instead of one matvec per
//!   session. Per output element the kernel accumulates in the same order
//!   as the single-row path, so a wave-batched decision is bit-identical
//!   to [`Session::decide`] — the equivalence suite at
//!   `tests/policy_serving.rs` asserts this for every algorithm.
//! * **Merged ledger** — each shard keeps plain `u64` counters; the
//!   [`ledger`](ShardedDecisionService::ledger) sums them into one
//!   [`ServeLedger`] whose invariant (`admitted = decisions + stale +
//!   still-queued`) the stress suite checks exactly.
//!
//! # Hot-swap ramp state machine
//!
//! [`publish`](ShardedDecisionService::publish) starts a *version ramp*
//! for one client:
//!
//! ```text
//!            validate fails                    non-finite shadow logits
//! publish ──────────────────► RolledBack ◄──────────────────┐
//!    │                                                      │
//!    └────► Shadow ── shadow_ok ≥ target (CAS) ──► Committed│
//!              │                                            │
//!              └────────────────────────────────────────────┘
//! ```
//!
//! While `Shadow`, the candidate decides *in shadow*: each wave that
//! serves the ramped client also runs the candidate actor over the same
//! state matrix and checks every logit is finite — the serving invariant
//! the eval gate enforces offline. The old snapshot keeps serving. Once
//! the candidate has shadowed `shadow_target` decisions the ramp commits
//! (a single atomic CAS); every shard adopts the new parameters at its
//! next wave boundary, after which no decision carries a retired version.
//! A non-finite shadow logit (or invalid candidate parameters at publish
//! time) rolls the ramp back automatically — serving traffic never sees
//! the poisoned snapshot.

use crate::service::{ServeConfig, ServeError};
use crate::session::{Decision, Session};
use crate::store::PolicyStore;
use crate::SessionId;
use pfrl_fed::PolicySnapshot;
use pfrl_nn::{Activation, Mlp};
use pfrl_sim::EpisodeMetrics;
use pfrl_telemetry::Telemetry;
use pfrl_tensor::Matrix;
use pfrl_workloads::TaskSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

const SHARD_BITS: u32 = 8;
const SLOT_BITS: u32 = 28;
const SHARD_MASK: u64 = (1 << SHARD_BITS) - 1;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

fn make_id(generation: u64, slot: usize, shard: usize) -> SessionId {
    (generation << (SHARD_BITS + SLOT_BITS)) | ((slot as u64) << SHARD_BITS) | shard as u64
}

fn shard_of(id: SessionId) -> usize {
    (id & SHARD_MASK) as usize
}

fn slot_of(id: SessionId) -> usize {
    ((id >> SHARD_BITS) & SLOT_MASK) as usize
}

fn generation_of(id: SessionId) -> u64 {
    id >> (SHARD_BITS + SLOT_BITS)
}

/// SplitMix64 finalizer — maps the open-order sequence number to a shard
/// uniformly, so adversarial open orders cannot pile sessions onto one
/// shard.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Sizing knobs for the sharded front end.
#[derive(Debug, Clone, Copy)]
pub struct ShardedServeConfig {
    /// Number of shards (≤ 256). One worker core per shard is the
    /// intended deployment; shards share nothing on the decision path.
    pub shards: usize,
    /// Per-shard admission queue capacity.
    pub queue_capacity: usize,
    /// Maximum decisions per wave (per shard drain call).
    pub max_batch: usize,
}

impl Default for ShardedServeConfig {
    fn default() -> Self {
        let s = ServeConfig::default();
        Self { shards: 4, queue_capacity: s.queue_capacity, max_batch: s.max_batch }
    }
}

/// Merged serving ledger, summed over all shards. The books must balance:
/// `admitted == decisions + stale + queued` at any quiescent point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeLedger {
    /// Requests accepted into an admission queue.
    pub admitted: u64,
    /// Requests rejected with [`ServeError::Overloaded`].
    pub rejected: u64,
    /// Admitted requests dropped (session closed or episode done).
    pub stale: u64,
    /// Decisions actually served.
    pub decisions: u64,
    /// Requests admitted but not yet drained.
    pub queued: u64,
    /// Sessions opened over the service lifetime.
    pub opened: u64,
    /// Sessions closed over the service lifetime.
    pub closed: u64,
}

/// Ramp lifecycle states (see the module docs for the state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RampStatus {
    /// Candidate is deciding in shadow; the old snapshot serves.
    Shadow,
    /// Candidate committed; shards cut over at their next wave boundary.
    Committed,
    /// Candidate was rejected by validation or shadow evaluation.
    RolledBack,
}

const RAMP_SHADOW: u8 = 0;
const RAMP_COMMITTED: u8 = 1;
const RAMP_ROLLED_BACK: u8 = 2;

/// Shared core of one version ramp. Shards hold an `Arc` and drive the
/// state machine with CAS transitions; the publisher watches it through a
/// [`RampHandle`].
struct RampCore {
    client: String,
    version: u64,
    sizes: [usize; 3],
    params: Vec<f32>,
    shadow_target: u64,
    shadow_ok: AtomicU64,
    state: AtomicU8,
}

impl RampCore {
    fn status(&self) -> RampStatus {
        match self.state.load(Ordering::Acquire) {
            RAMP_SHADOW => RampStatus::Shadow,
            RAMP_COMMITTED => RampStatus::Committed,
            _ => RampStatus::RolledBack,
        }
    }

    /// CAS `Shadow → to`; returns whether this caller won the transition.
    fn transition(&self, to: u8) -> bool {
        self.state.compare_exchange(RAMP_SHADOW, to, Ordering::AcqRel, Ordering::Acquire).is_ok()
    }
}

/// Publisher-side view of a ramp started by
/// [`ShardedDecisionService::publish`].
pub struct RampHandle {
    core: Arc<RampCore>,
}

impl RampHandle {
    /// Current lifecycle state.
    pub fn status(&self) -> RampStatus {
        self.core.status()
    }

    /// Decisions the candidate has shadowed so far.
    pub fn shadowed(&self) -> u64 {
        self.core.shadow_ok.load(Ordering::Relaxed)
    }

    /// Version the ramp is promoting to.
    pub fn version(&self) -> u64 {
        self.core.version
    }
}

/// One policy plan: the batched actor for every session of a shard that
/// pins the same `(client, version)` snapshot, plus that plan's wave
/// buffers. Plan parameters are bit-identical to each member session's
/// own actor, so the plan GEMM reproduces each session's matvec exactly.
struct Plan {
    client: String,
    version: u64,
    sizes: [usize; 3],
    actor: Mlp,
    /// Slots of this plan's members in the wave being assembled.
    rows: Vec<usize>,
    states: Matrix,
    logits: Matrix,
}

struct Entry {
    generation: u64,
    plan: usize,
    in_wave: bool,
    session: Session,
}

#[derive(Default)]
struct Counters {
    admitted: u64,
    rejected: u64,
    stale: u64,
    decisions: u64,
    opened: u64,
    closed: u64,
}

/// One shard: slab of owned sessions, admission queue, plans, scratch.
struct Shard {
    slots: Vec<Option<Entry>>,
    /// Next generation per slot; bumped on close so stale ids miss.
    slot_generation: Vec<u64>,
    free: Vec<usize>,
    queue: VecDeque<SessionId>,
    plans: Vec<Plan>,
    /// Wave scratch: `(id, slot, plan, row-within-plan)` in arrival order.
    wave: Vec<(SessionId, usize, usize, usize)>,
    state_tmp: Vec<f32>,
    mask_tmp: Vec<bool>,
    counters: Counters,
    /// Ramp epoch this shard has synchronized with.
    seen_epoch: u64,
    ramp: Option<Arc<RampCore>>,
    /// Lazily-built candidate actor for shadow forwards.
    ramp_actor: Option<Mlp>,
    ramp_logits: Matrix,
}

impl Shard {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            slot_generation: Vec::new(),
            free: Vec::new(),
            queue: VecDeque::new(),
            plans: Vec::new(),
            wave: Vec::new(),
            state_tmp: Vec::new(),
            mask_tmp: Vec::new(),
            counters: Counters::default(),
            seen_epoch: 0,
            ramp: None,
            ramp_actor: None,
            ramp_logits: Matrix::zeros(0, 0),
        }
    }

    fn entry_mut(&mut self, id: SessionId) -> Option<&mut Entry> {
        let generation = generation_of(id);
        self.slots.get_mut(slot_of(id))?.as_mut().filter(|e| e.generation == generation)
    }

    /// Index of the plan for `(client, version)`, creating it from the
    /// snapshot if this shard has not seen that policy yet. Plans are few
    /// (one per distinct live snapshot), so a linear scan beats a map.
    fn plan_index(&mut self, snap: &PolicySnapshot) -> usize {
        if let Some(i) =
            self.plans.iter().position(|p| p.version == snap.version && p.client == snap.client)
        {
            return i;
        }
        let mut actor = Mlp::new(&snap.sizes(), Activation::Tanh, &mut SmallRng::seed_from_u64(0));
        actor.set_flat_params(&snap.actor_params);
        self.plans.push(Plan {
            client: snap.client.clone(),
            version: snap.version,
            sizes: snap.sizes(),
            actor,
            rows: Vec::new(),
            states: Matrix::zeros(0, 0),
            logits: Matrix::zeros(0, 0),
        });
        self.plans.len() - 1
    }

    /// Applies a committed ramp: every plan (and member session) of the
    /// ramped client at an older version adopts the candidate parameters.
    fn apply_commit(&mut self, core: &RampCore) {
        let mut upgraded = vec![false; self.plans.len()];
        for (i, plan) in self.plans.iter_mut().enumerate() {
            if plan.client == core.client && plan.version < core.version {
                plan.actor.set_flat_params(&core.params);
                plan.version = core.version;
                upgraded[i] = true;
            }
        }
        for entry in self.slots.iter_mut().flatten() {
            if upgraded[entry.plan] {
                entry.session.adopt_params(&core.params, core.version);
            }
        }
    }
}

/// The sharded serving front end. `&self` everywhere: the service is
/// `Sync` and one worker thread per shard drains waves concurrently.
pub struct ShardedDecisionService {
    store: PolicyStore,
    cfg: ShardedServeConfig,
    shards: Vec<Mutex<Shard>>,
    next_seq: AtomicU64,
    /// Bumped on publish; shards lazily pick up the new ramp at wave start.
    ramp_epoch: AtomicU64,
    ramp: Mutex<Option<Arc<RampCore>>>,
    telemetry: Telemetry,
}

impl ShardedDecisionService {
    /// Builds a sharded service over an immutable snapshot store.
    pub fn new(store: PolicyStore, cfg: ShardedServeConfig) -> Self {
        assert!(cfg.shards >= 1 && cfg.shards <= 1 << SHARD_BITS, "1..=256 shards");
        assert!(cfg.queue_capacity >= 1, "queue_capacity must be >= 1");
        assert!(cfg.max_batch >= 1, "max_batch must be >= 1");
        Self {
            store,
            cfg,
            shards: (0..cfg.shards).map(|_| Mutex::new(Shard::new())).collect(),
            next_seq: AtomicU64::new(0),
            ramp_epoch: AtomicU64::new(0),
            ramp: Mutex::new(None),
            telemetry: Telemetry::noop(),
        }
    }

    /// Routes serving metrics to `telemetry`.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The underlying snapshot store.
    pub fn store(&self) -> &PolicyStore {
        &self.store
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.cfg.shards
    }

    fn lock(&self, shard: usize) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[shard].lock().expect("shard lock poisoned")
    }

    fn install(&self, snap: &PolicySnapshot) -> SessionId {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let shard_idx = (splitmix64(seq) % self.cfg.shards as u64) as usize;
        let session =
            Session::new(snap).expect("store snapshots are pre-validated and instantiate cleanly");
        let mut shard = self.lock(shard_idx);
        let plan = shard.plan_index(snap);
        let slot = match shard.free.pop() {
            Some(s) => s,
            None => {
                shard.slots.push(None);
                shard.slot_generation.push(0);
                shard.slots.len() - 1
            }
        };
        assert!((slot as u64) <= SLOT_MASK, "slot space exhausted");
        let generation = shard.slot_generation[slot];
        shard.slots[slot] = Some(Entry { generation, plan, in_wave: false, session });
        shard.counters.opened += 1;
        drop(shard);
        self.telemetry.counter("serve/sessions_opened", 1);
        make_id(generation, slot, shard_idx)
    }

    /// Opens a session on the latest snapshot for `client`.
    pub fn open_session(&self, client: &str) -> Result<SessionId, ServeError> {
        let snap = self
            .store
            .latest(client)
            .ok_or_else(|| ServeError::UnknownPolicy(client.to_string()))?;
        Ok(self.install(snap))
    }

    /// Opens a session pinned to an exact `(client, version)` snapshot.
    pub fn open_session_at(&self, client: &str, version: u64) -> Result<SessionId, ServeError> {
        let snap = self
            .store
            .get(client, version)
            .ok_or_else(|| ServeError::UnknownPolicy(format!("{client}@v{version}")))?;
        Ok(self.install(snap))
    }

    /// Closes a session; queued requests for it become stale.
    pub fn close_session(&self, id: SessionId) -> Result<(), ServeError> {
        let mut shard = self.lock(shard_of(id));
        let slot = slot_of(id);
        if shard.entry_mut(id).is_none() {
            return Err(ServeError::UnknownSession(id));
        }
        shard.slots[slot] = None;
        shard.slot_generation[slot] += 1;
        shard.free.push(slot);
        shard.counters.closed += 1;
        Ok(())
    }

    /// Starts a new episode over `tasks` on session `id`.
    pub fn begin_episode(&self, id: SessionId, tasks: &[TaskSpec]) -> Result<(), ServeError> {
        let mut shard = self.lock(shard_of(id));
        let entry = shard.entry_mut(id).ok_or(ServeError::UnknownSession(id))?;
        entry.session.begin_episode(tasks);
        Ok(())
    }

    /// Runs `f` against the session (episode metrics, identity, …).
    pub fn with_session<R>(
        &self,
        id: SessionId,
        f: impl FnOnce(&Session) -> R,
    ) -> Result<R, ServeError> {
        let mut shard = self.lock(shard_of(id));
        let entry = shard.entry_mut(id).ok_or(ServeError::UnknownSession(id))?;
        Ok(f(&entry.session))
    }

    /// Metrics of the session's current episode.
    pub fn metrics(&self, id: SessionId) -> Result<EpisodeMetrics, ServeError> {
        self.with_session(id, |s| s.metrics())
    }

    /// Admits one decision request into the owning shard's queue, or
    /// rejects it with explicit backpressure.
    pub fn submit(&self, id: SessionId) -> Result<(), ServeError> {
        let mut shard = self.lock(shard_of(id));
        if shard.entry_mut(id).is_none() {
            return Err(ServeError::UnknownSession(id));
        }
        if shard.queue.len() >= self.cfg.queue_capacity {
            shard.counters.rejected += 1;
            drop(shard);
            self.telemetry.counter("serve/rejected", 1);
            return Err(ServeError::Overloaded { capacity: self.cfg.queue_capacity });
        }
        shard.queue.push_back(id);
        shard.counters.admitted += 1;
        drop(shard);
        self.telemetry.counter("serve/admitted", 1);
        Ok(())
    }

    /// Admits a batch of requests, returning how many were accepted.
    ///
    /// The owning shard is locked once per **run** of consecutive ids on
    /// the same shard — producers that keep per-shard batches (ids sort
    /// stably by `shard_of`) pay one lock per shard per call instead of
    /// one per request. Requests that hit a full queue or name a dead
    /// session are not admitted and are counted as rejected.
    pub fn submit_many(&self, ids: &[SessionId]) -> usize {
        let mut admitted = 0usize;
        let mut i = 0;
        while i < ids.len() {
            let shard_idx = shard_of(ids[i]);
            let mut shard = self.lock(shard_idx);
            while i < ids.len() && shard_of(ids[i]) == shard_idx {
                let id = ids[i];
                i += 1;
                if shard.entry_mut(id).is_none() || shard.queue.len() >= self.cfg.queue_capacity {
                    shard.counters.rejected += 1;
                    continue;
                }
                shard.queue.push_back(id);
                shard.counters.admitted += 1;
                admitted += 1;
            }
        }
        if self.telemetry.is_enabled() {
            self.telemetry.counter("serve/admitted", admitted as u64);
            if admitted < ids.len() {
                self.telemetry.counter("serve/rejected", (ids.len() - admitted) as u64);
            }
        }
        admitted
    }

    /// Admitted-but-unserved requests across all shards.
    pub fn queue_depth(&self) -> usize {
        (0..self.cfg.shards).map(|s| self.lock(s).queue.len()).sum()
    }

    /// Ledger merged over all shards.
    pub fn ledger(&self) -> ServeLedger {
        let mut out = ServeLedger::default();
        for s in 0..self.cfg.shards {
            let shard = self.lock(s);
            out.admitted += shard.counters.admitted;
            out.rejected += shard.counters.rejected;
            out.stale += shard.counters.stale;
            out.decisions += shard.counters.decisions;
            out.queued += shard.queue.len() as u64;
            out.opened += shard.counters.opened;
            out.closed += shard.counters.closed;
        }
        out
    }

    /// Drains one wave from `shard` (up to `max_batch` requests) and
    /// appends `(session, decision)` pairs in arrival order to `out`.
    ///
    /// The wave is assembled so each session decides at most once per
    /// wave (a repeated id stops collection and stays queued — its second
    /// decision must see the first one's environment transition). All
    /// member observations are gathered first, then **one batched GEMM per
    /// plan** computes every member's logits, then masks/argmax/steps run
    /// in arrival order. Steady-state the call allocates nothing: plans,
    /// queue, and scratch persist in the shard (audited by
    /// `tests/zero_alloc.rs`).
    pub fn decide_wave_into(&self, shard_idx: usize, out: &mut Vec<(SessionId, Decision)>) {
        let mut shard = self.lock(shard_idx);
        let shard = &mut *shard;
        self.sync_ramp(shard);

        // Collect the wave: pop → resolve → one-decision-per-session.
        shard.wave.clear();
        while shard.wave.len() < self.cfg.max_batch {
            let Some(id) = shard.queue.pop_front() else { break };
            let slot = slot_of(id);
            let generation = generation_of(id);
            let live = shard
                .slots
                .get(slot)
                .is_some_and(|s| s.as_ref().is_some_and(|e| e.generation == generation));
            if !live {
                shard.counters.stale += 1;
                continue;
            }
            let entry = shard.slots[slot].as_mut().expect("checked live");
            if entry.session.is_done() {
                shard.counters.stale += 1;
                continue;
            }
            if entry.in_wave {
                shard.queue.push_front(id);
                break;
            }
            entry.in_wave = true;
            let plan = entry.plan;
            let row = shard.plans[plan].rows.len();
            shard.plans[plan].rows.push(slot);
            shard.wave.push((id, slot, plan, row));
        }
        if shard.wave.is_empty() {
            return;
        }

        // Observe every member into its plan's state matrix. Sessions own
        // disjoint environments, so observing all before stepping any is
        // order-equivalent to the sequential service.
        for plan in shard.plans.iter_mut().filter(|p| !p.rows.is_empty()) {
            plan.states.resize(plan.rows.len(), plan.sizes[0]);
        }
        for w in 0..shard.wave.len() {
            let (_, slot, plan, row) = shard.wave[w];
            let entry = shard.slots[slot].as_ref().expect("wave member present");
            entry.session.observe_into(&mut shard.state_tmp);
            shard.plans[plan].states.row_mut(row).copy_from_slice(&shard.state_tmp);
        }

        // One batched forward per plan; shadow-evaluate an active ramp on
        // the same states.
        let ramp = shard.ramp.clone();
        for p in 0..shard.plans.len() {
            if shard.plans[p].rows.is_empty() {
                continue;
            }
            let (states, is_ramp_target) = {
                let plan = &mut shard.plans[p];
                let states = std::mem::replace(&mut plan.states, Matrix::zeros(0, 0));
                plan.actor.forward_into(&states, &mut plan.logits);
                let is_target = ramp.as_ref().is_some_and(|c| {
                    c.status() == RampStatus::Shadow
                        && plan.client == c.client
                        && plan.version < c.version
                });
                (states, is_target)
            };
            if is_ramp_target {
                let core = ramp.as_ref().expect("checked above").clone();
                self.shadow_eval(shard, &core, &states);
            }
            shard.plans[p].states = states;
        }

        // Finish in arrival order: mask → argmax → step per member.
        for w in 0..shard.wave.len() {
            let (id, slot, plan, row) = shard.wave[w];
            let logits = shard.plans[plan].logits.row_mut(row);
            let entry = shard.slots[slot].as_mut().expect("wave member present");
            let d = entry.session.finish_with_logits_in(logits, &mut shard.mask_tmp);
            entry.in_wave = false;
            out.push((id, d));
        }
        shard.counters.decisions += shard.wave.len() as u64;
        for plan in &mut shard.plans {
            plan.rows.clear();
        }
        let served = shard.wave.len() as u64;
        shard.wave.clear();
        if self.telemetry.is_enabled() {
            self.telemetry.counter("serve/decisions", served);
        }
    }

    /// Allocating convenience over
    /// [`decide_wave_into`](Self::decide_wave_into).
    pub fn decide_wave(&self, shard_idx: usize) -> Vec<(SessionId, Decision)> {
        let mut out = Vec::new();
        self.decide_wave_into(shard_idx, &mut out);
        out
    }

    /// Runs the candidate over the wave's states and drives the ramp state
    /// machine: non-finite logits roll back; enough shadowed decisions
    /// commit.
    fn shadow_eval(&self, shard: &mut Shard, core: &Arc<RampCore>, states: &Matrix) {
        let actor = shard.ramp_actor.get_or_insert_with(|| {
            let mut a = Mlp::new(&core.sizes, Activation::Tanh, &mut SmallRng::seed_from_u64(0));
            a.set_flat_params(&core.params);
            a
        });
        actor.forward_into(states, &mut shard.ramp_logits);
        if shard.ramp_logits.as_slice().iter().any(|v| !v.is_finite()) {
            if core.transition(RAMP_ROLLED_BACK) {
                self.telemetry.counter("serve/ramp_rollbacks", 1);
            }
            shard.ramp = None;
            shard.ramp_actor = None;
            return;
        }
        let rows = states.rows() as u64;
        let total = core.shadow_ok.fetch_add(rows, Ordering::AcqRel) + rows;
        if total >= core.shadow_target && core.transition(RAMP_COMMITTED) {
            self.telemetry.counter("serve/ramp_committed", 1);
        }
    }

    /// Picks up a newly published ramp and reacts to terminal states: a
    /// committed ramp is applied to this shard's plans and sessions (the
    /// cutover point for this shard); a rolled-back ramp is discarded.
    fn sync_ramp(&self, shard: &mut Shard) {
        let epoch = self.ramp_epoch.load(Ordering::Acquire);
        if shard.seen_epoch != epoch {
            shard.seen_epoch = epoch;
            shard.ramp = self.ramp.lock().expect("ramp lock poisoned").clone();
            shard.ramp_actor = None;
        }
        if let Some(core) = shard.ramp.clone() {
            match core.status() {
                RampStatus::Shadow => {}
                RampStatus::Committed => {
                    shard.apply_commit(&core);
                    shard.ramp = None;
                    shard.ramp_actor = None;
                }
                RampStatus::RolledBack => {
                    shard.ramp = None;
                    shard.ramp_actor = None;
                }
            }
        }
    }

    /// Publishes `candidate` as a version ramp for its client: the
    /// candidate decides in shadow until it has matched `shadow_target`
    /// decisions with finite logits, then commits fleet-wide; any
    /// invariant violation rolls it back automatically.
    ///
    /// Returns the handle even when validation fails — the caller
    /// observes the rollback through it — but refuses with
    /// [`ServeError::RampRejected`] if another ramp is still shadowing,
    /// the client is unknown, or the candidate's shape disagrees with the
    /// serving fleet.
    pub fn publish(
        &self,
        candidate: &PolicySnapshot,
        shadow_target: u64,
    ) -> Result<RampHandle, ServeError> {
        assert!(shadow_target >= 1, "shadow_target must be >= 1");
        let serving = self
            .store
            .latest(&candidate.client)
            .ok_or_else(|| ServeError::UnknownPolicy(candidate.client.clone()))?;
        if candidate.sizes() != serving.sizes() {
            return Err(ServeError::RampRejected(format!(
                "candidate sizes {:?} do not match serving sizes {:?}",
                candidate.sizes(),
                serving.sizes()
            )));
        }
        let mut slot = self.ramp.lock().expect("ramp lock poisoned");
        if let Some(active) = slot.as_ref() {
            if active.status() == RampStatus::Shadow {
                return Err(ServeError::RampRejected(format!(
                    "ramp to {}@v{} still shadowing",
                    active.client, active.version
                )));
            }
        }
        let core = Arc::new(RampCore {
            client: candidate.client.clone(),
            version: candidate.version,
            sizes: candidate.sizes(),
            params: candidate.actor_params.clone(),
            shadow_target,
            shadow_ok: AtomicU64::new(0),
            state: AtomicU8::new(RAMP_SHADOW),
        });
        self.telemetry.counter("serve/ramp_published", 1);
        if candidate.validate().is_err() {
            // Poisoned candidate (non-finite parameters, shape lies, …):
            // never instantiated, never shadows — immediate rollback.
            core.state.store(RAMP_ROLLED_BACK, Ordering::Release);
            self.telemetry.counter("serve/ramp_rollbacks", 1);
            return Ok(RampHandle { core });
        }
        *slot = Some(core.clone());
        drop(slot);
        self.ramp_epoch.fetch_add(1, Ordering::Release);
        Ok(RampHandle { core })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{tiny_snapshot, tiny_tasks};

    fn sharded(shards: usize) -> ShardedDecisionService {
        let store =
            PolicyStore::from_snapshots(vec![tiny_snapshot("a"), tiny_snapshot("b")]).unwrap();
        ShardedDecisionService::new(
            store,
            ShardedServeConfig { shards, queue_capacity: 64, max_batch: 8 },
        )
    }

    #[test]
    fn id_encoding_roundtrips() {
        let id = make_id(7, 1234, 31);
        assert_eq!(shard_of(id), 31);
        assert_eq!(slot_of(id), 1234);
        assert_eq!(generation_of(id), 7);
    }

    #[test]
    fn sessions_spread_and_serve_across_shards() {
        let svc = sharded(4);
        let ids: Vec<_> = (0..16).map(|_| svc.open_session("a").unwrap()).collect();
        let used: std::collections::BTreeSet<_> = ids.iter().map(|&id| shard_of(id)).collect();
        assert!(used.len() > 1, "16 sessions should span more than one shard");
        for &id in &ids {
            svc.begin_episode(id, &tiny_tasks(6)).unwrap();
            svc.submit(id).unwrap();
        }
        let mut served = 0;
        for s in 0..svc.shards() {
            served += svc.decide_wave(s).len();
        }
        assert_eq!(served, 16);
        let ledger = svc.ledger();
        assert_eq!(ledger.admitted, 16);
        assert_eq!(ledger.decisions, 16);
        assert_eq!(ledger.queued, 0);
    }

    #[test]
    fn stale_and_unknown_ids_are_counted_not_served() {
        let svc = sharded(2);
        let id = svc.open_session("a").unwrap();
        svc.begin_episode(id, &tiny_tasks(4)).unwrap();
        svc.submit(id).unwrap();
        svc.close_session(id).unwrap();
        assert_eq!(svc.submit(id), Err(ServeError::UnknownSession(id)));
        let mut out = Vec::new();
        for s in 0..svc.shards() {
            svc.decide_wave_into(s, &mut out);
        }
        assert!(out.is_empty());
        assert_eq!(svc.ledger().stale, 1);
        // The slot is recycled under a fresh generation: the old id
        // still resolves nowhere.
        let id2 = svc.open_session("a").unwrap();
        if shard_of(id2) == shard_of(id) {
            assert_ne!(id, id2);
        }
    }

    #[test]
    fn queue_overflow_rejects_explicitly() {
        let store = PolicyStore::from_snapshots(vec![tiny_snapshot("a")]).unwrap();
        let svc = ShardedDecisionService::new(
            store,
            ShardedServeConfig { shards: 1, queue_capacity: 2, max_batch: 8 },
        );
        let id = svc.open_session("a").unwrap();
        svc.begin_episode(id, &tiny_tasks(10)).unwrap();
        svc.submit(id).unwrap();
        svc.submit(id).unwrap();
        assert_eq!(svc.submit(id), Err(ServeError::Overloaded { capacity: 2 }));
        assert_eq!(svc.ledger().rejected, 1);
    }

    #[test]
    fn repeated_session_decides_once_per_wave() {
        let store = PolicyStore::from_snapshots(vec![tiny_snapshot("a")]).unwrap();
        let svc = ShardedDecisionService::new(
            store,
            ShardedServeConfig { shards: 1, queue_capacity: 64, max_batch: 8 },
        );
        let id = svc.open_session("a").unwrap();
        svc.begin_episode(id, &tiny_tasks(10)).unwrap();
        for _ in 0..3 {
            svc.submit(id).unwrap();
        }
        // One wave serves exactly one decision for the session; the rest
        // stay queued for later waves.
        assert_eq!(svc.decide_wave(0).len(), 1);
        assert_eq!(svc.queue_depth(), 2);
        assert_eq!(svc.decide_wave(0).len(), 1);
        assert_eq!(svc.decide_wave(0).len(), 1);
        assert_eq!(svc.queue_depth(), 0);
    }

    #[test]
    fn ramp_shadow_commit_upgrades_versions() {
        let store = PolicyStore::from_snapshots(vec![tiny_snapshot("a")]).unwrap();
        let svc = ShardedDecisionService::new(
            store,
            ShardedServeConfig { shards: 1, queue_capacity: 64, max_batch: 8 },
        );
        let id = svc.open_session("a").unwrap();
        svc.begin_episode(id, &tiny_tasks(30)).unwrap();
        let mut candidate = tiny_snapshot("a");
        candidate.version += 1;
        let ramp = svc.publish(&candidate, 2).unwrap();
        assert_eq!(ramp.status(), RampStatus::Shadow);
        let old_version = tiny_snapshot("a").version;
        // Shadow phase: old version serves while the candidate evaluates.
        let mut shadow_decisions = 0;
        while ramp.status() == RampStatus::Shadow {
            svc.submit(id).unwrap();
            let out = svc.decide_wave(0);
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].1.version, old_version);
            shadow_decisions += 1;
            assert!(shadow_decisions < 50, "ramp never committed");
        }
        assert_eq!(ramp.status(), RampStatus::Committed);
        assert!(ramp.shadowed() >= 2);
        // After the cutover wave boundary every decision carries the new
        // version.
        svc.submit(id).unwrap();
        let out = svc.decide_wave(0);
        assert_eq!(out[0].1.version, candidate.version);
    }

    #[test]
    fn poisoned_candidate_rolls_back_without_serving() {
        let store = PolicyStore::from_snapshots(vec![tiny_snapshot("a")]).unwrap();
        let svc = ShardedDecisionService::new(store, ShardedServeConfig::default());
        let mut poisoned = tiny_snapshot("a");
        poisoned.version += 1;
        poisoned.actor_params[3] = f32::NAN;
        let ramp = svc.publish(&poisoned, 4).unwrap();
        assert_eq!(ramp.status(), RampStatus::RolledBack);
        assert_eq!(ramp.shadowed(), 0);
        // A fresh, healthy ramp can start immediately afterwards.
        let mut healthy = tiny_snapshot("a");
        healthy.version += 2;
        assert!(svc.publish(&healthy, 1).is_ok());
    }

    #[test]
    fn concurrent_shadow_ramps_are_rejected() {
        let store = PolicyStore::from_snapshots(vec![tiny_snapshot("a")]).unwrap();
        let svc = ShardedDecisionService::new(store, ShardedServeConfig::default());
        let mut c1 = tiny_snapshot("a");
        c1.version += 1;
        svc.publish(&c1, 100).unwrap();
        let mut c2 = tiny_snapshot("a");
        c2.version += 2;
        assert!(matches!(svc.publish(&c2, 1), Err(ServeError::RampRejected(_))));
        // Unknown clients and mismatched shapes are rejected too.
        let mut other = tiny_snapshot("nobody");
        other.version += 1;
        assert!(matches!(svc.publish(&other, 1), Err(ServeError::UnknownPolicy(_))));
    }
}
