//! Verifies the telemetry zero-overhead claim: a disabled (`noop`)
//! [`Telemetry`] handle must cost ~nothing on the training hot path.
//!
//! Two groups:
//!
//! * `train_one_episode` — a full PPO training episode with telemetry
//!   disabled (first entry — the ratio baseline) vs recording into an
//!   [`InMemoryRecorder`]. The printed ratio is the *recording* cost; the
//!   noop entry is what every un-instrumented run pays.
//! * `telemetry_call` — the raw per-call cost of the disabled handle
//!   (counter/observe/span), which is a single `Option` discriminant test.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pfrl_core::presets::{table2_clients, TABLE2_DIMS};
use pfrl_core::rl::{Agent, PpoConfig};
use pfrl_core::sim::{CloudEnv, EnvConfig};
use pfrl_core::telemetry::{InMemoryRecorder, Telemetry};
use pfrl_core::workloads::TaskSpec;
use std::sync::Arc;

fn episode_fixture() -> (CloudEnv, Agent, Vec<TaskSpec>) {
    let setup = table2_clients(200, 3).remove(0);
    let env = CloudEnv::new(TABLE2_DIMS, setup.vms.clone(), EnvConfig::default());
    let agent =
        Agent::new(TABLE2_DIMS.state_dim(), TABLE2_DIMS.action_dim(), 1, PpoConfig::default(), 7);
    let mut tasks: Vec<TaskSpec> = setup.train_tasks[..40].to_vec();
    let base = tasks[0].arrival;
    for (i, t) in tasks.iter_mut().enumerate() {
        t.id = i as u64;
        t.arrival -= base;
    }
    (env, agent, tasks)
}

fn bench_train_episode(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_one_episode");
    group.bench_function("noop", |b| {
        let (mut env, mut agent, tasks) = episode_fixture();
        b.iter(|| {
            env.reset(tasks.clone());
            black_box(agent.train_one_episode(&mut env))
        });
    });
    group.bench_function("inmemory", |b| {
        let (mut env, mut agent, tasks) = episode_fixture();
        let telemetry = Telemetry::new(Arc::new(InMemoryRecorder::new()));
        agent.set_telemetry(telemetry.clone());
        env.set_telemetry(telemetry);
        b.iter(|| {
            env.reset(tasks.clone());
            black_box(agent.train_one_episode(&mut env))
        });
    });
    group.finish();
}

fn bench_telemetry_call(c: &mut Criterion) {
    let noop = Telemetry::noop();
    let mut group = c.benchmark_group("telemetry_call");
    group.bench_function("noop_counter", |b| {
        b.iter(|| noop.counter(black_box("x/counter"), black_box(1)))
    });
    group.bench_function("noop_observe", |b| {
        b.iter(|| noop.observe(black_box("x/observe"), black_box(1.5)))
    });
    group.bench_function("noop_span", |b| b.iter(|| noop.span(black_box("x/span"))));
    group.finish();
}

criterion_group!(benches, bench_train_episode, bench_telemetry_call);
criterion_main!(benches);
