//! Criterion microbenchmarks of the hot kernels: environment stepping,
//! state encoding, network forward/backward, PPO updates, attention-weight
//! generation, and workload sampling.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pfrl_core::nn::{multi_head_attention_weights, Activation, Mlp, MultiHeadConfig};
use pfrl_core::presets::{table3_clients, TABLE3_DIMS};
use pfrl_core::rl::{Agent, PpoConfig};
use pfrl_core::sim::{Action, CloudEnv, EnvConfig, EnvDims, VmSpec};
use pfrl_core::stats::wilcoxon_signed_rank;
use pfrl_core::tensor::Matrix;
use pfrl_core::workloads::DatasetId;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn env_of_client(idx: usize) -> CloudEnv {
    let setup = &table3_clients(400, 0)[idx];
    CloudEnv::new(TABLE3_DIMS, setup.vms.clone(), EnvConfig::default())
}

fn bench_env(c: &mut Criterion) {
    let tasks = DatasetId::Google.model().sample(200, 1);

    c.bench_function("env/reset_200_tasks", |b| {
        let mut env = env_of_client(0);
        b.iter(|| {
            env.reset(black_box(tasks.clone()));
            black_box(env.now())
        });
    });

    c.bench_function("env/first_fit_episode_200_tasks", |b| {
        let mut env = env_of_client(0);
        b.iter(|| {
            env.reset(tasks.clone());
            let mut steps = 0u64;
            while !env.is_done() {
                let a = env.first_fit_action().unwrap_or(Action::Wait);
                env.step(a);
                steps += 1;
            }
            black_box(steps)
        });
    });

    c.bench_function("env/observe_538d_state", |b| {
        let mut env = env_of_client(0);
        env.reset(tasks.clone());
        b.iter(|| black_box(env.observe()));
    });
}

fn bench_nn(c: &mut Criterion) {
    let dims = TABLE3_DIMS;
    let mut rng = SmallRng::seed_from_u64(0);
    let net = Mlp::new(&[dims.state_dim(), 64, dims.action_dim()], Activation::Tanh, &mut rng);
    let x1 = Matrix::from_vec(1, dims.state_dim(), vec![0.3; dims.state_dim()]);
    let x64 = Matrix::from_vec(64, dims.state_dim(), vec![0.3; 64 * dims.state_dim()]);

    c.bench_function("nn/forward_single_state", |b| {
        b.iter(|| black_box(net.forward(black_box(&x1))));
    });
    c.bench_function("nn/forward_batch64", |b| {
        b.iter(|| black_box(net.forward(black_box(&x64))));
    });
    c.bench_function("nn/forward_backward_batch64", |b| {
        let mut net = net.clone();
        b.iter(|| {
            let out = net.forward_train(&x64);
            net.zero_grad();
            black_box(net.backward(&out))
        });
    });
}

fn bench_ppo(c: &mut Criterion) {
    let tasks = DatasetId::K8s.model().sample(60, 2);
    c.bench_function("ppo/train_one_episode_60_tasks", |b| {
        let dims = EnvDims::new(2, 8, 64.0, 3);
        let mut env = CloudEnv::new(
            dims,
            vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)],
            EnvConfig::default(),
        );
        let mut agent = Agent::new(dims.state_dim(), dims.action_dim(), 1, PpoConfig::default(), 3);
        b.iter(|| {
            env.reset(tasks.clone());
            black_box(agent.train_one_episode(&mut env))
        });
    });
}

fn bench_aggregation(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregation");
    for k in [2usize, 5, 10, 20] {
        // Critic-sized parameter vectors for the Table 3 networks.
        let p = TABLE3_DIMS.state_dim() * 64 + 64 + 64 + 1;
        let params: Vec<Vec<f32>> =
            (0..k).map(|i| (0..p).map(|j| ((i * p + j) as f32 * 0.1).sin()).collect()).collect();
        group.bench_with_input(BenchmarkId::new("attention_weights", k), &k, |b, _| {
            let cfg = MultiHeadConfig::default();
            b.iter(|| black_box(multi_head_attention_weights(&params, &cfg)));
        });
        group.bench_with_input(BenchmarkId::new("fedavg_mean", k), &k, |b, _| {
            b.iter(|| black_box(pfrl_core::nn::average_params(&params)));
        });
    }
    group.finish();
}

fn bench_workloads_and_stats(c: &mut Criterion) {
    c.bench_function("workloads/sample_3500_google", |b| {
        let model = DatasetId::Google.model();
        b.iter(|| black_box(model.sample(3500, 7)));
    });
    c.bench_function("stats/wilcoxon_n10_exact", |b| {
        let x: Vec<f64> = (0..10).map(|i| i as f64 + 1.3).collect();
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        b.iter(|| black_box(wilcoxon_signed_rank(&x, &y)));
    });
}

criterion_group!(
    benches,
    bench_env,
    bench_nn,
    bench_ppo,
    bench_aggregation,
    bench_workloads_and_stats
);
criterion_main!(benches);
