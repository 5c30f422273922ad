//! The PPO agent for cloud task scheduling, with a critic set of one or
//! two value networks: the standard single-critic PPO baseline, or the
//! paper's dual-critic PPO (Sec. 4.3).
//!
//! The agent uses a categorical policy over `{VM 1..L, wait}` driven by a
//! one-hidden-layer tanh MLP (64 units, as in Sec. 3.1), trained with the
//! clipped surrogate objective (Eqs. 10–12), sample-estimated advantages
//! `A = G - V(s)` (Eq. 13), and Adam (actor lr `3e-4`, critic lr `1e-4`).
//!
//! With two critics it maintains a *local* critic `φ` and a *public*
//! critic `ψ` (the vehicle of federation); state values are the blend
//! `V = α·V_φ + (1-α)·V_ψ` (Eq. 14), and both critics are regressed on
//! returns (Eqs. 16–17). α is a scale-normalised form of Eq. 15,
//! `α = sigmoid((L_ψ − L_φ)/τ)` with `τ = (L_φ + L_ψ)/2`, recomputed from
//! the buffered trajectories every time either critic changes. Unlike the
//! raw `e^{−L}` weights it is bounded to about `[0.12, 0.88]`; see the
//! [`agent`] module docs and ROADMAP item 2.
//!
//! # Example: train PPO on one client's workload
//!
//! ```
//! use pfrl_rl::{Agent, PpoConfig};
//! use pfrl_sim::{CloudEnv, EnvConfig, EnvDims, VmSpec};
//! use pfrl_workloads::DatasetId;
//!
//! let dims = EnvDims::new(2, 8, 64.0, 3);
//! let mut env = CloudEnv::new(
//!     dims,
//!     vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)],
//!     EnvConfig::default(),
//! );
//! let mut agent = Agent::new(dims.state_dim(), dims.action_dim(), 1, PpoConfig::default(), 7);
//! let tasks = DatasetId::K8s.model().sample(30, 1);
//! for _ in 0..3 {
//!     env.reset(tasks.clone());
//!     let reward = agent.train_one_episode(&mut env);
//!     assert!(reward.is_finite());
//! }
//! env.reset(tasks);
//! let metrics = agent.evaluate(&mut env);
//! assert!(metrics.tasks_placed > 0);
//! ```

pub mod agent;
pub mod buffer;
pub mod config;
pub mod policy;
pub mod returns;

pub use agent::{Agent, AgentSnapshot, Blend};
pub use buffer::{BufferSnapshot, RolloutBuffer};
pub use config::PpoConfig;
pub use returns::{discounted_returns, gae_advantages};
