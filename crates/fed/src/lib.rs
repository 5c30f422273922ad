//! Federated reinforcement learning runtime for PFRL-DM (Sec. 4.4–4.5).
//!
//! One round driver, [`Federation<R>`], runs every algorithm; a
//! [`ServerRule`] supplies only the server step. The four rules, each with
//! a runner alias:
//!
//! * [`IndependentRunner`] — no communication (the paper's "PPO" baseline);
//! * [`FedAvgRunner`] — classic FedAvg over both actor and critic
//!   parameters (optionally with a custom per-client mixing matrix, used by
//!   the Fig. 10 weighting study);
//! * [`MfpoRunner`] — momentum-based FRL in the spirit of MFPO (server
//!   momentum on the aggregated parameter deltas; see DESIGN.md for the
//!   substitution rationale);
//! * [`PfrlDmRunner`] — the paper's contribution: dual-critic clients that
//!   upload only their public critics, personalized on the server by
//!   multi-head attention weights (Algorithm 1).
//!
//! Clients train in parallel (rayon) between communication points; every
//! stochastic stream is seeded per `(experiment, client, episode)`, so runs
//! are bit-for-bit reproducible at any thread count.

pub mod attack;
pub mod checkpoint;
pub mod client;
pub mod config;
pub mod curves;
pub mod error;
pub mod fault;
pub mod fedavg;
pub mod federation;
pub mod independent;
pub mod mfpo;
pub mod pfrl_dm;
pub mod robust;
pub mod runner;
pub mod secure;
pub mod similarity;
pub mod snapshot;

pub use attack::{AttackModel, AttackPlan};
pub use client::Client;
pub use config::{ClientSetup, FedConfig};
pub use curves::TrainingCurves;
pub use error::FedError;
pub use fault::{
    AbsenceReason, AcceptedUpload, ClientFault, Corruption, FaultEvent, FaultPlan, FaultState,
    Presence, QuarantinePolicy, RejectReason, UpdateFault,
};
pub use fedavg::{FedAvg, FedAvgRunner, RoundLossProbe};
pub use federation::{Federation, Round, ServerRule};
pub use independent::{Independent, IndependentRunner};
pub use mfpo::{Mfpo, MfpoRunner};
pub use pfrl_dm::{PfrlDm, PfrlDmRunner};
pub use pfrl_scenario as scenario;
pub use robust::{RobustAggregator, RobustConfig, RobustScratch};
pub use runner::FederatedRunner;
pub use secure::{aggregate_masked, mask_update};
pub use similarity::{attention_weights, cosine_weights, kl_weights};
pub use snapshot::PolicySnapshot;
