//! `pipebench` — one benchmark for the PFRL-DM pipeline: train a
//! federation, export its policy snapshots, serve decisions from them.
//!
//! ```text
//! pipebench --workload <train_table2|fed_wide_k128>
//!           --seed <n> --seconds <s> --trace <0|1> [--threads <n>]
//! ```
//!
//! Every workload runs the whole pipeline; they differ in which stage
//! carries the load (see `README.md`). The last line of standard output is
//! one JSON object: end-to-end metrics with `--trace 0`, per-layer metrics
//! with `--trace 1`. The process exits non-zero when a correctness check
//! fails.

mod schedule;
mod serve;
mod stats;
mod train;

use pfrl_core::fed::{FedConfig, PfrlDmRunner};
use pfrl_core::telemetry::{MetricsSnapshot, Telemetry};
use stats::median;
use std::time::{Duration, Instant};
use train::Clients;

/// Times each step of a set-up runs back to back; the step's time is the
/// fastest. The host's slow stretches often last a few milliseconds, about
/// as long as a step, so the fastest of three is usually a clean reading.
/// Set-up time is then the median over the run's set-ups, one before each
/// ladder pass.
const SETUP_TRIES: usize = 3;

/// One benchmark workload: the federation it trains and how the measured
/// window is split between training and serving.
struct Workload {
    name: &'static str,
    clients: Clients,
    episodes: usize,
    comm_every: usize,
    tasks_per_episode: usize,
    /// Untraced trainings of each draw; its time is the sum over rounds of
    /// each round's fastest repeat.
    repeats: usize,
    /// Share of `--seconds` spent training draws; the rest drives the
    /// serving ladder.
    train_share: f64,
    /// Passes over the serving ladder in the serving share.
    ladder_passes: usize,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "train_table2",
        clients: Clients::Table2,
        episodes: 20,
        comm_every: 5,
        tasks_per_episode: 50,
        repeats: 3,
        train_share: 0.7,
        ladder_passes: 8,
    },
    Workload {
        name: "fed_wide_k128",
        clients: Clients::Table3Cycled(128),
        episodes: 3,
        comm_every: 1,
        tasks_per_episode: 8,
        repeats: 6,
        train_share: 0.7,
        ladder_passes: 8,
    },
];

impl Workload {
    fn fed(&self, seed: u64, parallel: bool) -> FedConfig {
        FedConfig {
            episodes: self.episodes,
            comm_every: self.comm_every,
            participation_k: self.clients.count(),
            tasks_per_episode: Some(self.tasks_per_episode),
            seed,
            parallel,
        }
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    nproc: usize,
}

fn parse_args() -> Result<Args, String> {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut threads) = (None, None, None, 1);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num =
            |v: &str| v.parse::<u64>().map_err(|_| format!("{flag}: not a whole number: {v}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)? as f64),
            "--trace" => match num(&value)? {
                0 => trace = Some(false),
                1 => trace = Some(true),
                _ => return Err(format!("--trace must be 0 or 1, not {value}")),
            },
            "--threads" => threads = num(&value)? as usize,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    if threads == 0 || threads > nproc {
        return Err(format!("--threads {threads} is outside 1..={nproc} (nproc)"));
    }
    if threads != 1 && threads != nproc {
        // The training pool sizes itself from the machine, so anything
        // between one thread and every core would misreport the threads used.
        return Err(format!("--threads must be 1 or nproc ({nproc})"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        threads,
        nproc,
    })
}

/// A named metric value with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn json_metrics(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { format!("{:?}", x.value) } else { "null".into() };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", x.name, x.unit)
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Median over ladder passes of one rung's reading.
fn med_of(rungs: &[&serve::Rung], f: impl Fn(&serve::Rung) -> f64) -> f64 {
    median(&rungs.iter().map(|r| f(r)).collect::<Vec<_>>())
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Per-layer numbers read from one traced training schedule.
fn training_layers(t: &TracedRepeat, threads: usize, fed: &FedConfig) -> Vec<Metric> {
    let s = &t.trace;
    let phase = |p: &str| ms(s.span_total_ns(&format!("fed/round/{p}")));
    let phases = ["local_train", "upload", "attention", "aggregate", "broadcast"].map(phase);
    let round_ms: f64 = t.rounds_ms.iter().sum();
    let update_ms = ms(s.span_total_ns("rl/ppo_update"));
    let transitions = s.counter("sim/decisions") as f64;
    let refused = s.counter("fed/quarantined") + s.counter("fed/screened");
    vec![
        m("rl.update_ms", update_ms, "ms"),
        m("rl.updates", s.span_count("rl/ppo_update") as f64, "count"),
        m("rl.update_us_per_transition", update_ms * 1e3 / transitions, "us"),
        m("rl.update_share", update_ms / (threads as f64 * phases[0]), "ratio"),
        m("fed.round_ms", round_ms, "ms"),
        m("fed.local_train_ms", phases[0], "ms"),
        m("fed.upload_ms", phases[1], "ms"),
        m("fed.attention_ms", phases[2], "ms"),
        m("fed.aggregate_ms", phases[3], "ms"),
        m("fed.broadcast_ms", phases[4], "ms"),
        m("fed.unattributed_ms", stats::unattributed(round_ms, &phases), "ms"),
        m("fed.bytes_up", s.counter("fed/bytes_up") as f64, "bytes"),
        m("fed.bytes_down", s.counter("fed/bytes_down") as f64, "bytes"),
        m("fed.uploads", (fed.rounds() * fed.participation_k) as f64, "count"),
        m("fed.uploads_refused", refused as f64, "count"),
        m("sim.episode_ms", ms(s.span_total_ns("sim/episode")), "ms"),
        m("sim.episodes", s.counter("sim/episodes") as f64, "count"),
        m("sim.decisions", transitions, "count"),
        m("sim.events", s.counter("sim/events") as f64, "count"),
        m("sim.ns_per_decision", s.span_total_ns("sim/episode") as f64 / transitions, "ns"),
    ]
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    /// Provenance and the numbers behind the result line, as JSON.
    record: String,
}

/// One traced training schedule, kept for its per-layer readings.
struct TracedRepeat {
    train_s: f64,
    rounds_ms: Vec<f64>,
    trace: MetricsSnapshot,
    /// Traced over untraced training time of the same draw, minus one.
    overhead: f64,
}

/// One seeded draw of the inputs, trained once traced and `repeats` times
/// untraced.
struct Draw {
    /// Untraced schedule time: each round's fastest repeat, summed, plus
    /// the fastest `finish`.
    train_s: f64,
    /// Each round's fastest untraced repeat.
    rounds_ms: Vec<f64>,
    /// Decisions (transitions) the schedule made, from the traced twin.
    decisions: f64,
    traced: TracedRepeat,
}

/// Times of one set-up: generate the inputs, build the federation, export
/// the trained federation's snapshots, load them and open the sessions.
struct Setup {
    sample_s: f64,
    construct_s: f64,
    export_s: f64,
    load_s: f64,
}

impl Setup {
    fn total_s(&self) -> f64 {
        self.sample_s + self.construct_s + self.export_s + self.load_s
    }
}

/// Fastest of [`SETUP_TRIES`] runs of `step`, and the last run's result.
fn fastest<T>(mut step: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..SETUP_TRIES {
        drop(out.take());
        let t = Instant::now();
        out = Some(step()?);
        best = best.min(t.elapsed().as_secs_f64());
    }
    Ok((best, out.expect("at least one try")))
}

/// Runs and times one set-up on the trained `runner`; returns its times,
/// the exported blobs and the loaded serving plane.
fn set_up(
    a: &Args,
    runner: &PfrlDmRunner,
    heldout: &[Vec<pfrl_core::workloads::TaskSpec>],
) -> Result<(Setup, Vec<Vec<u8>>, serve::Plane), String> {
    let w = a.workload;
    let (sample_s, inputs) = fastest(|| Ok(train::generate(w.clients, a.seed)))?;
    let fed = w.fed(a.seed, a.threads > 1);
    let (construct_s, _) =
        fastest(|| Ok(train::build(w.clients, &inputs, fed, Telemetry::noop()).0))?;
    drop(inputs);
    let (export_s, blobs) = fastest(|| Ok(train::export(runner)))?;
    let (load_s, plane) = fastest(|| serve::load(&blobs, a.threads, heldout, a.seed))?;
    Ok((Setup { sample_s, construct_s, export_s, load_s }, blobs, plane))
}

/// Everything the serving passes measured.
#[derive(Default)]
struct Serving {
    setups: Vec<Setup>,
    /// The run's first export, checked to decode, validate and round-trip.
    blobs: Vec<Vec<u8>>,
    passes: Vec<Vec<serve::Rung>>,
    admitted: u64,
    rejected: u64,
    stale: u64,
}

impl Serving {
    /// Sets up a plane from `runner`, drives one pass of the ladder on it,
    /// then checks its ledger.
    fn pass(
        &mut self,
        a: &Args,
        runner: &PfrlDmRunner,
        heldout: &[Vec<pfrl_core::workloads::TaskSpec>],
        ladder: &[f64],
        rung_dur: Duration,
        errors: &mut Vec<String>,
    ) -> Result<(), String> {
        let (setup, exported, plane) = set_up(a, runner, heldout)?;
        if self.blobs.is_empty() {
            train::verify_export(&exported)?;
            self.blobs = exported;
        }
        self.setups.push(setup);
        let pass = self.passes.len();
        let before = plane.ledger();
        let mut rungs = Vec::new();
        for (i, &rate) in ladder.iter().enumerate() {
            let seed = schedule::mix(a.seed, (pass * ladder.len() + i) as u64 + 0x100);
            rungs.push(plane.rung(rate, rung_dur, seed, a.trace)?);
        }
        let after = plane.ledger();
        // Ledger: every admitted request was served, dropped as stale or is
        // still queued, and the load threads' own counts agree with the
        // service's.
        let sum = |f: fn(&serve::Rung) -> u64| rungs.iter().map(f).sum::<u64>();
        if after.admitted != after.decisions + after.stale + after.queued || after.queued != 0 {
            errors.push(format!("serve ledger does not balance after the final drain: {after:?}"));
        }
        let (admitted, decisions) =
            (after.admitted - before.admitted, after.decisions - before.decisions);
        if admitted != sum(|r| r.admitted) || decisions != sum(|r| r.decisions) {
            errors.push(format!(
                "load threads counted {} admitted / {} served, service {admitted} / {decisions}",
                sum(|r| r.admitted),
                sum(|r| r.decisions)
            ));
        }
        self.admitted += admitted;
        self.rejected += after.rejected - before.rejected;
        self.stale += after.stale - before.stale;
        self.passes.push(rungs);
        Ok(())
    }
}

fn run(a: &Args) -> Result<Outcome, String> {
    let w = a.workload;
    let mut errors: Vec<String> = Vec::new();

    // The window interleaves training with serving. Training runs the
    // fixed schedule on fresh seeded draws of the inputs, so each run's
    // figures cover several draws rather than one. Every draw is trained
    // once traced, for its counts and spans, and `repeats` times untraced,
    // for its times; all of them must agree bit for bit. Host interference
    // only adds time, so a draw's time is each round's fastest repeat.
    // After each training, as many ladder passes run as keep the passes
    // level with the share of the training budget spent, each on a plane
    // set up afresh from the federation just trained; the rest run after
    // training ends. Spreading both over the window keeps one slow stretch
    // of the host from covering every repeat of either.
    let budget = a.seconds * w.train_share;
    let ladder: Vec<f64> = serve::RATES.iter().copied().chain([serve::OVERLOAD]).collect();
    let serve_window = a.seconds * (1.0 - w.train_share);
    let rung_dur = Duration::from_secs_f64(serve_window / (ladder.len() * w.ladder_passes) as f64);
    let mut serving = Serving::default();
    let mut draws: Vec<Draw> = Vec::new();
    // Only the latest federation is kept, for export, evaluation and
    // serving; holding more would add their memory to the peak.
    let mut latest: Option<PfrlDmRunner> = None;
    let mut inputs: Option<train::Inputs> = None;
    let mut train_s_spent = 0.0;
    let mut planned = usize::MAX;
    while draws.len() < planned {
        let draw = draws.len() as u64;
        let seed = if draw == 0 { a.seed } else { schedule::mix(a.seed, draw) };
        drop(latest.take());
        let inputs = inputs.insert(train::generate(w.clients, seed));
        let fed = w.fed(seed, a.threads > 1);
        let (mut twin, mut repeats, mut finish_ms, mut plain_s) =
            (None, Vec::new(), Vec::new(), Vec::new());
        let mut first: Option<(Vec<u64>, Vec<Vec<u8>>)> = None;
        for k in 0..=w.repeats {
            drop(latest.take());
            let t = Instant::now();
            let trained = train::train(w.clients, inputs, fed, k == 0);
            train_s_spent += t.elapsed().as_secs_f64();
            let bits = (train::curve_bits(&trained.curves), train::export(&trained.runner));
            match &first {
                None => first = Some(bits),
                Some(f) if *f != bits => {
                    errors.push(format!("traced and untraced training of draw {draw} differ"))
                }
                Some(_) => {}
            }
            match trained.trace {
                Some(trace) => {
                    twin = Some(TracedRepeat {
                        train_s: trained.train_s,
                        rounds_ms: trained.rounds_ms,
                        trace,
                        overhead: 0.0,
                    })
                }
                None => {
                    repeats.push(trained.rounds_ms);
                    finish_ms.push(trained.finish_ms);
                    plain_s.push(trained.train_s);
                }
            }
            let runner = latest.insert(trained.runner);
            let due = (w.ladder_passes as f64 * train_s_spent / budget).ceil() as usize;
            while serving.passes.len() < due.min(w.ladder_passes) {
                serving.pass(a, runner, &inputs.heldout, &ladder, rung_dur, &mut errors)?;
            }
            // A slow host stretches every training; past a tenth over the
            // budget, a draw with two untraced repeats already has its time.
            if k >= 2 && train_s_spent > 1.1 * budget {
                break;
            }
        }
        let rounds_ms = stats::fastest_per_round(&repeats);
        let finish = finish_ms.iter().copied().fold(f64::INFINITY, f64::min);
        let twin = twin.expect("the first training of a draw is traced");
        draws.push(Draw {
            train_s: (rounds_ms.iter().sum::<f64>() + finish) / 1e3,
            rounds_ms,
            decisions: twin.trace.counter("sim/decisions") as f64,
            traced: TracedRepeat { overhead: twin.train_s / median(&plain_s) - 1.0, ..twin },
        });
        if draws.len() == 1 {
            // As many draws as fit the budget at the first one's pace, to
            // the nearest whole draw, so that a host running a little
            // faster or slower does not change how many draws a run averages.
            planned = ((budget / train_s_spent).round() as usize).max(1);
        }
    }
    let (runner, inputs) = (latest.expect("at least one draw"), inputs.expect("drawn"));
    while serving.passes.len() < w.ladder_passes {
        serving.pass(a, &runner, &inputs.heldout, &ladder, rung_dur, &mut errors)?;
    }
    let heldout = train::evaluate(runner, &inputs.heldout, a.seed)?;
    let Serving { setups, blobs, passes, admitted, rejected, stale } = serving;
    let all = || passes.iter().flatten();

    // End-to-end numbers.
    // Means over draws: each draw's time is already its fastest repeats',
    // and the mean weighs every draw's share of the work alike.
    let mean = |f: fn(&Draw) -> f64| draws.iter().map(f).sum::<f64>() / draws.len() as f64;
    let train_s = mean(|d| d.train_s);
    let per_s = mean(|d| d.decisions / d.train_s);
    let rounds_ms: Vec<f64> = draws.iter().flat_map(|d| d.rounds_ms.iter().copied()).collect();
    let setup_s = median(&setups.iter().map(Setup::total_s).collect::<Vec<_>>());
    let below = |r: &&serve::Rung| r.offered < serve::OVERLOAD;
    let at = |rate: f64| -> Vec<&serve::Rung> { all().filter(|r| r.offered == rate).collect() };
    let reference_rungs = at(serve::REFERENCE);
    for r in &reference_rungs {
        if stats::highest_reportable(r.samples).is_none_or(|p| p < 0.99) {
            errors.push(format!("{} samples at the reference rung cannot carry a p99", r.samples));
        }
    }
    let overload_rungs = at(serve::OVERLOAD);
    let mut pooled = stats::Histogram::default();
    for r in &reference_rungs {
        pooled.merge(&r.latency);
    }
    // The quietest slice of the reference rungs, and the fastest of the
    // overload rungs: the service's own speed, not the host's.
    let quiet_p50_us = reference_rungs
        .iter()
        .flat_map(|r| r.slice_p50_us.iter().copied())
        .fold(f64::INFINITY, f64::min);
    let capacity_dps =
        overload_rungs.iter().flat_map(|r| r.slice_dps.iter().copied()).fold(0.0, f64::max);
    let slo_rates: Vec<f64> = passes
        .iter()
        .map(|p| {
            let outcomes: Vec<_> = p.iter().filter(below).map(|r| r.outcome).collect();
            stats::slo_rate(&outcomes, serve::LIMIT_US).unwrap_or(0.0)
        })
        .collect();
    // Operations: every upload of every training, and every request on the
    // rungs up to the reference rate, which the service must absorb
    // without refusing any. `ops_failed_ratio` counts every rung below
    // overload, where refusals near capacity are admission control at work.
    // Each draw trains `1 + repeats` times, so its uploads and refusals
    // count that many times.
    let fed = w.fed(a.seed, a.threads > 1);
    let trainings = (1 + w.repeats) as u64;
    let uploads = trainings * (fed.rounds() * fed.participation_k * draws.len()) as u64;
    let refused: u64 = draws
        .iter()
        .map(|d| {
            let t = &d.traced.trace;
            trainings * (t.counter("fed/quarantined") + t.counter("fed/screened"))
        })
        .sum();
    let lost = |r: &serve::Rung| r.outcome.rejected + r.stale;
    let upto_reference = |r: &&serve::Rung| r.offered <= serve::REFERENCE;
    let attempted = uploads + all().filter(upto_reference).map(|r| r.sent).sum::<u64>();
    let failed = refused + all().filter(upto_reference).map(lost).sum::<u64>();
    let sent_below: u64 = all().filter(below).map(|r| r.sent).sum();
    let ops_failed_ratio = (refused + all().filter(below).map(lost).sum::<u64>()) as f64
        / (uploads + sent_below) as f64;
    let end_to_end = vec![
        m("setup_s", setup_s, "s"),
        m("peak_rss_mb", peak_rss_mb(), "MB"),
        m("serve_capacity_dps", capacity_dps, "1/s"),
        m("serve_p50_us", quiet_p50_us, "us"),
    ];
    // End to end in meaning, but too unsteady on a shared host to bound
    // (see README.md), so they ride with the per-layer numbers. The
    // training times are among them: a training round lasts 0.4–1.4 s, too
    // long to find a fast stretch in the host's busy phases.
    let unbounded = [
        m("train_s", train_s, "s"),
        m("train_transitions_per_s", per_s, "1/s"),
        m("round_ms_p50", median(&rounds_ms), "ms"),
        m("heldout_response", heldout.response, "steps"),
        m("heldout_makespan", heldout.makespan, "steps"),
        m("serve_slo_rate_dps", median(&slo_rates), "1/s"),
        m("serve_p99_us", pooled.percentile(0.99) as f64 / 1e3, "us"),
        m("ops_failed_ratio", ops_failed_ratio, "ratio"),
    ];

    // Per-layer numbers: the traced twin with the median training time.
    let mut traced: Vec<&TracedRepeat> = draws.iter().map(|d| &d.traced).collect();
    traced.sort_by(|x, y| x.train_s.total_cmp(&y.train_s));
    let mid = &traced[(traced.len() - 1) / 2];
    let overhead = median(&traced.iter().map(|t| t.overhead).collect::<Vec<_>>());
    let snapshot_bytes: usize = blobs.iter().map(Vec::len).sum();
    let late_max = all().filter(below).map(|r| r.late_max_us).fold(0.0, f64::max);
    let mut per_layer = training_layers(mid, a.threads, &fed);
    per_layer.extend(unbounded);
    let setup_ms = |f: fn(&Setup) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>()) * 1e3;
    per_layer.extend([
        m("fed.export_ms", setup_ms(|s| s.export_s), "ms"),
        m("fed.snapshot_bytes", snapshot_bytes as f64, "bytes"),
        m("serve.load_ms", setup_ms(|s| s.load_s), "ms"),
        m("serve.wave_us_p50", med_of(&reference_rungs, |r| r.wave_us_p50), "us"),
        m("serve.wave_us_p99", med_of(&reference_rungs, |r| r.wave_us_p99), "us"),
        m(
            "serve.wave_size_mean",
            med_of(&reference_rungs, |r| r.decisions as f64 / r.waves as f64),
            "count",
        ),
        m(
            "serve.ns_per_decision",
            med_of(&overload_rungs, |r| r.busy_ns as f64 / r.decisions as f64),
            "ns",
        ),
        m(
            "serve.busy_share",
            med_of(&reference_rungs, |r| r.busy_ns as f64 / r.wall_ns as f64 / a.threads as f64),
            "ratio",
        ),
        m("serve.queue_wait_us_p50", med_of(&reference_rungs, |r| r.queue_wait_us_p50), "us"),
        m("serve.queue_wait_us_p99", med_of(&reference_rungs, |r| r.queue_wait_us_p99), "us"),
        m(
            "serve.submit_ns",
            all().filter(below).map(|r| r.submit_ns).sum::<u64>() as f64 / sent_below as f64,
            "ns",
        ),
        m("serve.admitted", admitted as f64, "count"),
        m("serve.rejected", rejected as f64, "count"),
        m("serve.stale", stale as f64, "count"),
        m("serve.generator_late_us_max", late_max, "us"),
        m("workloads.sample_ms", setup_ms(|s| s.sample_s), "ms"),
        m("core.eval_ms", heldout.eval_s * 1e3, "ms"),
        m("core.heldout_unplaced_share", heldout.unplaced as f64 / heldout.tasks as f64, "ratio"),
        m("telemetry.overhead_pct", overhead * 100.0, "%"),
    ]);

    let rung_json: Vec<String> = all()
        .map(|r| {
            format!(
                concat!(
                    "{{\"offered\": {}, \"sent\": {}, \"rejected\": {}, \"stale\": {}, ",
                    "\"served_dps\": {:.0}, \"p50_us\": {:.2}, \"p99_us\": {:.2}, ",
                    "\"samples\": {}, \"p99_beyond\": {}, \"top_percentile\": {}, ",
                    "\"backlog\": {}, \"late_max_us\": {:.1}, ",
                    "\"slice_p50_us_min\": {:.3}, \"slice_dps_max\": {:.0}, ",
                    "\"meets_limit\": {}}}"
                ),
                r.offered,
                r.sent,
                r.outcome.rejected,
                r.stale,
                r.served_dps,
                r.p50_us,
                r.outcome.p99_us,
                r.samples,
                stats::samples_beyond(r.samples, 0.99),
                stats::highest_reportable(r.samples).unwrap_or(0.0),
                r.outcome.backlog,
                r.late_max_us,
                r.slice_p50_us.iter().copied().fold(f64::INFINITY, f64::min),
                r.slice_dps.iter().copied().fold(0.0, f64::max),
                r.offered < serve::OVERLOAD && r.outcome.meets(serve::LIMIT_US),
            )
        })
        .collect();
    let record = format!(
        concat!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, ",
            "\"git_commit\": \"{}\", \"nproc\": {}, \"threads\": {}, \"simd_tier\": \"{}\", ",
            "\"generator_late_us_max\": {:.1}, \"draws\": {}, \"repeats\": {}, ",
            "\"draw_train_s\": {:?}, \"draw_decisions\": {:?}, \"setup_s\": {:?}, ",
            "\"train_spent_s\": {:.3}, \"rung_s\": {:.3}, \"ops_failed_ratio\": {:?}, ",
            "\"errors\": [{}], \"rungs\": [{}]}}"
        ),
        w.name,
        a.seed,
        a.seconds,
        a.trace as u8,
        git_commit(),
        a.nproc,
        a.threads,
        pfrl_core::tensor::simd::tier().name(),
        late_max,
        draws.len(),
        w.repeats,
        draws.iter().map(|d| d.train_s).collect::<Vec<_>>(),
        draws.iter().map(|d| d.decisions).collect::<Vec<_>>(),
        setups.iter().map(Setup::total_s).collect::<Vec<_>>(),
        train_s_spent,
        rung_dur.as_secs_f64(),
        ops_failed_ratio,
        errors.iter().map(|e| format!("{e:?}")).collect::<Vec<_>>().join(", "),
        rung_json.join(", "),
    );
    Ok(Outcome { correct: errors.is_empty(), attempted, failed, end_to_end, per_layer, record })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(o) => {
            println!("# run {}", o.record);
            for x in o.end_to_end.iter().chain(&o.per_layer) {
                println!("# {:<32} {:>16.4} {}", x.name, x.value, x.unit);
            }
            let metrics = if args.trace { &o.per_layer } else { &o.end_to_end };
            let bad: Vec<&str> =
                metrics.iter().filter(|x| !x.value.is_finite()).map(|x| x.name).collect();
            let correct = o.correct && bad.is_empty();
            if !bad.is_empty() {
                eprintln!("pipebench: metrics not finite: {}", bad.join(", "));
            }
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                correct,
                o.attempted,
                o.failed,
                json_metrics(metrics)
            );
            if !correct {
                eprintln!(
                    "pipebench: a correctness check failed; see \"errors\" in the run record"
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("pipebench: {e}");
            std::process::exit(1);
        }
    }
}
