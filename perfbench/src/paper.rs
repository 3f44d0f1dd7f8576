//! `paper_figures`: the union of the experiment grids `reproduce all` runs
//! (Figures 4/5, 7/8, 9, Table 2, Figures 10/11, 12/13 and 14/15), at the
//! paper's clip length.
//!
//! Each cell mirrors the body of its `thrifty_bench` figure function —
//! `Experiment::prepare` + `Experiment::run`, plus the analytic
//! `DelayModel` / `DistortionModel` prediction where the figure prints one
//! — with the workload seed in place of `ExperimentConfig::seed`. Duplicate
//! cells are kept (Figure 5 re-runs Figure 4's grid, Figures 10/11 re-run
//! the stream preparation of 7/8) because `reproduce` runs them twice.
//!
//! The traced path ([`run_cell_traced`]) replays `prepare`/`run` through
//! the public functions underneath them, so each layer call gets its own
//! span; `replay_matches_experiment` pins the replay bit-identical to the
//! real calls.

use rand::rngs::StdRng;
use rand::SeedableRng;
use thrifty_analytic::delay::DelayModel;
use thrifty_analytic::distortion::{DistortionModel, Observer};
use thrifty_analytic::params::{DeviceSpec, ScenarioParams, HTC_AMAZE_4G, SAMSUNG_GALAXY_S2};
use thrifty_analytic::policy::{EncryptionMode, Policy};
use thrifty_analytic::regression::SceneDistortion;
use thrifty_bench::{Effort, Table, GOPS, MOTIONS};
use thrifty_crypto::Algorithm;
use thrifty_energy::{CryptoLoad, PowerProfile, HTC_AMAZE_4G_POWER, SAMSUNG_GALAXY_S2_POWER};
use thrifty_net::tcp::{MeteredTcp, TcpLatencyModel};
use thrifty_sim::experiment::{Experiment, ExperimentConfig, ExperimentResult, Transport};
use thrifty_sim::sender::SenderSim;
use thrifty_sim::stats::Summary;
use thrifty_telemetry::MetricsRegistry;
use thrifty_video::encoder::{EncodedStream, StatisticalEncoder};
use thrifty_video::motion::MotionLevel;
use thrifty_video::packet::Packetizer;
use thrifty_video::quality::{measure_quality, RefreshingDecoder};
use thrifty_video::scene::{SceneConfig, SceneGenerator};
use thrifty_video::yuv::YuvFrame;

use crate::measure::Digest;
use crate::trace::Tracer;

/// Which figure function a cell belongs to (decides what it computes and
/// which of its values the figure prints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Figure 4: distortion prediction + run; prints eavesdropper PSNR.
    Fig4,
    /// Figure 5: run; prints eavesdropper MOS.
    Fig5,
    /// Figures 7/8: delay prediction + run; prints delay.
    Fig7_8,
    /// Figure 9: run; prints delay.
    Fig9,
    /// Table 2: run; prints delay and eavesdropper PSNR/MOS.
    Table2,
    /// Figures 10/11: prepare only; prints power.
    Fig10_11,
    /// Figures 12/13 (HTTP/TCP): run; prints delay.
    Fig12_13,
    /// Figures 14/15 (HTTP/TCP): run; prints eavesdropper and receiver quality.
    Fig14_15,
}

impl Figure {
    /// The transport the figure's cells run: HTTP/TCP for Figures 12–15.
    fn transport(self) -> Transport {
        match self {
            Figure::Fig12_13 | Figure::Fig14_15 => Transport::HttpTcp,
            _ => Transport::RtpUdp,
        }
    }

    /// Whether the figure runs the trials (every figure but 10/11).
    fn runs(self) -> bool {
        self != Figure::Fig10_11
    }

    /// Which quality results the figure prints: (receiver, eavesdropper).
    pub fn prints_quality(self) -> (bool, bool) {
        match self {
            Figure::Fig4 | Figure::Fig5 | Figure::Table2 => (false, true),
            Figure::Fig14_15 => (true, true),
            _ => (false, false),
        }
    }
}

/// One cell of the grid.
#[derive(Debug, Clone, Copy)]
pub struct PaperCell {
    /// The figure function the cell belongs to.
    pub figure: Figure,
    /// The experiment configuration (its seed is the workload seed).
    pub cfg: ExperimentConfig,
}

/// What one cell computed: every value its figure prints, and the rest of
/// the experiment's outputs for the digest.
#[derive(Debug, Clone)]
pub struct CellOut {
    /// The trials' aggregate (absent for Figures 10/11).
    pub result: Option<ExperimentResult>,
    /// `DelayModel` mean delay, seconds (Figures 7/8).
    pub delay_pred_s: Option<f64>,
    /// `DistortionModel` eavesdropper PSNR, dB (Figure 4).
    pub distortion_pred_db: Option<f64>,
    /// Modelled power and its increase over no encryption (Figures 10/11).
    pub power: Option<(f64, f64)>,
    /// Sender-simulation calendar events (one per packet per trial).
    pub events: u64,
}

/// The paper-scale effort: 10 trials over 300-frame clips.
pub fn paper_effort() -> Effort {
    Effort::full()
}

/// A handset: the device spec and its power profile.
type Phone = (DeviceSpec, PowerProfile);

const SAMSUNG: Phone = (SAMSUNG_GALAXY_S2, SAMSUNG_GALAXY_S2_POWER);
const HTC: Phone = (HTC_AMAZE_4G, HTC_AMAZE_4G_POWER);

fn cell(
    figure: Figure,
    motion: MotionLevel,
    gop: usize,
    policy: Policy,
    (device, power): Phone,
    effort: Effort,
    seed: u64,
) -> PaperCell {
    let mut cfg = ExperimentConfig::paper_cell(motion, gop, policy);
    cfg.device = device;
    cfg.power = power;
    cfg.transport = figure.transport();
    cfg.trials = effort.trials;
    cfg.frames = effort.frames;
    cfg.seed = seed;
    PaperCell { figure, cfg }
}

/// The Figure 4/5/14/15 grid at one GOP: both motions × the Table 1
/// policies, AES-256 on the Samsung.
pub fn policy_grid(figure: Figure, gop: usize, effort: Effort, seed: u64) -> Vec<PaperCell> {
    let mut out = Vec::new();
    for (_, motion) in MOTIONS {
        for mode in EncryptionMode::TABLE1 {
            let policy = Policy::new(Algorithm::Aes256, mode);
            out.push(cell(figure, motion, gop, policy, SAMSUNG, effort, seed));
        }
    }
    out
}

/// The Figure 7/8/12/13 grid on one phone: two ciphers × GOPs × motions ×
/// the Table 1 policies.
pub fn delay_grid(figure: Figure, phone: Phone, effort: Effort, seed: u64) -> Vec<PaperCell> {
    let mut out = Vec::new();
    for alg in [Algorithm::Aes256, Algorithm::TripleDes] {
        for gop in GOPS {
            for (_, motion) in MOTIONS {
                for mode in EncryptionMode::TABLE1 {
                    let policy = Policy::new(alg, mode);
                    out.push(cell(figure, motion, gop, policy, phone, effort, seed));
                }
            }
        }
    }
    out
}

/// Figure 9's grid: phones × ciphers × α (fast motion, GOP 30).
pub fn fig9_grid(effort: Effort, seed: u64) -> Vec<PaperCell> {
    let mut out = Vec::new();
    for phone in [SAMSUNG, HTC] {
        for alg in Algorithm::ALL {
            for alpha in [0.10, 0.15, 0.20, 0.25, 0.30, 0.50] {
                let policy = Policy::new(alg, EncryptionMode::IPlusFractionP(alpha));
                out.push(cell(
                    Figure::Fig9,
                    MotionLevel::High,
                    30,
                    policy,
                    phone,
                    effort,
                    seed,
                ));
            }
        }
    }
    out
}

/// Table 2's grid: I-only then I + α·P on the Samsung (fast motion, GOP 30).
pub fn table2_grid(effort: Effort, seed: u64) -> Vec<PaperCell> {
    [0.0, 0.10, 0.15, 0.20, 0.25, 0.30, 0.50]
        .into_iter()
        .map(|alpha: f64| {
            let mode = if alpha <= 0.0 {
                EncryptionMode::IFrames
            } else {
                EncryptionMode::IPlusFractionP(alpha)
            };
            let policy = Policy::new(Algorithm::Aes256, mode);
            cell(
                Figure::Table2,
                MotionLevel::High,
                30,
                policy,
                SAMSUNG,
                effort,
                seed,
            )
        })
        .collect()
}

/// Figures 10/11's grid for one power profile (the device stays the
/// Samsung, as in the figure function).
pub fn fig10_11_grid(power: PowerProfile, effort: Effort, seed: u64) -> Vec<PaperCell> {
    let mut out = Vec::new();
    for (_, motion) in MOTIONS {
        for alg in [Algorithm::Aes256, Algorithm::TripleDes] {
            for gop in GOPS {
                for mode in EncryptionMode::TABLE1 {
                    let policy = Policy::new(alg, mode);
                    let phone = (SAMSUNG_GALAXY_S2, power);
                    out.push(cell(
                        Figure::Fig10_11,
                        motion,
                        gop,
                        policy,
                        phone,
                        effort,
                        seed,
                    ));
                }
            }
        }
    }
    out
}

/// The whole workload grid, in `reproduce all` order.
pub fn grid(effort: Effort, seed: u64) -> Vec<PaperCell> {
    let mut g = Vec::new();
    for figure in [Figure::Fig4, Figure::Fig5] {
        for gop in GOPS {
            g.extend(policy_grid(figure, gop, effort, seed));
        }
    }
    for phone in [SAMSUNG, HTC] {
        g.extend(delay_grid(Figure::Fig7_8, phone, effort, seed));
    }
    g.extend(fig9_grid(effort, seed));
    g.extend(table2_grid(effort, seed));
    for (_, power) in [SAMSUNG, HTC] {
        g.extend(fig10_11_grid(power, effort, seed));
    }
    for phone in [SAMSUNG, HTC] {
        g.extend(delay_grid(Figure::Fig12_13, phone, effort, seed));
    }
    for gop in GOPS {
        g.extend(policy_grid(Figure::Fig14_15, gop, effort, seed));
    }
    g
}

/// Fixed dispatch order over a grid of `n` cells: a golden-ratio stride
/// (coprime with `n`), so every prefix of a pass samples every figure in
/// proportion instead of finishing one figure before starting the next.
pub fn dispatch_order(n: usize) -> Vec<usize> {
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let mut stride = ((n as f64) * 0.618_033_988_75).round().max(1.0) as usize;
    while gcd(stride, n) != 1 {
        stride += 1;
    }
    (0..n).map(|i| i * stride % n).collect()
}

/// Sender-simulation events of a cell: one calendar event per packet per
/// trial.
fn sender_events(cfg: &ExperimentConfig, stream: &EncodedStream) -> u64 {
    (cfg.trials * Packetizer::default().packetize(stream).len()) as u64
}

/// Run a cell through the real `Experiment` API (the untraced path).
pub fn run_cell(c: &PaperCell) -> CellOut {
    let cfg = c.cfg;
    let policy = cfg.policy;
    let exp = Experiment::prepare(cfg);
    match c.figure {
        Figure::Fig10_11 => {
            let load = CryptoLoad::from_stream(exp.stream(), policy);
            CellOut {
                result: None,
                delay_pred_s: None,
                distortion_pred_db: None,
                power: Some((cfg.power.power_w(&load), cfg.power.relative_increase(&load))),
                events: 0,
            }
        }
        figure => {
            let distortion_pred_db = (figure == Figure::Fig4).then(|| {
                let scene = SceneDistortion::measure(cfg.motion, 60, 12, 11);
                DistortionModel::new(&exp.params, &scene)
                    .predict(policy, Observer::Eavesdropper)
                    .psnr_db
            });
            let delay_pred_s = (figure == Figure::Fig7_8).then(|| {
                DelayModel::new(&exp.params)
                    .predict(policy)
                    .expect("Table 1 policies are stable at the calibrated load")
                    .mean_delay_s
            });
            let result = exp.run();
            CellOut {
                result: Some(result),
                delay_pred_s,
                distortion_pred_db,
                power: None,
                events: sender_events(&cfg, exp.stream()),
            }
        }
    }
}

/// Work counts the traced replay observes.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCounts {
    /// Frames rendered by `SceneGenerator::clip`.
    pub frames_rendered: u64,
    /// Frames scored by `measure_quality`.
    pub frames_scored: u64,
    /// Scored frames the decoder showed intact (their MSE is exactly 0).
    pub frames_intact: u64,
    /// Scored frames whose quality result no table prints.
    pub frames_discarded: u64,
    /// Packets the sender simulation stepped.
    pub sender_packets: u64,
}

impl ReplayCounts {
    /// Accumulate another cell's counts.
    pub fn add(&mut self, o: &ReplayCounts) {
        self.frames_rendered += o.frames_rendered;
        self.frames_scored += o.frames_scored;
        self.frames_intact += o.frames_intact;
        self.frames_discarded += o.frames_discarded;
        self.sender_packets += o.sender_packets;
    }
}

/// Frames a concealment decoder shows unchanged: every frame whose GOP
/// chain is unbroken up to and including it (the decoder copies those
/// verbatim; everything else is a stale or blended picture).
pub fn intact_frames(flags: &[bool], gop: usize) -> u64 {
    let mut broken = false;
    let mut n = 0;
    for (f, &ok) in flags.iter().enumerate() {
        if f % gop == 0 {
            broken = !ok;
        } else if !ok {
            broken = true;
        }
        n += u64::from(!broken);
    }
    n
}

/// The inputs `Experiment::prepare` builds, replayed call by call.
struct Prepared {
    params: ScenarioParams,
    stream: EncodedStream,
    clip: Vec<YuvFrame>,
}

fn prepare_traced(cfg: &ExperimentConfig, t: &Tracer, cell: u64, parent: u64) -> Prepared {
    let params = t.span("analytic.calibrate", cell, Some(parent), |_| {
        ScenarioParams::calibrated(
            cfg.motion,
            cfg.gop_size,
            cfg.device,
            cfg.stations,
            cfg.target_rho,
        )
    });
    let stream = t.span("video.encoder.encode", cell, Some(parent), |_| {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        StatisticalEncoder::new(cfg.motion, cfg.gop_size).encode(cfg.frames, &mut rng)
    });
    let clip = t.span("video.scene.render", cell, Some(parent), |_| {
        SceneGenerator::new(SceneConfig {
            resolution: cfg.resolution,
            motion: cfg.motion,
            seed: cfg.seed,
            fps: 30.0,
        })
        .clip(cfg.frames)
    });
    Prepared {
        params,
        stream,
        clip,
    }
}

/// `Experiment::run` replayed through the layer crates' public functions,
/// one span per call.
fn run_traced(
    p: &Prepared,
    c: &PaperCell,
    t: &Tracer,
    cell: u64,
    parent: u64,
    counts: &mut ReplayCounts,
) -> ExperimentResult {
    let cfg = &c.cfg;
    let disabled = MetricsRegistry::disabled();
    let mut params = p.params.clone();
    let tcp = match cfg.transport {
        Transport::RtpUdp => None,
        Transport::HttpTcp => {
            params.mac_retries = 7;
            let tcp_loss = 1.0 - p.params.delivery_rate();
            Some(MeteredTcp::new(
                TcpLatencyModel::new(tcp_loss, 0.01),
                &disabled,
            ))
        }
    };
    let sens = cfg.motion.sensitivity_fraction();
    let decoder = RefreshingDecoder::new(cfg.motion.p_refresh_fraction());
    let (rx_printed, eve_printed) = c.figure.prints_quality();

    let mut delays = Vec::with_capacity(cfg.trials);
    let (mut psnr_eve, mut mos_eve, mut psnr_rx, mut mos_rx) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut enc_times = Vec::new();
    let mut q_sum = 0.0;
    for trial in 0..cfg.trials {
        let mut rng = StdRng::seed_from_u64(cfg.seed + 1000 + trial as u64);
        let mut summary = t.span("sim.sender.run", cell, Some(parent), |_| {
            SenderSim::new(&params, cfg.policy).run_metered(&p.stream, &mut rng, &disabled)
        });
        counts.sender_packets += summary.records.len() as u64;
        if let Some(model) = &tcp {
            for r in summary.records.iter_mut() {
                r.service_s += model.sample_extra_delay_s(&mut rng);
            }
            let n = summary.records.len().max(1) as f64;
            summary.mean_delay_s = summary.records.iter().map(|r| r.delay_s()).sum::<f64>() / n;
        }
        delays.push(summary.mean_delay_s);
        enc_times.push(summary.mean_encryption_s);
        q_sum += summary.capture.encrypted_fraction();

        let (rx_flags, eve_flags) = t.span("sim.sender.flags", cell, Some(parent), |_| {
            (
                summary.receiver_frame_flags(cfg.frames, sens),
                summary.eavesdropper_frame_flags(cfg.frames, sens),
            )
        });
        // Same call order as `Experiment::run`: both reconstructions are
        // alive while they are scored, as in the program being measured.
        let rx_rec = t.span("video.quality.reconstruct", cell, Some(parent), |_| {
            decoder.reconstruct(&p.clip, &rx_flags, cfg.gop_size)
        });
        let eve_rec = t.span("video.quality.reconstruct", cell, Some(parent), |_| {
            decoder.reconstruct(&p.clip, &eve_flags, cfg.gop_size)
        });
        let rx_q = t.span("video.quality.score", cell, Some(parent), |_| {
            measure_quality(&p.clip, &rx_rec)
        });
        let eve_q = t.span("video.quality.score", cell, Some(parent), |_| {
            measure_quality(&p.clip, &eve_rec)
        });
        psnr_rx.push(rx_q.psnr_of_mean_mse);
        mos_rx.push(rx_q.score);
        psnr_eve.push(eve_q.psnr_of_mean_mse);
        mos_eve.push(eve_q.score);
        for (flags, printed) in [(&rx_flags, rx_printed), (&eve_flags, eve_printed)] {
            counts.frames_scored += cfg.frames as u64;
            counts.frames_intact += intact_frames(flags, cfg.gop_size);
            if !printed {
                counts.frames_discarded += cfg.frames as u64;
            }
        }
    }
    let load = CryptoLoad::from_stream(&p.stream, cfg.policy);
    ExperimentResult {
        delay_s: Summary::of(&delays),
        psnr_eve_db: Summary::of(&psnr_eve),
        mos_eve: Summary::of(&mos_eve),
        psnr_rx_db: Summary::of(&psnr_rx),
        mos_rx: Summary::of(&mos_rx),
        power_w: cfg.power.power_w(&load),
        encrypted_fraction: q_sum / cfg.trials as f64,
        encryption_s: Summary::of(&enc_times),
    }
}

/// Run a cell through the traced replay: a root `cell` span with one child
/// span per layer call.
pub fn run_cell_traced(c: &PaperCell, t: &Tracer, cell: u64, counts: &mut ReplayCounts) -> CellOut {
    let cfg = c.cfg;
    let policy = cfg.policy;
    t.span("cell", cell, None, |root| {
        let p = prepare_traced(&cfg, t, cell, root);
        counts.frames_rendered += cfg.frames as u64;
        if c.figure == Figure::Fig10_11 {
            let load = CryptoLoad::from_stream(&p.stream, policy);
            return CellOut {
                result: None,
                delay_pred_s: None,
                distortion_pred_db: None,
                power: Some((cfg.power.power_w(&load), cfg.power.relative_increase(&load))),
                events: 0,
            };
        }
        let distortion_pred_db = (c.figure == Figure::Fig4).then(|| {
            let scene = t.span("analytic.distortion.scene_fit", cell, Some(root), |_| {
                SceneDistortion::measure(cfg.motion, 60, 12, 11)
            });
            t.span("analytic.distortion.predict", cell, Some(root), |_| {
                DistortionModel::new(&p.params, &scene)
                    .predict(policy, Observer::Eavesdropper)
                    .psnr_db
            })
        });
        let delay_pred_s = (c.figure == Figure::Fig7_8).then(|| {
            t.span("analytic.delay.predict", cell, Some(root), |_| {
                DelayModel::new(&p.params)
                    .predict(policy)
                    .expect("Table 1 policies are stable at the calibrated load")
                    .mean_delay_s
            })
        });
        let result = run_traced(&p, c, t, cell, root, counts);
        CellOut {
            result: Some(result),
            delay_pred_s,
            distortion_pred_db,
            power: None,
            events: sender_events(&cfg, &p.stream),
        }
    })
}

fn summary_digest(d: &mut Digest, s: &Summary) {
    d.word(s.n as u64).f64(s.mean).f64(s.std_dev).f64(s.ci95);
}

/// Bit-pattern digest of every output value of an experiment result.
pub fn result_digest(r: &ExperimentResult) -> u64 {
    let mut d = Digest::default();
    for s in [
        &r.delay_s,
        &r.psnr_eve_db,
        &r.mos_eve,
        &r.psnr_rx_db,
        &r.mos_rx,
        &r.encryption_s,
    ] {
        summary_digest(&mut d, s);
    }
    d.f64(r.power_w).f64(r.encrypted_fraction);
    d.value()
}

/// Bit-pattern digest of every output value of a cell.
pub fn cell_digest(o: &CellOut) -> u64 {
    let mut d = Digest::default();
    d.word(o.result.as_ref().map_or(0, result_digest));
    for v in [o.delay_pred_s, o.distortion_pred_db] {
        d.f64(v.unwrap_or(f64::NAN));
    }
    let (p, inc) = o.power.unwrap_or((f64::NAN, f64::NAN));
    d.f64(p).f64(inc).word(o.events);
    d.value()
}

/// Plausibility of a cell's values: finite, in range, consistent.
pub fn cell_sane(c: &PaperCell, o: &CellOut) -> Result<(), String> {
    if let Some((p, inc)) = o.power {
        if !(p.is_finite() && p > 0.0 && inc.is_finite() && inc >= 0.0) {
            return Err(format!("power {p} W, increase {inc}"));
        }
    }
    if let Some(r) = &o.result {
        let finite = [
            r.delay_s.mean,
            r.psnr_eve_db.mean,
            r.psnr_rx_db.mean,
            r.mos_eve.mean,
            r.power_w,
        ]
        .iter()
        .all(|v| v.is_finite());
        if !finite || r.delay_s.mean <= 0.0 || r.delay_s.n != c.cfg.trials {
            return Err(format!("implausible result {r:?}"));
        }
        if !(0.0..=1.0).contains(&r.encrypted_fraction) {
            return Err(format!("encrypted fraction {}", r.encrypted_fraction));
        }
        if !(1.0..=5.0).contains(&r.mos_eve.mean) || !(1.0..=5.0).contains(&r.mos_rx.mean) {
            return Err(format!("MOS out of range {r:?}"));
        }
    }
    if c.figure.runs() != o.result.is_some() || o.events == 0 && c.figure.runs() {
        return Err("cell ran the wrong stages".into());
    }
    Ok(())
}

/// The values the cell's figure prints in its row, in column order.
pub fn row_values(c: &PaperCell, o: &CellOut) -> Vec<f64> {
    let r = || o.result.as_ref().expect("running figures carry a result");
    match c.figure {
        Figure::Fig4 => vec![
            o.distortion_pred_db.expect("Figure 4 predicts distortion"),
            r().psnr_eve_db.mean,
            r().psnr_eve_db.ci95,
        ],
        Figure::Fig5 => vec![r().mos_eve.mean, r().mos_eve.ci95],
        Figure::Fig7_8 => vec![
            o.delay_pred_s.expect("Figures 7/8 predict delay") * 1e3,
            r().delay_s.mean * 1e3,
            r().delay_s.ci95 * 1e3,
        ],
        Figure::Fig9 => vec![r().delay_s.mean * 1e3],
        Figure::Table2 => vec![
            r().delay_s.mean * 1e3,
            r().psnr_eve_db.mean,
            r().mos_eve.mean,
        ],
        Figure::Fig10_11 => {
            let (p, inc) = o.power.expect("Figures 10/11 compute power");
            vec![p, inc * 100.0]
        }
        Figure::Fig12_13 => vec![r().delay_s.mean * 1e3, r().delay_s.ci95 * 1e3],
        Figure::Fig14_15 => vec![r().psnr_eve_db.mean, r().mos_eve.mean, r().psnr_rx_db.mean],
    }
}

/// Compare a figure function's table against the same grid evaluated by
/// this benchmark's cells; returns mismatch descriptions.
fn compare_table(name: &str, table: &Table, cells: &[PaperCell]) -> Vec<String> {
    let mut out = Vec::new();
    if table.rows.len() != cells.len() {
        return vec![format!(
            "{name}: {} rows vs {} cells",
            table.rows.len(),
            cells.len()
        )];
    }
    let outs = thrifty_bench::par_map(cells, run_cell);
    for ((row, c), o) in table.rows.iter().zip(cells).zip(&outs) {
        let ours = row_values(c, o);
        let theirs: Vec<f64> = row.values.iter().map(|(_, v)| *v).collect();
        let same = ours.len() == theirs.len()
            && ours
                .iter()
                .zip(&theirs)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            out.push(format!(
                "{name} row {:?}: benchmark {ours:?} vs figure {theirs:?}",
                row.label
            ));
        }
    }
    out
}

/// The figures' own seed (`ExperimentConfig::paper_cell`).
pub const FIGURE_SEED: u64 = 7;

/// Cross-check the benchmark's cells against the `thrifty_bench` figure
/// functions at the figures' own seed, and those figure functions against
/// the pinned golden vectors under `tests/golden/`. Small efforts keep it
/// cheap; it runs once per process, outside the timed phase. Returns
/// `(checks attempted, failures)`.
pub fn cross_check() -> (u64, Vec<String>) {
    use thrifty_bench::{
        fig10_11, fig12_13, fig14_15, fig4, fig5, fig7_8, fig9, golden_effort, table2,
    };
    let g = golden_effort();
    let small = Effort {
        trials: 1,
        frames: 60,
    };
    let s = FIGURE_SEED;
    let mut failures = Vec::new();
    let mut attempted = 0;
    let golden = [
        (
            "fig4_gop30",
            fig4(30, g),
            policy_grid(Figure::Fig4, 30, g, s),
        ),
        (
            "fig5_gop30",
            fig5(30, g),
            policy_grid(Figure::Fig5, 30, g, s),
        ),
        ("table2", table2(g), table2_grid(g, s)),
    ];
    for (name, table, cells) in &golden {
        attempted += 2;
        failures.extend(compare_table(name, table, cells));
        let path = format!("tests/golden/{name}.json");
        match std::fs::read_to_string(&path)
            .ok()
            .and_then(|s| thrifty_bench::parse_table_json(s.trim_end()))
        {
            Some(parsed) => failures.extend(
                thrifty_bench::diff_against_golden(&parsed, table)
                    .into_iter()
                    .map(|d| format!("{name} vs golden: {d}")),
            ),
            None => failures.push(format!("{path}: missing or unparseable golden")),
        }
    }
    let others = [
        (
            "fig7",
            fig7_8(SAMSUNG.0, SAMSUNG.1, small),
            delay_grid(Figure::Fig7_8, SAMSUNG, small, s),
        ),
        ("fig9", fig9(small), fig9_grid(small, s)),
        (
            "fig11",
            fig10_11(HTC.1, small),
            fig10_11_grid(HTC.1, small, s),
        ),
        (
            "fig13",
            fig12_13(HTC.0, HTC.1, small),
            delay_grid(Figure::Fig12_13, HTC, small, s),
        ),
        (
            "fig14_15_gop50",
            fig14_15(50, small),
            policy_grid(Figure::Fig14_15, 50, small, s),
        ),
    ];
    for (name, table, cells) in &others {
        attempted += 1;
        failures.extend(compare_table(name, table, cells));
    }
    (attempted, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_the_union_of_the_reproduce_all_figures() {
        let g = grid(paper_effort(), 7);
        // 16 (fig4) + 16 (fig5) + 64 (fig7/8) + 36 (fig9) + 7 (table2)
        // + 64 (fig10/11) + 64 (fig12/13) + 16 (fig14/15).
        assert_eq!(g.len(), 283);
        assert!(g
            .iter()
            .all(|c| c.cfg.frames == 300 && c.cfg.trials == 10 && c.cfg.seed == 7));
    }

    #[test]
    fn dispatch_order_is_a_permutation() {
        for n in [1, 2, 10, 283, 300] {
            let mut o = dispatch_order(n);
            o.sort_unstable();
            assert_eq!(o, (0..n).collect::<Vec<_>>());
        }
    }

    /// The traced replay must compute exactly what `Experiment::prepare` +
    /// `run` compute, or the trace would be measuring a different program.
    #[test]
    fn replay_matches_experiment() {
        let effort = Effort {
            trials: 2,
            frames: 60,
        };
        let mut cells = Vec::new();
        for seed in [7, 31] {
            let udp = policy_grid(Figure::Fig4, 30, effort, seed);
            let tcp = policy_grid(Figure::Fig14_15, 50, effort, seed);
            cells.extend([udp[1], udp[6], tcp[2], tcp[7]]);
            cells.push(table2_grid(effort, seed)[3]);
            cells.push(delay_grid(Figure::Fig12_13, HTC, effort, seed)[9]);
        }
        assert!(cells.iter().any(|c| c.cfg.transport == Transport::RtpUdp));
        assert!(cells.iter().any(|c| c.cfg.transport == Transport::HttpTcp));
        let t = Tracer::default();
        for (i, c) in cells.iter().enumerate() {
            let real = Experiment::prepare(c.cfg).run();
            let mut counts = ReplayCounts::default();
            let traced = run_cell_traced(c, &t, i as u64, &mut counts);
            let replayed = traced.result.as_ref().expect("replayed cells run");
            assert_eq!(
                result_digest(replayed),
                result_digest(&real),
                "cell {i}: {:?}",
                c.cfg
            );
            assert_eq!(replayed.delay_s.mean.to_bits(), real.delay_s.mean.to_bits());
            assert_eq!(
                replayed.psnr_eve_db.mean.to_bits(),
                real.psnr_eve_db.mean.to_bits()
            );
            assert_eq!(
                replayed.psnr_rx_db.mean.to_bits(),
                real.psnr_rx_db.mean.to_bits()
            );
            assert_eq!(cell_digest(&traced), cell_digest(&run_cell(c)), "cell {i}");
            assert_eq!(counts.frames_scored, 2 * 2 * 60);
        }
    }

    #[test]
    fn intact_frames_follow_the_gop_chain() {
        // GOP 3: I lost → whole GOP broken; P lost → rest of GOP broken.
        let flags = [false, true, true, true, false, true, true, true, true];
        assert_eq!(intact_frames(&flags, 3), 1 + 3);
    }
}
