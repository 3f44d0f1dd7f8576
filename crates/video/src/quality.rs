//! Video quality measurement — the EvalVid substitute.
//!
//! Implements the paper's decoder/concealment model (Section 4.3.2) and the
//! two quality metrics of the evaluation: **PSNR** (eq. 28) and the
//! **Mean Opinion Score** as EvalVid derives it (per-frame PSNR mapped to a
//! 1–5 class, averaged over the clip — this is why the paper reports
//! fractional MOS values like 1.26 in Table 2).

use crate::yuv::{luma_sse, psnr_from_mse, Resolution, YuvFrame, SSE_CHUNK};
use crate::{gop_position, FrameType};
use std::collections::BTreeMap;

/// Re-export of eq. (28): PSNR in dB from a mean-square error.
pub fn psnr_db(mse: f64) -> f64 {
    psnr_from_mse(mse)
}

/// EvalVid's PSNR→MOS class mapping.
///
/// | PSNR (dB) | MOS |
/// |-----------|-----|
/// | > 37      | 5   |
/// | 31–37     | 4   |
/// | 25–31     | 3   |
/// | 20–25     | 2   |
/// | < 20      | 1   |
pub fn mos_class(psnr: f64) -> u8 {
    if psnr > 37.0 {
        5
    } else if psnr > 31.0 {
        4
    } else if psnr > 25.0 {
        3
    } else if psnr > 20.0 {
        2
    } else {
        1
    }
}

/// Aggregate quality of a reconstructed clip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mos {
    /// Mean of per-frame MOS classes (1.0..=5.0).
    pub score: f64,
    /// Mean of per-frame PSNR values, dB.
    pub mean_psnr: f64,
    /// PSNR of the mean MSE (the paper's eq. 28 applied to average
    /// distortion) — the quantity plotted in Figures 4 and 14.
    pub psnr_of_mean_mse: f64,
    /// Mean per-frame luma MSE.
    pub mean_mse: f64,
}

/// Compute [`Mos`] between an original clip and its reconstruction.
///
/// # Panics
/// If the clips have different lengths or are empty.
pub fn measure_quality(original: &[YuvFrame], reconstructed: &[YuvFrame]) -> Mos {
    assert_eq!(original.len(), reconstructed.len(), "clip length mismatch");
    assert!(!original.is_empty(), "cannot measure an empty clip");
    let mut sum = QualitySum::default();
    for (a, b) in original.iter().zip(reconstructed.iter()) {
        sum.add(a.mse(b));
    }
    sum.finish()
}

/// Running per-frame sums behind [`Mos`], added in frame order.
#[derive(Default)]
struct QualitySum {
    mse: f64,
    psnr: f64,
    class: f64,
    frames: usize,
}

impl QualitySum {
    fn add(&mut self, mse: f64) {
        let psnr = psnr_from_mse(mse);
        self.mse += mse;
        self.psnr += psnr;
        self.class += mos_class(psnr) as f64;
        self.frames += 1;
    }

    fn finish(self) -> Mos {
        let n = self.frames as f64;
        Mos {
            score: self.class / n,
            mean_psnr: self.psnr / n,
            psnr_of_mean_mse: psnr_from_mse(self.mse / n),
            mean_mse: self.mse / n,
        }
    }
}

/// The paper's predictive-decoding concealment model.
///
/// Within a GOP: once a frame is unrecoverable, it **and every successor in
/// the GOP** are replaced by the last correctly decoded frame. If the GOP's
/// I-frame is unrecoverable the whole GOP is replaced by the most recent
/// good frame of any previous GOP; if no frame was ever received the decoder
/// shows black.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConcealingDecoder;

impl ConcealingDecoder {
    /// Reconstruct a clip.
    ///
    /// `received[f]` says whether frame `f` was received *and decodable*
    /// (all required packets present and decryptable). `original` provides
    /// the pixels of correctly decoded frames (our toy codec is lossless).
    ///
    /// # Panics
    /// If lengths differ or `gop_size == 0`.
    pub fn reconstruct(
        &self,
        original: &[YuvFrame],
        received: &[bool],
        gop_size: usize,
    ) -> Vec<YuvFrame> {
        RefreshingDecoder::new(0.0).reconstruct(original, received, gop_size)
    }

    /// Score the reconstruction without building it (same contract as
    /// [`RefreshingDecoder::score`]).
    pub fn score(&self, original: &[YuvFrame], received: &[bool], gop_size: usize) -> Mos {
        RefreshingDecoder::new(0.0).score(original, received, gop_size)
    }
}

/// Frame type of frame `f` (IPP…P structure) — convenience for callers
/// mapping packet losses to frame losses.
pub fn frame_type_of(f: usize, gop_size: usize) -> FrameType {
    crate::frame_type_at(f, gop_size)
}

/// Concealment decoder with P-frame intra-refresh.
///
/// Real P slices contain intra-coded macroblocks, so a decoder that misses
/// the GOP's I-frame but keeps receiving P-frames progressively repaints
/// the picture — the reason the paper's fast-motion eavesdropper still saw
/// recognisable content under the I-only policy (Table 2's MOS 1.71) while
/// a slow-motion eavesdropper saw nothing. `refresh_fraction` is the
/// fraction of the picture a decoded-but-referenceless frame repaints
/// (take it from [`MotionLevel::p_refresh_fraction`]); 0.0 is
/// [`ConcealingDecoder`].
///
/// [`MotionLevel::p_refresh_fraction`]: crate::motion::MotionLevel::p_refresh_fraction
#[derive(Debug, Clone, Copy)]
pub struct RefreshingDecoder {
    /// Picture fraction repainted per decoded chain-broken frame.
    pub refresh_fraction: f64,
}

impl RefreshingDecoder {
    /// Build a decoder; the fraction must be in [0, 1].
    pub fn new(refresh_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&refresh_fraction),
            "refresh fraction must be in [0, 1]"
        );
        RefreshingDecoder { refresh_fraction }
    }

    /// Reconstruct a clip (same contract as [`ConcealingDecoder::reconstruct`]).
    pub fn reconstruct(
        &self,
        original: &[YuvFrame],
        received: &[bool],
        gop_size: usize,
    ) -> Vec<YuvFrame> {
        let steps = self.steps(original.len(), received, gop_size);
        let mut table = None;
        let mut out: Vec<YuvFrame> = Vec::with_capacity(original.len());
        for (frame, step) in original.iter().zip(steps) {
            let shown = if step == Step::Intact {
                frame.clone()
            } else {
                // The screen keeps the last picture it showed (black if
                // none), repainted by whatever a received frame refreshes.
                let mut stale = out
                    .last()
                    .cloned()
                    .unwrap_or_else(|| YuvFrame::black(frame.resolution));
                if step == Step::Refreshed {
                    self.table(&mut table).blend(&mut stale.y, &frame.y);
                }
                stale
            };
            out.push(shown);
        }
        out
    }

    /// Score a clip's reconstruction without building it:
    /// `measure_quality(original, &self.reconstruct(original, received, gop_size))`,
    /// bit for bit. The one-shot form of [`scorer`](Self::scorer).
    ///
    /// # Panics
    /// If lengths differ, `gop_size == 0`, the clip is empty or its frames
    /// differ in resolution where a picture is compared.
    pub fn score(&self, original: &[YuvFrame], received: &[bool], gop_size: usize) -> Mos {
        self.scorer(original, gop_size).score(received)
    }

    /// A scorer for any number of loss patterns of one clip at one GOP
    /// size. It builds the blend table and each frame's luma range once,
    /// and scores each distinct flag vector once.
    pub fn scorer<'a>(&self, original: &'a [YuvFrame], gop_size: usize) -> ClipScorer<'a> {
        ClipScorer {
            decoder: *self,
            original,
            gop_size,
            table: None,
            ranges: vec![None; original.len()],
            scratch: Vec::new(),
            memo: BTreeMap::new(),
        }
    }

    /// The GOP-chain walk both [`reconstruct`](Self::reconstruct) and
    /// [`score`](Self::score) decode with: what the screen shows for each
    /// frame.
    fn steps<'a>(
        &self,
        frames: usize,
        received: &'a [bool],
        gop_size: usize,
    ) -> impl Iterator<Item = Step> + 'a {
        assert_eq!(frames, received.len(), "flag/frame length mismatch");
        assert!(gop_size > 0, "GOP size must be positive");
        let refreshes = self.refresh_fraction > 0.0;
        let mut gop_broken = false;
        received.iter().enumerate().map(move |(f, &ok)| {
            if gop_position(f, gop_size).index_in_gop == 0 {
                // New GOP: the chain resets; an I-frame is independently
                // decodable, so only its own reception matters.
                gop_broken = !ok;
            } else if !ok {
                gop_broken = true;
            }
            if !gop_broken {
                Step::Intact
            } else if ok && refreshes {
                Step::Refreshed
            } else {
                Step::Frozen
            }
        })
    }

    /// This decoder's blend table, built on first use.
    fn table<'t>(&self, table: &'t mut Option<BlendTable>) -> &'t BlendTable {
        table.get_or_insert_with(|| BlendTable::new(self.refresh_fraction))
    }
}

/// What the decoder shows for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// The GOP chain is intact: the frame itself.
    Intact,
    /// The chain is broken: the last picture shown, unchanged.
    Frozen,
    /// The chain is broken but the frame arrived: the last picture shown,
    /// repainted by its intra refresh.
    Refreshed,
}

/// Scores loss patterns of one clip under one [`RefreshingDecoder`] and GOP
/// size, each equal bit for bit to measuring the decoder's reconstruction.
///
/// Intact frames score MSE 0 without a pixel compared; a frozen frame is
/// compared with the original frame it repeats, or with the one scratch
/// luma plane that holds black or a blended picture. A refreshed frame
/// blends into that plane and sums its squared error in the same pass,
/// unless every pixel of it and of the shown picture lies within the blend
/// table's still span of each other: then the blend changes nothing, and
/// the frame is scored as frozen. A flag vector scored before returns its
/// earlier [`Mos`].
pub struct ClipScorer<'a> {
    decoder: RefreshingDecoder,
    original: &'a [YuvFrame],
    gop_size: usize,
    /// The decoder's blend table, built at the first refreshed frame.
    table: Option<BlendTable>,
    /// Each original frame's luma range, computed at first use.
    ranges: Vec<Option<LumaRange>>,
    scratch: Vec<u8>,
    memo: BTreeMap<Vec<bool>, Mos>,
}

impl ClipScorer<'_> {
    /// `measure_quality(original, &decoder.reconstruct(original, received,
    /// gop_size))` for the scorer's clip, decoder and GOP size.
    ///
    /// # Panics
    /// As [`RefreshingDecoder::score`].
    pub fn score(&mut self, received: &[bool]) -> Mos {
        if let Some(&mos) = self.memo.get(received) {
            return mos;
        }
        let mos = self.measure(received);
        self.memo.insert(received.to_vec(), mos);
        mos
    }

    fn measure(&mut self, received: &[bool]) -> Mos {
        let original = self.original;
        let steps = self.decoder.steps(original.len(), received, self.gop_size);
        assert!(!original.is_empty(), "cannot measure an empty clip");
        let mut shown = None;
        let mut sum = QualitySum::default();
        for ((f, frame), step) in original.iter().enumerate().zip(steps) {
            if step == Step::Intact {
                shown = Some(Shown::Frame(f));
                sum.add(0.0);
                continue;
            }
            let stale = *shown.get_or_insert_with(|| {
                frame.resolution.assert_420();
                self.scratch.clear();
                self.scratch.resize(frame.resolution.luma_len(), 16);
                Shown::Scratch(frame.resolution, Some(LumaRange { lo: 16, hi: 16 }))
            });
            let mse = if step == Step::Refreshed && !self.still(f, stale) {
                let resolution = match stale {
                    Shown::Frame(k) => {
                        self.scratch.clear();
                        self.scratch.extend_from_slice(&original[k].y);
                        original[k].resolution
                    }
                    Shown::Scratch(resolution, _) => resolution,
                };
                shown = Some(Shown::Scratch(resolution, None));
                let table = self.decoder.table(&mut self.table);
                frame.mse_with(resolution, |y| table.blend(&mut self.scratch, y))
            } else {
                match stale {
                    Shown::Frame(k) => frame.mse(&original[k]),
                    Shown::Scratch(resolution, _) => {
                        frame.mse_with(resolution, |y| luma_sse(y, &self.scratch))
                    }
                }
            };
            sum.add(mse);
        }
        sum.finish()
    }

    /// Whether refreshing the picture `stale` with frame `f` leaves it
    /// unchanged: every pair of their pixels lies within the still span.
    fn still(&mut self, f: usize, stale: Shown) -> bool {
        let Some(span) = self.decoder.table(&mut self.table).still_span else {
            return false;
        };
        let stale = match stale {
            Shown::Frame(k) => Some(self.range(k)),
            Shown::Scratch(_, range) => range,
        };
        // The frame's range is only read once the picture's own fits.
        stale.is_some_and(|r| r.spread() <= span && r.union(self.range(f)).spread() <= span)
    }

    fn range(&mut self, k: usize) -> LumaRange {
        let y = &self.original[k].y;
        *self.ranges[k].get_or_insert_with(|| LumaRange::of(y))
    }
}

/// The picture on screen while a [`ClipScorer`] streams a clip.
#[derive(Debug, Clone, Copy)]
enum Shown {
    /// Frame `k` of the original clip.
    Frame(usize),
    /// The scratch luma plane at this resolution, with its luma range while
    /// it holds black (a blended picture's range is not tracked).
    Scratch(Resolution, Option<LumaRange>),
}

/// The smallest and largest sample of a luma plane.
#[derive(Debug, Clone, Copy)]
struct LumaRange {
    lo: u8,
    hi: u8,
}

impl LumaRange {
    fn of(y: &[u8]) -> Self {
        LumaRange {
            lo: y.iter().copied().min().unwrap_or(0),
            hi: y.iter().copied().max().unwrap_or(0),
        }
    }

    /// The largest difference between two samples in the range.
    fn spread(self) -> u8 {
        self.hi - self.lo
    }

    fn union(self, other: LumaRange) -> LumaRange {
        LumaRange {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }
}

/// [`blend_px`] for every `(base, target)` pair at one refresh fraction.
struct BlendTable {
    /// The blended sample at `(base << 8) | target`, widened to `u32` so
    /// that [`blend`](Self::blend) compiles to 32-bit vector gathers (there
    /// is no byte gather).
    px: Box<[u32; 1 << 16]>,
    /// The largest `d` with `at(b, t) == b` whenever `|t − b| ≤ d`, read
    /// from the table itself (`None` if even `t == b` can move a sample).
    still_span: Option<u8>,
}

impl BlendTable {
    fn new(w: f64) -> Self {
        let mut px: Box<[u32; 1 << 16]> = vec![0; 1 << 16]
            .into_boxed_slice()
            .try_into()
            .expect("65536 entries");
        for (i, px) in px.iter_mut().enumerate() {
            *px = blend_px((i >> 8) as u8, i as u8, w).into();
        }
        let mut table = BlendTable {
            px,
            still_span: None,
        };
        table.still_span = (0..=255u8)
            .take_while(|&d| {
                (0..=255 - d).all(|lo| {
                    let hi = lo + d;
                    table.at(lo, hi) == lo && table.at(hi, lo) == hi
                })
            })
            .last();
        table
    }

    /// The blend of `base` toward `target`.
    fn at(&self, base: u8, target: u8) -> u8 {
        self.px[blend_index(base, target)] as u8
    }

    /// In-place luma blend `base ← base·(1−w) + target·w`; returns the sum
    /// of squared differences between the blended plane and `target`,
    /// summed per [`SSE_CHUNK`] like [`luma_sse`].
    fn blend(&self, base: &mut [u8], target: &[u8]) -> u64 {
        let mut total = 0u64;
        for (cb, ct) in base.chunks_mut(SSE_CHUNK).zip(target.chunks(SSE_CHUNK)) {
            let mut chunk = 0u32;
            for (b, &t) in cb.iter_mut().zip(ct) {
                let px = self.px[blend_index(*b, t)];
                *b = px as u8;
                let d = t as i32 - px as i32;
                chunk += (d * d) as u32;
            }
            total += chunk as u64;
        }
        total
    }
}

/// Where the blend of `base` toward `target` sits in a [`BlendTable`]. The
/// index is formed in 32 bits so that the gathers take 32-bit lanes.
fn blend_index(base: u8, target: u8) -> usize {
    (u32::from(base) << 8 | u32::from(target)) as usize
}

/// One refreshed luma sample: `base·(1−w) + target·w`, rounded.
fn blend_px(base: u8, target: u8, w: f64) -> u8 {
    ((base as f64) * (1.0 - w) + (target as f64) * w)
        .round()
        .clamp(0.0, 255.0) as u8
}

/// Measure the Figure 2 curve: mean luma MSE between each frame and the
/// frame `d` positions earlier, for `d in 1..=max_distance`.
///
/// This is exactly the paper's procedure of "artificially creating video
/// frame losses in order to achieve reference frame substitutions from
/// various distances" and measuring the resulting distortion.
pub fn distortion_vs_distance(clip: &[YuvFrame], max_distance: usize) -> Vec<f64> {
    assert!(
        clip.len() > max_distance,
        "clip too short for requested distance"
    );
    (1..=max_distance)
        .map(|d| {
            let mut acc = 0.0;
            let mut count = 0usize;
            for i in d..clip.len() {
                acc += clip[i].mse(&clip[i - d]);
                count += 1;
            }
            acc / count as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{SceneConfig, SceneGenerator};
    use crate::yuv::Resolution;
    use crate::MotionLevel;

    fn clip(motion: MotionLevel, n: usize) -> Vec<YuvFrame> {
        SceneGenerator::new(SceneConfig::qcif(motion, 21)).clip(n)
    }

    #[test]
    fn perfect_reception_is_lossless() {
        let original = clip(MotionLevel::Medium, 12);
        let received = vec![true; 12];
        let rec = ConcealingDecoder.reconstruct(&original, &received, 6);
        assert_eq!(rec, original);
        let q = measure_quality(&original, &rec);
        assert_eq!(q.score, 5.0);
        assert_eq!(q.mean_mse, 0.0);
        assert_eq!(q.psnr_of_mean_mse, 100.0);
    }

    #[test]
    fn lost_p_frame_freezes_rest_of_gop() {
        let original = clip(MotionLevel::Medium, 12);
        let mut received = vec![true; 12];
        received[3] = false; // frame 3 in GOP 0 (gop_size 6)
        let rec = ConcealingDecoder.reconstruct(&original, &received, 6);
        // Frames 0..3 intact, 3..6 frozen at frame 2, GOP 1 (frames 6..12) intact.
        assert_eq!(rec[2], original[2]);
        assert_eq!(rec[3], original[2]);
        assert_eq!(rec[4], original[2]);
        assert_eq!(rec[5], original[2]);
        assert_eq!(rec[6], original[6]);
    }

    #[test]
    fn received_frame_after_loss_is_still_frozen() {
        // Predictive chain is broken: receiving frame 4 does not help once
        // frame 3 is gone.
        let original = clip(MotionLevel::Medium, 6);
        let mut received = vec![true; 6];
        received[3] = false;
        let rec = ConcealingDecoder.reconstruct(&original, &received, 6);
        assert_eq!(rec[4], original[2]);
    }

    #[test]
    fn lost_i_frame_freezes_whole_gop_at_previous_gop() {
        let original = clip(MotionLevel::Medium, 12);
        let mut received = vec![true; 12];
        received[6] = false; // I-frame of GOP 1
        let rec = ConcealingDecoder.reconstruct(&original, &received, 6);
        for (f, frame) in rec.iter().enumerate().skip(6) {
            assert_eq!(*frame, original[5], "frame {f} must freeze at frame 5");
        }
    }

    #[test]
    fn nothing_received_shows_black() {
        let original = clip(MotionLevel::Low, 6);
        let received = vec![false; 6];
        let rec = ConcealingDecoder.reconstruct(&original, &received, 6);
        let black = YuvFrame::black(Resolution::QCIF);
        for f in rec {
            assert_eq!(f, black);
        }
    }

    #[test]
    fn next_gop_recovers_after_disaster() {
        let original = clip(MotionLevel::Medium, 12);
        let mut received = vec![false; 12];
        for r in received.iter_mut().skip(6) {
            *r = true;
        }
        let rec = ConcealingDecoder.reconstruct(&original, &received, 6);
        for f in 6..12 {
            assert_eq!(rec[f], original[f]);
        }
    }

    #[test]
    fn mos_class_boundaries() {
        assert_eq!(mos_class(40.0), 5);
        assert_eq!(mos_class(37.0), 4);
        assert_eq!(mos_class(31.0), 3);
        assert_eq!(mos_class(25.0), 2);
        assert_eq!(mos_class(20.0), 1);
        assert_eq!(mos_class(5.0), 1);
    }

    #[test]
    fn distortion_grows_with_distance_and_motion() {
        let slow = clip(MotionLevel::Low, 40);
        let fast = clip(MotionLevel::High, 40);
        let d_slow = distortion_vs_distance(&slow, 4);
        let d_fast = distortion_vs_distance(&fast, 4);
        // Monotone (at least non-strictly) in distance.
        for w in d_fast.windows(2) {
            assert!(w[1] >= w[0] * 0.9, "fast-motion distortion should grow: {d_fast:?}");
        }
        // Fast motion dominates slow at every distance (Figure 2's ordering).
        for (s, f) in d_slow.iter().zip(d_fast.iter()) {
            assert!(f > s);
        }
    }

    #[test]
    fn freezing_hurts_fast_motion_more() {
        // The same loss pattern must cost more PSNR on a fast clip — the
        // root cause of the paper's slow-vs-fast asymmetry.
        let mut received = vec![true; 12];
        received[2] = false;
        let slow = clip(MotionLevel::Low, 12);
        let fast = clip(MotionLevel::High, 12);
        let q_slow = measure_quality(&slow, &ConcealingDecoder.reconstruct(&slow, &received, 12));
        let q_fast = measure_quality(&fast, &ConcealingDecoder.reconstruct(&fast, &received, 12));
        assert!(q_fast.psnr_of_mean_mse < q_slow.psnr_of_mean_mse);
    }

    #[test]
    #[should_panic(expected = "clip length mismatch")]
    fn mismatched_lengths_panic() {
        let a = clip(MotionLevel::Low, 3);
        let b = clip(MotionLevel::Low, 4);
        measure_quality(&a, &b);
    }

    #[test]
    fn refresh_recovers_picture_without_i_frames() {
        // Every I lost, every P received: with refresh the display converges
        // toward the content; without it the screen stays black.
        let original = clip(MotionLevel::High, 24);
        let received: Vec<bool> = (0..24).map(|f| f % 12 != 0).collect();
        let frozen = ConcealingDecoder.reconstruct(&original, &received, 12);
        let refreshed = RefreshingDecoder::new(0.2).reconstruct(&original, &received, 12);
        let q_frozen = measure_quality(&original, &frozen);
        let q_refreshed = measure_quality(&original, &refreshed);
        assert!(
            q_refreshed.psnr_of_mean_mse > q_frozen.psnr_of_mean_mse + 3.0,
            "refresh {} vs frozen {}",
            q_refreshed.psnr_of_mean_mse,
            q_frozen.psnr_of_mean_mse
        );
        // But it never reaches the intact-chain quality.
        assert!(q_refreshed.psnr_of_mean_mse < 45.0);
    }

    #[test]
    fn refresh_needs_received_frames() {
        // Nothing received: refresh cannot help; screen stays black.
        let original = clip(MotionLevel::High, 8);
        let received = vec![false; 8];
        let rec = RefreshingDecoder::new(0.5).reconstruct(&original, &received, 4);
        let black = YuvFrame::black(Resolution::QCIF);
        assert!(rec.iter().all(|f| *f == black));
    }

    #[test]
    fn blend_table_matches_the_formula_for_every_pair() {
        let fractions = MotionLevel::ALL.map(MotionLevel::p_refresh_fraction);
        for w in fractions.into_iter().chain([0.5, 1.0]) {
            let table = BlendTable::new(w);
            for base in 0..=255u8 {
                for target in 0..=255u8 {
                    let mut px = [base];
                    table.blend(&mut px, &[target]);
                    let expected = ((base as f64) * (1.0 - w) + (target as f64) * w)
                        .round()
                        .clamp(0.0, 255.0) as u8;
                    assert_eq!(px[0], expected, "w={w} base={base} target={target}");
                }
            }
        }
    }

    #[test]
    fn still_span_is_the_identity_region_of_the_table() {
        for (level, span) in MotionLevel::ALL.into_iter().zip([249u8, 9, 3]) {
            let table = BlendTable::new(level.p_refresh_fraction());
            assert_eq!(table.still_span, Some(span), "{level}");
            for base in 0..=255u8 {
                for target in 0..=255u8 {
                    let px = table.at(base, target);
                    if base.abs_diff(target) <= span {
                        assert_eq!(px, base, "{level}: base={base} target={target}");
                    }
                }
            }
            // The span is the largest: some pair one level further apart moves.
            let d = span + 1;
            assert!(
                (0..=255 - d).any(|lo| {
                    let hi = lo + d;
                    table.at(lo, hi) != lo || table.at(hi, lo) != hi
                }),
                "{level}"
            );
        }
    }

    #[test]
    fn blend_matches_the_formula_across_chunk_boundaries() {
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let fractions = MotionLevel::ALL.map(MotionLevel::p_refresh_fraction);
        let lengths = [0, 1, SSE_CHUNK - 1, SSE_CHUNK, SSE_CHUNK + 1];
        for w in fractions.into_iter().chain([0.5, 1.0]) {
            let table = BlendTable::new(w);
            for len in lengths.into_iter().chain([Resolution::QCIF.luma_len()]) {
                let mut random = || (0..len).map(|_| rng.next_u64() as u8).collect::<Vec<_>>();
                let cases = [
                    (random(), random()),
                    (vec![0; len], vec![255; len]),
                    (vec![255; len], vec![0; len]),
                ];
                for (base, target) in cases {
                    let mut blended = base.clone();
                    let sse = table.blend(&mut blended, &target);
                    let mut expected = 0u64;
                    for ((&b, &t), &px) in base.iter().zip(&target).zip(&blended) {
                        assert_eq!(px, blend_px(b, t, w), "w={w} len={len} base={b} target={t}");
                        expected += u64::from(t.abs_diff(px)).pow(2);
                    }
                    assert_eq!(sse, expected, "w={w} len={len}");
                }
            }
        }
    }

    #[test]
    fn score_equals_measuring_the_reconstruction() {
        // Lost first I-frame (black), a refreshed GOP, a frozen P tail and
        // a partial last GOP.
        let original = clip(MotionLevel::High, 23);
        let received: Vec<bool> = (0..23).map(|f| f % 6 != 0 && f != 15).collect();
        let bits =
            |m: Mos| [m.score, m.mean_psnr, m.psnr_of_mean_mse, m.mean_mse].map(f64::to_bits);
        for w in [0.0, 0.13, 1.0] {
            let decoder = RefreshingDecoder::new(w);
            let streamed = decoder.score(&original, &received, 6);
            let measured =
                measure_quality(&original, &decoder.reconstruct(&original, &received, 6));
            assert_eq!(bits(streamed), bits(measured), "w={w}");
        }
    }

    #[test]
    #[should_panic(expected = "MSE needs equal sizes")]
    fn score_rejects_mixed_resolutions() {
        let mut original = clip(MotionLevel::Medium, 4);
        original.push(YuvFrame::black(Resolution::CIF));
        let mut received = vec![true; 5];
        received[2] = false; // frames 2.. freeze at the QCIF frame 1
        RefreshingDecoder::new(0.05).score(&original, &received, 6);
    }

    #[test]
    #[should_panic(expected = "cannot measure an empty clip")]
    fn score_rejects_an_empty_clip() {
        ConcealingDecoder.score(&[], &[], 6);
    }

    #[test]
    #[should_panic(expected = "refresh fraction must be in")]
    fn invalid_refresh_fraction_rejected() {
        RefreshingDecoder::new(1.5);
    }
}
