//! Deterministic synthetic scene generator.
//!
//! Substitutes the paper's YUV CIF reference clips (TU-Berlin EvalVid set).
//! A scene is a pure function of `(seed, frame_number)`: a textured
//! background that can pan globally, plus a set of moving textured blocks.
//! The motion level controls pan speed, object speed and object count, so
//! that (a) the mean frame-to-frame pixel difference — which drives P-frame
//! sizes and the [Figure 2] distortion-vs-distance curves — scales with the
//! configured level, and (b) the whole pipeline stays reproducible
//! bit-for-bit without any video assets.
//!
//! [Figure 2]: crate::quality

use crate::motion::MotionLevel;
use crate::yuv::{Resolution, YuvFrame};

/// SplitMix64 — small deterministic hash used for textures.
#[inline]
fn hash64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Parameters of a synthetic clip.
#[derive(Debug, Clone, Copy)]
pub struct SceneConfig {
    /// Frame resolution (CIF in the paper).
    pub resolution: Resolution,
    /// Nominal motion level; sets speeds and object counts.
    pub motion: MotionLevel,
    /// Seed controlling textures and object trajectories.
    pub seed: u64,
    /// Frames per second (30 in the paper; only recorded, not used here).
    pub fps: f64,
}

impl SceneConfig {
    /// Paper-default clip: CIF, 30 fps.
    pub fn new(motion: MotionLevel, seed: u64) -> Self {
        SceneConfig {
            resolution: Resolution::CIF,
            motion,
            seed,
            fps: 30.0,
        }
    }

    /// Same scene at QCIF for fast tests.
    pub fn qcif(motion: MotionLevel, seed: u64) -> Self {
        SceneConfig {
            resolution: Resolution::QCIF,
            ..SceneConfig::new(motion, seed)
        }
    }
}

struct MovingObject {
    x0: f64,
    y0: f64,
    vx: f64,
    vy: f64,
    w: usize,
    /// The object's textured `w × h` luma patch, row-major; it never
    /// changes, only moves.
    patch: Vec<u8>,
}

impl MovingObject {
    /// Copy the patch into `luma` at the object's position in frame `t`,
    /// wrapping around the frame edges. Rows, and the columns within a
    /// row, are written in order, so where a patch larger than the frame
    /// overlaps itself the later pixel wins.
    fn draw(&self, luma: &mut [u8], res: Resolution, t: usize) {
        // `rem_euclid` can round up to the modulus itself; `%` folds it.
        let cx = (self.x0 + self.vx * t as f64).rem_euclid(res.width as f64) as usize % res.width;
        let cy = (self.y0 + self.vy * t as f64).rem_euclid(res.height as f64) as usize % res.height;
        for (dy, row) in self.patch.chunks_exact(self.w).enumerate() {
            let py = (cy + dy) % res.height;
            let line = &mut luma[py * res.width..(py + 1) * res.width];
            let (head, tail) = row.split_at(row.len().min(res.width - cx));
            line[cx..cx + head.len()].copy_from_slice(head);
            for piece in tail.chunks(res.width) {
                line[..piece.len()].copy_from_slice(piece);
            }
        }
    }
}

/// Background luma of the world columns `x0..x0 + cols`, row-major over
/// the frame's rows.
struct Strip {
    x0: i64,
    cols: usize,
    luma: Vec<u8>,
}

/// Generates frames of a synthetic clip on demand.
pub struct SceneGenerator {
    config: SceneConfig,
    objects: Vec<MovingObject>,
    /// Background pan speed in pixels per frame.
    pan_speed: f64,
}

impl SceneGenerator {
    /// Build a generator for `config`.
    pub fn new(config: SceneConfig) -> Self {
        let (pan_speed, obj_speed, n_objects) = match config.motion {
            MotionLevel::Low => (0.0, 0.6, 3),
            MotionLevel::Medium => (0.5, 2.5, 5),
            MotionLevel::High => (2.5, 7.0, 8),
        };
        let w = config.resolution.width as f64;
        let h = config.resolution.height as f64;
        let objects = (0..n_objects)
            .map(|i| {
                let r = |k: u64| hash64(config.seed ^ (i as u64) << 8 ^ k) as f64 / u64::MAX as f64;
                let angle = r(1) * std::f64::consts::TAU;
                let (ow, oh) = ((16.0 + r(5) * 48.0) as usize, (16.0 + r(6) * 48.0) as usize);
                let tone = (60.0 + r(7) * 160.0) as u8;
                let patch = (0..oh)
                    .flat_map(|dy| (0..ow).map(move |dx| (dx, dy)))
                    .map(|(dx, dy)| {
                        // Light texture inside the object so it is not flat.
                        let tex = (hash64((dx as u64) << 32 | dy as u64) & 0x0f) as u8;
                        tone.saturating_add(tex).clamp(16, 235)
                    })
                    .collect();
                MovingObject {
                    x0: r(2) * w,
                    y0: r(3) * h,
                    vx: angle.cos() * obj_speed * (0.5 + r(4)),
                    vy: angle.sin() * obj_speed * (0.5 + r(4)),
                    w: ow,
                    patch,
                }
            })
            .collect();
        SceneGenerator {
            config,
            objects,
            pan_speed,
        }
    }

    /// The configuration this generator was built with.
    pub fn config(&self) -> &SceneConfig {
        &self.config
    }

    /// Background luma at world coordinates — a smooth gradient plus a
    /// static hash texture, so panning produces genuine pixel change.
    #[inline]
    fn background(&self, wx: i64, wy: i64) -> u8 {
        let coarse = ((wx / 16).wrapping_add(wy / 16)) as u64;
        let texture = (hash64(self.config.seed ^ coarse.wrapping_mul(0x51f3)) & 0x1f) as i64;
        let grad = wx.rem_euclid(512) / 4 + wy.rem_euclid(512) / 4;
        (40 + (grad % 120) + texture).clamp(16, 235) as u8
    }

    /// The first world column frame `t` shows; never decreases with `t`.
    fn pan(&self, t: usize) -> i64 {
        (self.pan_speed * t as f64) as i64
    }

    /// Render the background of world columns `x0..x0 + cols`.
    fn strip(&self, x0: i64, cols: usize) -> Strip {
        let mut luma = Vec::with_capacity(cols * self.config.resolution.height);
        for wy in 0..self.config.resolution.height as i64 {
            luma.extend((x0..x0 + cols as i64).map(|wx| self.background(wx, wy)));
        }
        Strip { x0, cols, luma }
    }

    /// Frame `t`: its view of `background`, which must cover it, with the
    /// moving blocks drawn on top in order.
    fn render(&self, t: usize, background: &Strip) -> YuvFrame {
        let res = self.config.resolution;
        let mut f = YuvFrame::black(res);
        let offset = (self.pan(t) - background.x0) as usize;
        for (row, src) in
            f.y.chunks_exact_mut(res.width)
                .zip(background.luma.chunks_exact(background.cols))
        {
            row.copy_from_slice(&src[offset..offset + res.width]);
        }
        for obj in &self.objects {
            obj.draw(&mut f.y, res, t);
        }
        f
    }

    /// Render frame number `t` (pure: same `t` always yields the same
    /// frame). Only the frame's own columns are rendered, so a late frame
    /// costs no more than an early one.
    pub fn frame(&self, t: usize) -> YuvFrame {
        let res = self.config.resolution;
        self.render(t, &self.strip(self.pan(t), res.width))
    }

    /// Render frames `0..n` as a clip, equal to `frame(0)..frame(n - 1)`.
    /// The background is rendered once, as the strip of every column the
    /// clip pans across, and each frame copies its view of it.
    pub fn clip(&self, n: usize) -> Vec<YuvFrame> {
        let Some(last) = n.checked_sub(1) else {
            return Vec::new();
        };
        let cols = self.pan(last) as usize + self.config.resolution.width;
        let background = self.strip(0, cols);
        (0..n).map(|t| self.render(t, &background)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::motion::MotionAnalyzer;

    #[test]
    fn frames_are_deterministic() {
        let g1 = SceneGenerator::new(SceneConfig::qcif(MotionLevel::Medium, 42));
        let g2 = SceneGenerator::new(SceneConfig::qcif(MotionLevel::Medium, 42));
        assert_eq!(g1.frame(7), g2.frame(7));
    }

    #[test]
    fn different_seeds_differ() {
        let g1 = SceneGenerator::new(SceneConfig::qcif(MotionLevel::Medium, 1));
        let g2 = SceneGenerator::new(SceneConfig::qcif(MotionLevel::Medium, 2));
        assert_ne!(g1.frame(0), g2.frame(0));
    }

    #[test]
    fn motion_amount_orders_with_level() {
        let analyzer = MotionAnalyzer::default();
        let mut amounts = Vec::new();
        for level in MotionLevel::ALL {
            let g = SceneGenerator::new(SceneConfig::qcif(level, 11));
            let clip = g.clip(10);
            amounts.push(analyzer.motion_amount(&clip));
        }
        assert!(
            amounts[0] < amounts[1] && amounts[1] < amounts[2],
            "motion amounts must be increasing: {amounts:?}"
        );
    }

    #[test]
    fn presets_classify_to_their_nominal_levels() {
        let analyzer = MotionAnalyzer::default();
        for level in MotionLevel::ALL {
            let g = SceneGenerator::new(SceneConfig::qcif(level, 5));
            let clip = g.clip(12);
            assert_eq!(analyzer.classify(&clip), level, "preset {level}");
        }
    }

    #[test]
    fn high_motion_moves_more_than_low_between_distant_frames() {
        let low = SceneGenerator::new(SceneConfig::qcif(MotionLevel::Low, 9));
        let high = SceneGenerator::new(SceneConfig::qcif(MotionLevel::High, 9));
        let d_low = low.frame(0).mse(&low.frame(4));
        let d_high = high.frame(0).mse(&high.frame(4));
        assert!(d_high > d_low);
    }

    /// 64-bit FNV-1a over the luma planes of a clip, in frame order.
    fn luma_digest(clip: &[YuvFrame]) -> u64 {
        clip.iter()
            .flat_map(|f| f.y.iter())
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
            })
    }

    #[test]
    fn paper_clips_are_pinned() {
        // The 300-frame QCIF clips every paper figure scores at seed 7.
        let pinned = [
            (MotionLevel::Low, 0x3753_472f_3d10_3b84),
            (MotionLevel::High, 0x0cbd_f2dd_c483_5907),
        ];
        for (level, expected) in pinned {
            let clip = SceneGenerator::new(SceneConfig::qcif(level, 7)).clip(300);
            let digest = luma_digest(&clip);
            assert_eq!(digest, expected, "{level}: {digest:#018x}");
        }
    }

    /// Frame `t` drawn pixel by pixel: every background sample hashed in
    /// place, every object pixel written at its wrapped position.
    fn reference_frame(g: &SceneGenerator, t: usize) -> YuvFrame {
        let res = g.config.resolution;
        let mut f = YuvFrame::black(res);
        let pan = (g.pan_speed * t as f64) as i64;
        for y in 0..res.height {
            for x in 0..res.width {
                f.set_luma(x, y, g.background(x as i64 + pan, y as i64));
            }
        }
        for obj in &g.objects {
            let cx = (obj.x0 + obj.vx * t as f64).rem_euclid(res.width as f64) as usize;
            let cy = (obj.y0 + obj.vy * t as f64).rem_euclid(res.height as f64) as usize;
            for (i, &v) in obj.patch.iter().enumerate() {
                let (dx, dy) = (i % obj.w, i / obj.w);
                f.set_luma((cx + dx) % res.width, (cy + dy) % res.height, v);
            }
        }
        f
    }

    #[test]
    fn clip_frames_and_reference_agree() {
        // 32×24 is narrower and shorter than most objects, so patches wrap
        // onto themselves; t = 12345 pans tens of thousands of columns.
        let tiny = Resolution {
            width: 32,
            height: 24,
        };
        for level in MotionLevel::ALL {
            for seed in [0, 7, u64::MAX] {
                for (resolution, clip_len) in [
                    (tiny, 12_346),
                    (Resolution::QCIF, 40),
                    (Resolution::CIF, 12),
                ] {
                    let g = SceneGenerator::new(SceneConfig {
                        resolution,
                        ..SceneConfig::new(level, seed)
                    });
                    let clip = g.clip(clip_len);
                    assert_eq!(clip.len(), clip_len);
                    for (t, frame) in clip.iter().enumerate() {
                        assert!(
                            *frame == g.frame(t),
                            "{level} {resolution:?} seed {seed} t {t}"
                        );
                    }
                    for t in [0, 1, clip_len - 1, 299, 4_321, 12_345] {
                        assert!(
                            g.frame(t) == reference_frame(&g, t),
                            "{level} {resolution:?} seed {seed} t {t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn luma_stays_in_video_range() {
        let g = SceneGenerator::new(SceneConfig::qcif(MotionLevel::High, 3));
        let f = g.frame(5);
        assert!(f.y.iter().all(|&b| (16..=235).contains(&b)));
    }
}
