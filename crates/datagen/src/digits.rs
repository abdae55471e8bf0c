//! Procedural MNIST-like digit rendering.
//!
//! Each digit class has a 7×5 glyph; rendering upscales it to 28×28,
//! applies a random sub-cell offset, per-pixel intensity jitter, and
//! background noise. The task is learnable to ≈98–99% by LeNet-class
//! models, matching the regime the paper reports on MNIST.

use dsz_nn::Dataset;
use dsz_tensor::VolShape;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 7 rows × 5 cols glyphs for digits 0–9.
const GLYPHS: [[&str; 7]; 10] = [
    [
        " ### ", "#   #", "#  ##", "# # #", "##  #", "#   #", " ### ",
    ], // 0
    [
        "  #  ", " ##  ", "  #  ", "  #  ", "  #  ", "  #  ", " ### ",
    ], // 1
    [
        " ### ", "#   #", "    #", "   # ", "  #  ", " #   ", "#####",
    ], // 2
    [
        " ### ", "#   #", "    #", "  ## ", "    #", "#   #", " ### ",
    ], // 3
    [
        "   # ", "  ## ", " # # ", "#  # ", "#####", "   # ", "   # ",
    ], // 4
    [
        "#####", "#    ", "#### ", "    #", "    #", "#   #", " ### ",
    ], // 5
    [
        " ### ", "#    ", "#    ", "#### ", "#   #", "#   #", " ### ",
    ], // 6
    [
        "#####", "    #", "   # ", "  #  ", "  #  ", " #   ", " #   ",
    ], // 7
    [
        " ### ", "#   #", "#   #", " ### ", "#   #", "#   #", " ### ",
    ], // 8
    [
        " ### ", "#   #", "#   #", " ####", "    #", "    #", " ### ",
    ], // 9
];

/// Image side length.
pub const SIDE: usize = 28;

/// Renders one sample of `class` into a 784-long buffer.
pub fn render_digit(class: usize, rng: &mut StdRng, out: &mut [f32]) {
    assert!(class < 10, "digit class out of range");
    assert_eq!(out.len(), SIDE * SIDE);
    out.fill(0.0);
    let glyph = &GLYPHS[class];
    // Glyph cell size 3×4 → 15×28 wide body placed with random offset.
    let cell_h = 3usize;
    let cell_w = 4usize;
    let body_h = 7 * cell_h; // 21
    let body_w = 5 * cell_w; // 20
    let oy = rng.gen_range(0..=(SIDE - body_h));
    let ox = rng.gen_range(0..=(SIDE - body_w));
    let intensity: f32 = rng.gen_range(0.7..1.0);
    for (gy, row) in glyph.iter().enumerate() {
        for (gx, ch) in row.bytes().enumerate() {
            if ch != b'#' {
                continue;
            }
            for dy in 0..cell_h {
                for dx in 0..cell_w {
                    let y = oy + gy * cell_h + dy;
                    let x = ox + gx * cell_w + dx;
                    let jitter: f32 = rng.gen_range(-0.15..0.15);
                    out[y * SIDE + x] = (intensity + jitter).clamp(0.0, 1.0);
                }
            }
        }
    }
    // Background speckle noise.
    for v in out.iter_mut() {
        if rng.gen_bool(0.02) {
            *v = (*v + rng.gen_range(0.0..0.35)).clamp(0.0, 1.0);
        }
    }
}

/// Generates `n` labelled digit images (classes cycle 0–9).
pub fn dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = vec![0f32; n * SIDE * SIDE];
    let mut labels = Vec::with_capacity(n);
    let mut buf = vec![0f32; SIDE * SIDE];
    for i in 0..n {
        let class = rng.gen_range(0..10usize);
        render_digit(class, &mut rng, &mut buf);
        x[i * SIDE * SIDE..(i + 1) * SIDE * SIDE].copy_from_slice(&buf);
        labels.push(class as u16);
    }
    Dataset {
        shape: VolShape {
            c: 1,
            h: SIDE,
            w: SIDE,
        },
        x,
        labels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glyphs_are_well_formed() {
        for (d, g) in GLYPHS.iter().enumerate() {
            for row in g {
                assert_eq!(row.len(), 5, "digit {d}");
            }
            // Every glyph has ink.
            assert!(g.iter().any(|r| r.contains('#')), "digit {d} blank");
        }
        // All glyphs pairwise distinct.
        for (a, ga) in GLYPHS.iter().enumerate() {
            for (b, gb) in GLYPHS.iter().enumerate().skip(a + 1) {
                assert_ne!(ga, gb, "digits {a} and {b} identical");
            }
        }
    }

    #[test]
    fn dataset_shape_and_range() {
        let d = dataset(100, 7);
        assert_eq!(d.len(), 100);
        assert_eq!(d.shape.len(), 784);
        assert!(d.x.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(d.labels.iter().all(|&l| l < 10));
        // All ten classes present in 100 samples with overwhelming odds.
        let mut seen = [false; 10];
        for &l in &d.labels {
            seen[l as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(dataset(10, 3).x, dataset(10, 3).x);
        assert_ne!(dataset(10, 3).x, dataset(10, 4).x);
    }

    #[test]
    fn classes_are_visually_distinct() {
        // Mean images of two classes must differ substantially.
        let mut rng = StdRng::seed_from_u64(1);
        let mut mean = vec![vec![0f32; 784]; 10];
        let mut buf = vec![0f32; 784];
        for (c, class_mean) in mean.iter_mut().enumerate() {
            for _ in 0..20 {
                render_digit(c, &mut rng, &mut buf);
                for (m, &v) in class_mean.iter_mut().zip(&buf) {
                    *m += v / 20.0;
                }
            }
        }
        for a in 0..10 {
            for b in a + 1..10 {
                let dist: f32 = mean[a]
                    .iter()
                    .zip(&mean[b])
                    .map(|(&x, &y)| (x - y) * (x - y))
                    .sum();
                assert!(dist > 1.0, "classes {a}/{b} too similar: {dist}");
            }
        }
    }
}
