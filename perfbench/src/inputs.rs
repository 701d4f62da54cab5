//! Seeded workload inputs: everything the server sees is generated here
//! from `--seed`, and the same seed gives the same inputs.

use dhg_skeleton::{batch_samples, SkeletonDataset, SkeletonSample, Stream};

/// SplitMix64 finaliser: a well-mixed 64-bit hash of `x`.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Uniform `[-1, 1)` from a hash word.
fn unit(word: u64) -> f32 {
    (word >> 40) as f32 / (1u64 << 23) as f32 - 1.0
}

/// Normalised `[C, T, V]` windows from a synthetic NTU-60-like corpus
/// (per-sample normalisation, joint stream — what training feeds the
/// models).
pub struct Windows {
    data: Vec<Vec<f32>>,
    /// Channels.
    pub c: usize,
    /// Frames per window.
    pub t: usize,
    /// Joints.
    pub v: usize,
}

/// Jitter added to corpus windows so every request input is distinct.
const JITTER: f32 = 1e-3;

impl Windows {
    /// Synthesize `n_classes × per_class` windows of `t` frames.
    pub fn synth(n_classes: usize, per_class: usize, t: usize, seed: u64) -> Windows {
        let corpus = SkeletonDataset::ntu60_like(n_classes, per_class, t, seed);
        let refs: Vec<&SkeletonSample> = corpus.samples.iter().collect();
        let (x, _) = batch_samples(&refs, Stream::Joint, &corpus.topology);
        let s = x.shape().to_vec();
        let (c, v) = (s[1], s[3]);
        let len = c * t * v;
        let data = x.data().chunks(len).map(<[f32]>::to_vec).collect();
        Windows { data, c, t, v }
    }

    /// Number of distinct corpus windows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Corpus window `i`, flat `[C, T, V]`.
    pub fn window(&self, i: usize) -> &[f32] {
        &self.data[i % self.data.len()]
    }

    /// Input of request `index` from `client`: a corpus window plus a
    /// seeded jitter, so no two requests carry the same input.
    pub fn request(&self, seed: u64, client: u64, index: u64) -> Vec<f32> {
        let base = self.window((mix(seed ^ client << 48 ^ index) % self.len() as u64) as usize);
        let key = mix(mix(seed) ^ client.rotate_left(32) ^ index);
        base.iter().enumerate().map(|(j, &x)| x + JITTER * unit(mix(key ^ j as u64))).collect()
    }

    /// Frame `k` (flat `[C, V]`, `C`-major) of camera `cam`'s endless
    /// stream: the camera plays corpus windows back to back.
    pub fn frame(&self, cam: usize, k: usize) -> Vec<f32> {
        let w = self.window(cam * 5 + k / self.t);
        let f = k % self.t;
        let mut out = Vec::with_capacity(self.c * self.v);
        for ci in 0..self.c {
            let at = ci * self.t * self.v + f * self.v;
            out.extend_from_slice(&w[at..at + self.v]);
        }
        out
    }

    /// The flat `[C, len, V]` window of camera `cam`'s frames
    /// `end - len .. end` — what a stream ring holds after frame `end - 1`.
    pub fn stream_window(&self, cam: usize, end: usize, len: usize) -> Vec<f32> {
        let mut out = vec![0.0; self.c * len * self.v];
        for (ti, k) in (end - len..end).enumerate() {
            let fr = self.frame(cam, k);
            for ci in 0..self.c {
                out[ci * len * self.v + ti * self.v..ci * len * self.v + (ti + 1) * self.v]
                    .copy_from_slice(&fr[ci * self.v..(ci + 1) * self.v]);
            }
        }
        out
    }
}

/// FNV-1a-64 digest of a logit row's bit patterns: equal digests mean
/// bitwise-equal rows (up to a 2⁻⁶⁴ collision), at 8 bytes per reply
/// instead of the row.
pub fn digest(row: &[f32]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in row {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h ^ row.len() as u64
}

/// Bitwise equality of two logit rows (NaN-safe: compares bit patterns).
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_seeded_and_distinct() {
        let w = Windows::synth(2, 2, 8, 5);
        assert_eq!(w.request(1, 0, 3), w.request(1, 0, 3));
        assert_ne!(w.request(1, 0, 3), w.request(1, 0, 4));
        assert_ne!(w.request(1, 0, 3), w.request(1, 1, 3));
        assert_ne!(w.request(1, 0, 3), w.request(2, 0, 3));
        assert_eq!(w.request(1, 0, 3).len(), 3 * 8 * 25);
    }

    #[test]
    fn digest_tells_rows_apart_bit_by_bit() {
        let a = [1.0f32, -0.0, 3.5];
        assert_eq!(digest(&a), digest(&[1.0, -0.0, 3.5]));
        assert_ne!(digest(&a), digest(&[1.0, 0.0, 3.5]));
        assert_ne!(digest(&a), digest(&a[..2]));
        assert!(same_bits(&a, &[1.0, -0.0, 3.5]));
        assert!(!same_bits(&a, &[1.0, 0.0, 3.5]));
    }

    #[test]
    fn stream_window_is_the_last_frames_in_ring_layout() {
        let w = Windows::synth(2, 2, 8, 5);
        let win = w.stream_window(1, 12, 4);
        for ti in 0..4 {
            let fr = w.frame(1, 8 + ti);
            for ci in 0..3 {
                assert_eq!(&win[ci * 4 * 25 + ti * 25..][..25], &fr[ci * 25..(ci + 1) * 25]);
            }
        }
    }
}
