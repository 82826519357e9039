//! Host-speed normalization.
//!
//! The benchmark runs on hosts whose CPU share swings by 2× for seconds
//! to minutes at a time (other tenants of a shared machine). Trial time and
//! the time of a fixed compute kernel move together (windowed correlation
//! 0.99 on the host this was tuned on), so every timed trial is bracketed
//! by two kernel runs and rescaled to the speed at which the kernel takes
//! [`REFERENCE_NS`]. The kernel is owned by the benchmark, not the
//! simulator, so no change to the simulator can move the yardstick.

use std::hint::black_box;
use std::time::Instant;

/// Kernel blocks per measurement (about 0.12 ms at reference speed).
const BLOCKS: u32 = 1_000;

/// Kernel time at reference speed: its best time over a minute on the
/// 2-vCPU x86-64 host the benchmark's bounds were set on.
pub const REFERENCE_NS: f64 = 115_000.0;

/// A 256-entry byte permutation (an S-box stand-in).
fn sbox() -> [u8; 256] {
    let mut perm: [u8; 256] = std::array::from_fn(|i| i as u8);
    let mut x = 0x9e37_79b9_u32;
    for i in (1..256).rev() {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        perm.swap(i, x as usize % (i + 1));
    }
    perm
}

/// Multiplication by 2 in GF(2^8).
fn xtime(b: u8) -> u8 {
    (b << 1) ^ if b & 0x80 != 0 { 0x1b } else { 0 }
}

/// The fixed kernel: ten AES-shaped rounds (table substitution, row
/// rotation, column mixing, key addition) per block, chained over
/// `blocks` blocks. Its instruction mix is close to the simulator's cipher
/// and table work, which is what makes it track the host's speed for
/// trials; a plain dependent-chain kernel slowed less than trials did.
fn kernel(sbox: &[u8; 256], blocks: u32) -> [u8; 16] {
    let mut state = [0u8; 16];
    for block in 0..blocks {
        state[0] ^= block as u8;
        for round in 0..10u8 {
            let mut t = [0u8; 16];
            for (i, b) in t.iter_mut().enumerate() {
                *b = sbox[state[(i + 4 * (i % 4)) % 16] as usize];
            }
            for c in 0..4 {
                let col = [t[4 * c], t[4 * c + 1], t[4 * c + 2], t[4 * c + 3]];
                let all = col[0] ^ col[1] ^ col[2] ^ col[3];
                for r in 0..4 {
                    state[4 * c + r] = col[r] ^ all ^ xtime(col[r] ^ col[(r + 1) % 4]) ^ round;
                }
            }
        }
    }
    state
}

/// Measures the host's current speed relative to the reference: 1.0 at
/// reference speed, 0.5 when the kernel takes twice as long.
pub fn host_speed() -> f64 {
    let sbox = black_box(sbox());
    let start = Instant::now();
    black_box(kernel(&sbox, black_box(BLOCKS)));
    REFERENCE_NS / start.elapsed().as_nanos().max(1) as f64
}

/// Runs `f` and returns its result, its host time in seconds rescaled to
/// reference speed, and the speed factor used (the mean of the speeds
/// measured just before and just after).
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let before = host_speed();
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    let speed = (before + host_speed()) / 2.0;
    (out, secs * speed, speed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_time_grows_with_rounds() {
        let sbox = sbox();
        let best = |blocks| {
            (0..5)
                .map(|_| {
                    let start = Instant::now();
                    black_box(kernel(&sbox, black_box(blocks)));
                    start.elapsed().as_nanos()
                })
                .min()
                .expect("five samples")
        };
        assert!(
            best(BLOCKS * 8) > best(BLOCKS),
            "the kernel was optimized away"
        );
    }
}
