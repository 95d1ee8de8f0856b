//! CRC32 (IEEE 802.3: reflected, polynomial 0xEDB88320, initial state and
//! final XOR `!0`) — the integrity check behind every frame on the wire
//! and every checkpoint on disk.
//!
//! Two implementations compute the same value. Which one runs is decided
//! by what the code can observe, never by a setting:
//!
//! * x86_64 with `pclmulqdq` + `sse4.1` (detected at run time) and at
//!   least 64 bytes: four 128-bit lanes folded by carry-less multiply,
//!   then a Barrett reduction (Gopal et al., "Fast CRC Computation for
//!   Generic Polynomials Using PCLMULQDQ" — the scheme zlib and the Linux
//!   kernel use).
//! * everything else, and the sub-16-byte tail of the folded path: a
//!   portable slicing-by-16 table walk in safe Rust.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// state after byte `b` followed by `k` zero bytes, which lets sixteen
/// input bytes be looked up independently and XORed together.
const TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Shortest input the folded path can start on: it loads four 16-byte
/// lanes before its first multiply.
const FOLD_MIN: usize = 64;

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    !update(!0, bytes)
}

/// Advances the raw (un-inverted) CRC state over `bytes`, so
/// `update(update(!0, a), b) == update(!0, ab)`.
fn update(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= FOLD_MIN
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `update_clmul` requires pclmulqdq, sse2 and sse4.1. The
        // first and last were detected just above; sse2 is part of the
        // x86_64 baseline.
        return unsafe { update_clmul(state, bytes) };
    }
    update_slice16(state, bytes)
}

/// Portable slicing-by-16.
fn update_slice16(mut c: u32, bytes: &[u8]) -> u32 {
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let w = |i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        let (w0, w1, w2, w3) = (w(0) ^ c, w(4), w(8), w(12));
        let t = |k: usize, word: u32, shift: u32| TABLES[k][((word >> shift) & 0xFF) as usize];
        c = t(15, w0, 0)
            ^ t(14, w0, 8)
            ^ t(13, w0, 16)
            ^ t(12, w0, 24)
            ^ t(11, w1, 0)
            ^ t(10, w1, 8)
            ^ t(9, w1, 16)
            ^ t(8, w1, 24)
            ^ t(7, w2, 0)
            ^ t(6, w2, 8)
            ^ t(5, w2, 16)
            ^ t(4, w2, 24)
            ^ t(3, w3, 0)
            ^ t(2, w3, 8)
            ^ t(1, w3, 16)
            ^ t(0, w3, 24);
    }
    for &b in blocks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Carry-less-multiply folding. Every 16-byte load reads from a
/// bounds-checked sub-slice of exactly that length; an input shorter
/// than [`FOLD_MIN`] has nothing to fold and takes the portable path.
///
/// # Safety
/// The CPU must support `pclmulqdq`, `sse2` and `sse4.1`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
unsafe fn update_clmul(state: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::*;

    // x^n mod P for the fold distances, bit-reflected: (K2:K1) folds a
    // lane 512 bits ahead, (K4:K3) 128 bits, K5 reduces 96 -> 64, and
    // (mu':P) is the Barrett pair.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    // An unaligned 16-byte load out of a slice of exactly 16 bytes.
    macro_rules! load {
        ($b:expr) => {{
            let b: &[u8; 16] = $b.try_into().expect("a 16-byte sub-slice");
            _mm_loadu_si128(b.as_ptr().cast())
        }};
    }
    // `x` moved `k`'s distance ahead in the message, plus the data there.
    macro_rules! fold {
        ($x:expr, $k:expr, $data:expr) => {{
            let (x, data) = ($x, $data);
            let lo = _mm_clmulepi64_si128(x, $k, 0x00);
            let hi = _mm_clmulepi64_si128(x, $k, 0x11);
            _mm_xor_si128(_mm_xor_si128(lo, hi), data)
        }};
    }

    let mut blocks = bytes.chunks_exact(FOLD_MIN);
    let Some(first) = blocks.next() else {
        return update_slice16(state, bytes);
    };
    let mut x3 = _mm_xor_si128(load!(&first[0..16]), _mm_cvtsi32_si128(state as i32));
    let mut x2 = load!(&first[16..32]);
    let mut x1 = load!(&first[32..48]);
    let mut x0 = load!(&first[48..64]);

    let k1k2 = _mm_set_epi64x(K2, K1);
    for b in &mut blocks {
        x3 = fold!(x3, k1k2, load!(&b[0..16]));
        x2 = fold!(x2, k1k2, load!(&b[16..32]));
        x1 = fold!(x1, k1k2, load!(&b[32..48]));
        x0 = fold!(x0, k1k2, load!(&b[48..64]));
    }

    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut x = fold!(x3, k3k4, x2);
    x = fold!(x, k3k4, x1);
    x = fold!(x, k3k4, x0);
    let mut tail = blocks.remainder().chunks_exact(16);
    for b in &mut tail {
        x = fold!(x, k3k4, load!(b));
    }

    // 128 -> 64 bits.
    let low32 = _mm_setr_epi32(!0, 0, !0, 0);
    x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
    // 64 -> 32 bits.
    let k5 = _mm_set_epi64x(0, K5);
    x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
        _mm_srli_si128(x, 4),
    );
    // Barrett reduction; the remainder lands in lane 1.
    let poly = _mm_set_epi64x(MU, P);
    let mut q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
    q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
    let folded = _mm_extract_epi32(_mm_xor_si128(x, q), 1) as u32;

    update_slice16(folded, tail.remainder())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The one-table, byte-at-a-time loop every implementation must match.
    fn update_bytewise(mut c: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    type Update = fn(u32, &[u8]) -> u32;

    /// Every implementation compiled in that this CPU can run.
    fn implementations() -> Vec<(&'static str, Update)> {
        let mut all: Vec<(&'static str, Update)> =
            vec![("dispatch", update), ("slice16", update_slice16)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: the features `update_clmul` needs were just detected.
            all.push(("clmul", |state, bytes| unsafe { update_clmul(state, bytes) }));
        }
        all
    }

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut bytes = vec![0u8; len];
        ChaCha8Rng::seed_from_u64(seed).fill_bytes(&mut bytes);
        bytes
    }

    #[test]
    fn every_implementation_matches_the_bytewise_oracle() {
        let small = random_bytes(21, 1100 + 16);
        let big = random_bytes(22, (1 << 20) + 3 + 16);
        for (name, f) in implementations() {
            for offset in 0..16 {
                for len in 0..=1100 {
                    let input = &small[offset..offset + len];
                    assert_eq!(
                        f(!0, input),
                        update_bytewise(!0, input),
                        "{name}: offset {offset}, length {len}"
                    );
                }
                let input = &big[offset..offset + (1 << 20) + 3];
                assert_eq!(f(!0, input), update_bytewise(!0, input), "{name}: 1 MiB+3 at {offset}");
            }
        }

        // Information, not an assertion (`--nocapture` shows it).
        let timed = &big[..1 << 20];
        let mut all = implementations();
        all.push(("bytewise", update_bytewise));
        for (name, f) in all {
            let start = std::time::Instant::now();
            let mut passes = 0u32;
            let mut acc = 0u32;
            while passes < 4 || start.elapsed() < std::time::Duration::from_millis(50) {
                acc ^= f(!0, std::hint::black_box(timed));
                passes += 1;
            }
            std::hint::black_box(acc);
            let mb = f64::from(passes) * timed.len() as f64 / 1e6;
            println!("crc32 {name:>8}: {:9.0} MB/s", mb / start.elapsed().as_secs_f64());
        }
    }

    #[test]
    fn known_answers_hold_for_every_implementation() {
        let vectors: [(&[u8], u32); 5] = [
            (b"", 0),
            (b"a", 0xE8B7_BE43),
            (b"abc", 0x3524_41C2),
            (b"123456789", 0xCBF4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
        ];
        for (input, want) in vectors {
            assert_eq!(crc32(input), want);
            for (name, f) in implementations() {
                assert_eq!(!f(!0, input), want, "{name}: {:?}", String::from_utf8_lossy(input));
            }
        }
        // Long enough to fold; the answer is zlib's, not the oracle's.
        let long = b"The quick brown fox jumps over the lazy dog".repeat(5);
        for (name, f) in implementations() {
            assert_eq!(!f(!0, &long), 0xD4EB_7DA2, "{name}: 215 bytes");
        }
    }

    #[test]
    fn streaming_equals_one_shot_at_every_split() {
        let bytes = random_bytes(23, 300);
        for (name, f) in implementations() {
            let whole = f(!0, &bytes);
            for split in 0..=bytes.len() {
                let (a, b) = bytes.split_at(split);
                assert_eq!(f(f(!0, a), b), whole, "{name}: split at {split}");
            }
        }
    }
}
