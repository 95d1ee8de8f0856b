//! Offline stand-in for `rand_chacha` 0.3: `ChaCha8Rng` only. Follows the
//! published generator (8-round ChaCha, 64-bit block counter, four blocks
//! buffered per refill, `rand_core::BlockRng` word order). The tests pin
//! the block function, the counter and the seed layout to published
//! values: the 8-round zero-key vector of the ChaCha test-vector draft and
//! the 20-round values of `rand_chacha`'s own test suite.

use rand::{RngCore, SeedableRng};

const BUF_WORDS: usize = 64;

/// ChaCha with `DOUBLE_ROUNDS` double rounds.
#[derive(Clone, Debug)]
pub struct ChaChaRng<const DOUBLE_ROUNDS: usize> {
    key: [u32; 8],
    counter: u64,
    buf: [u32; BUF_WORDS],
    index: usize,
}

/// ChaCha with 8 rounds, the generator behind `ea_tensor::TensorRng`.
pub type ChaCha8Rng = ChaChaRng<4>;

fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl<const DOUBLE_ROUNDS: usize> ChaChaRng<DOUBLE_ROUNDS> {
    fn block(&self, counter: u64, out: &mut [u32]) {
        let mut init = [0u32; 16];
        init[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
        init[4..12].copy_from_slice(&self.key);
        init[12] = counter as u32;
        init[13] = (counter >> 32) as u32;
        // Words 14..16 are the stream id, always 0 here.
        let mut s = init;
        for _ in 0..DOUBLE_ROUNDS {
            quarter(&mut s, 0, 4, 8, 12);
            quarter(&mut s, 1, 5, 9, 13);
            quarter(&mut s, 2, 6, 10, 14);
            quarter(&mut s, 3, 7, 11, 15);
            quarter(&mut s, 0, 5, 10, 15);
            quarter(&mut s, 1, 6, 11, 12);
            quarter(&mut s, 2, 7, 8, 13);
            quarter(&mut s, 3, 4, 9, 14);
        }
        for (o, (a, b)) in out.iter_mut().zip(s.iter().zip(&init)) {
            *o = a.wrapping_add(*b);
        }
    }

    fn refill(&mut self, index: usize) {
        let mut buf = [0u32; BUF_WORDS];
        for (i, chunk) in buf.chunks_mut(16).enumerate() {
            self.block(self.counter.wrapping_add(i as u64), chunk);
        }
        self.buf = buf;
        self.counter = self.counter.wrapping_add(4);
        self.index = index;
    }
}

impl<const DOUBLE_ROUNDS: usize> SeedableRng for ChaChaRng<DOUBLE_ROUNDS> {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (k, c) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        }
        ChaChaRng { key, counter: 0, buf: [0; BUF_WORDS], index: BUF_WORDS }
    }
}

impl<const DOUBLE_ROUNDS: usize> RngCore for ChaChaRng<DOUBLE_ROUNDS> {
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.refill(0);
        }
        let v = self.buf[self.index];
        self.index += 1;
        v
    }

    fn next_u64(&mut self) -> u64 {
        let idx = self.index;
        if idx < BUF_WORDS - 1 {
            self.index += 2;
            u64::from(self.buf[idx + 1]) << 32 | u64::from(self.buf[idx])
        } else if idx >= BUF_WORDS {
            self.refill(2);
            u64::from(self.buf[1]) << 32 | u64::from(self.buf[0])
        } else {
            // One word left: it is the low half, the refill gives the high.
            let lo = u64::from(self.buf[BUF_WORDS - 1]);
            self.refill(1);
            u64::from(self.buf[0]) << 32 | lo
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// draft-strombergson-chacha-test-vectors, TC1 (all-zero key and IV),
    /// 8 rounds, first keystream block.
    #[test]
    fn chacha8_matches_the_published_zero_key_vector() {
        let mut rng = ChaCha8Rng::from_seed([0; 32]);
        let hex: String = (0..16)
            .flat_map(|_| rng.next_u32().to_le_bytes())
            .map(|byte| format!("{byte:02x}"))
            .collect();
        assert_eq!(
            hex,
            "3e00ef2f895f40d67f5bb8e81f09a5a12c840ec3ce9a7f3b181be188ef711a1e\
             984ce172b9216f419f445367456d5619314a42a3da86b001387bfdb80e0cfe42"
        );
    }

    /// `rand_chacha` 0.3's `test_chacha_true_values_a` (two blocks, so the
    /// counter steps) and `test_chacha_construction` (the seed's layout).
    #[test]
    fn twenty_rounds_match_rand_chachas_own_tests() {
        let mut rng = ChaChaRng::<10>::from_seed([0; 32]);
        let got: Vec<u32> = (0..32).map(|_| rng.next_u32()).collect();
        let expected: [u32; 32] = [
            0xade0b876, 0x903df1a0, 0xe56a5d40, 0x28bd8653, 0xb819d2bd, 0x1aed8da0, 0xccef36a8,
            0xc70d778b, 0x7c5941da, 0x8d485751, 0x3fe02477, 0x374ad8b8, 0xf4b8436a, 0x1ca11815,
            0x69b687c3, 0x8665eeb2, 0xbee7079f, 0x7a385155, 0x7c97ba98, 0x0d082d73, 0xa0290fcb,
            0x6965e348, 0x3e53c612, 0xed7aee32, 0x7621b729, 0x434ee69c, 0xb03371d5, 0xd539d874,
            0x281fed31, 0x45fb0a51, 0x1f0ae1ac, 0x6f4d794b,
        ];
        assert_eq!(got, expected);
        let mut seed = [0u8; 32];
        (seed[8], seed[16], seed[24]) = (1, 2, 3);
        assert_eq!(ChaChaRng::<10>::from_seed(seed).next_u32(), 137206642);
    }

    /// Determinism and the buffer-edge path of `next_u64`.
    #[test]
    fn same_seed_same_stream_across_the_buffer_edge() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        a.next_u32();
        b.next_u32();
        let xs: Vec<u64> = (0..200).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..200).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = ChaCha8Rng::seed_from_u64(43);
        assert_ne!(xs[0], c.next_u64());
    }
}
