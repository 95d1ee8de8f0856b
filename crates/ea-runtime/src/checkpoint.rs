//! Reference checkpointing: save and restore the elastic-averaging
//! reference shards a server owns.
//!
//! A checkpoint file is **one wire frame** ([`ea_comms::frame`]) under
//! the file-only tag [`tag::FILE_REF_CHECKPOINT`]: the same magic,
//! `PROTO_VERSION` byte, length prefix and trailing CRC32 as every
//! message, around this little-endian payload:
//!
//! ```text
//! round u64 · shard_base u32 · total_shards u32 · n u32 · n × (len u32 + len × f32)
//! ```
//!
//! It is written with the wire's encoders and read back with
//! [`read_frame`] and the one bounds-checked cursor ([`Reader`]), so the
//! recovery path has no parser of its own. The CRC is part of the frame,
//! not an optional field: a file cannot be loaded unverified. A file
//! written under another `PROTO_VERSION` is rejected like a frame from
//! such a peer: its layout is not assumed.
//!
//! Durability: [`RefCheckpoint::save`] writes to a temporary file in the
//! target directory, fsyncs it, `rename`s it into place and fsyncs the
//! directory, so a crash mid-write leaves either the previous checkpoint
//! or the new one — never a torn file — and a completed save survives
//! power loss.

use ea_comms::frame::{encode_frame, read_frame, FrameError, ReadFrameError, Reader, MAX_PAYLOAD};
use ea_comms::wire::tag;
use ea_optim::codec::{decode_f32s_le, encode_f32s_le};
use std::io::Write;
use std::path::Path;

fn invalid(why: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, format!("corrupt checkpoint: {why}"))
}

/// Writes `bytes` to `path` atomically and durably: temp file in the same
/// directory, fsynced, renamed over the target, directory fsynced.
fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    // The rename lives in the directory, not the file: until the
    // directory is synced a power failure can bring the old entry back.
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    std::fs::File::open(dir)?.sync_all()
}

/// A round-tagged snapshot of the elastic-averaging *reference shards* —
/// what `RefShardServer` persists periodically and restores on startup so
/// a server crash resumes at the recorded round instead of resetting the
/// reference.
#[derive(Clone, Debug, PartialEq)]
pub struct RefCheckpoint {
    /// The shard version (completed rounds) this snapshot corresponds to.
    /// All shards are captured at the same round — the checkpointer skips
    /// a tick rather than persist a torn cross-shard state.
    pub round: u64,
    /// Reference weights of each shard, in stage order.
    pub shards: Vec<Vec<f32>>,
    /// First *global* shard id of the slice this snapshot holds — the
    /// shard map of a partitioned deployment. `0` for a whole-model
    /// server.
    pub shard_base: usize,
    /// Total global shard count across every server. Equal to
    /// `shards.len()` for a whole-model server.
    pub total_shards: usize,
}

impl RefCheckpoint {
    /// Builds a snapshot from consistent per-shard weights (a whole-model
    /// server: the slice is the full shard range).
    pub fn capture(round: u64, shards: Vec<Vec<f32>>) -> Self {
        let total = shards.len();
        Self::capture_range(round, shards, 0, total)
    }

    /// Builds a snapshot of one slice of a partitioned reference: global
    /// shards `shard_base..shard_base + shards.len()` of `total_shards`.
    pub fn capture_range(
        round: u64,
        shards: Vec<Vec<f32>>,
        shard_base: usize,
        total_shards: usize,
    ) -> Self {
        assert!(
            shard_base + shards.len() <= total_shards,
            "slice {shard_base}..{} exceeds total {total_shards}",
            shard_base + shards.len()
        );
        RefCheckpoint { round, shards, shard_base, total_shards }
    }

    /// The checkpoint file's bytes: one frame (see the module docs).
    /// Fails only if the snapshot is too large to ever be read back
    /// (a shard id or length beyond `u32`, a payload beyond
    /// [`MAX_PAYLOAD`]).
    pub fn encode(&self) -> std::io::Result<Vec<u8>> {
        let too_big = |what: &str| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("checkpoint {what} does not fit the frame format"),
            )
        };
        let word = |v: usize, what: &str| u32::try_from(v).map_err(|_| too_big(what));
        let floats: usize = self.shards.iter().map(Vec::len).sum();
        let mut payload = Vec::with_capacity(20 + 4 * self.shards.len() + 4 * floats);
        payload.extend_from_slice(&self.round.to_le_bytes());
        payload.extend_from_slice(&word(self.shard_base, "shard base")?.to_le_bytes());
        payload.extend_from_slice(&word(self.total_shards, "shard count")?.to_le_bytes());
        payload.extend_from_slice(&word(self.shards.len(), "shard count")?.to_le_bytes());
        for shard in &self.shards {
            payload.extend_from_slice(&word(shard.len(), "shard length")?.to_le_bytes());
            encode_f32s_le(shard, &mut payload);
        }
        if payload.len() > MAX_PAYLOAD {
            return Err(too_big("payload"));
        }
        let mut file = Vec::new();
        encode_frame(tag::FILE_REF_CHECKPOINT, &payload, &mut file);
        Ok(file)
    }

    /// Parses a checkpoint file's bytes, failing closed: anything but
    /// exactly one intact checkpoint frame with a consistent shard map is
    /// `InvalidData`. Every length is checked against the bytes actually
    /// present before anything is allocated for it.
    pub fn decode(mut file: &[u8]) -> std::io::Result<Self> {
        let (ty, payload) = match read_frame(&mut file) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Err(invalid(FrameError::Truncated)),
            Err(ReadFrameError::Frame(e)) => return Err(invalid(e)),
            Err(ReadFrameError::Io(e)) => return Err(e),
        };
        if ty != tag::FILE_REF_CHECKPOINT {
            return Err(invalid(FrameError::UnknownType(ty)));
        }
        if !file.is_empty() {
            return Err(invalid(format!("{} bytes after the frame", file.len())));
        }
        Self::decode_payload(&payload).map_err(invalid)
    }

    fn decode_payload(payload: &[u8]) -> Result<Self, FrameError> {
        let mut r = Reader::new(payload);
        let (round, shard_base, total_shards, n) = (r.u64()?, r.u32()?, r.u32()?, r.u32()?);
        if u64::from(shard_base) + u64::from(n) > u64::from(total_shards) {
            return Err(FrameError::BadPayload(format!(
                "shard map slice {shard_base}+{n} exceeds total {total_shards}"
            )));
        }
        // No `with_capacity(n)`: an inflated `n` runs out of bytes at its
        // first missing length word instead of reserving memory, and
        // `take` bounds every shard by the bytes that are really there.
        let mut shards = Vec::new();
        for _ in 0..n {
            let bytes = (r.u32()? as usize).saturating_mul(4);
            let shard = decode_f32s_le(r.take(bytes)?);
            shards.push(shard.map_err(|e| FrameError::BadPayload(e.to_string()))?);
        }
        r.done()?;
        Ok(RefCheckpoint {
            round,
            shards,
            shard_base: shard_base as usize,
            total_shards: total_shards as usize,
        })
    }

    /// Saves to a file path atomically and durably.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        atomic_write(path.as_ref(), &self.encode()?)
    }

    /// Loads from a file path, rejecting torn or corrupt files.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::decode(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_comms::Message;

    fn small() -> RefCheckpoint {
        RefCheckpoint::capture_range(7, vec![vec![1.0, -2.5], vec![], vec![3.0]], 2, 6)
    }

    fn is_invalid_data(r: std::io::Result<RefCheckpoint>) -> bool {
        matches!(r, Err(e) if e.kind() == std::io::ErrorKind::InvalidData)
    }

    #[test]
    fn roundtrips_through_bytes_and_file_with_the_shard_map() {
        let ckpt = small();
        let bytes = ckpt.encode().unwrap();
        // Header + fixed fields + a length word per shard + 4 bytes per
        // parameter + CRC: nothing else is stored.
        assert_eq!(bytes.len(), 12 + 20 + 3 * 4 + 3 * 4 + 4);
        assert_eq!(RefCheckpoint::decode(&bytes).unwrap(), ckpt);
        let path = std::env::temp_dir().join("avgpipe_ref_ckpt_test.bin");
        ckpt.save(&path).unwrap();
        assert_eq!(RefCheckpoint::load(&path).unwrap(), ckpt);
        let _ = std::fs::remove_file(&path);
    }

    /// The bytes commit 3e42a50 — the last with the byte-at-a-time
    /// checksum — wrote for the snapshot below (its `encode`, run there).
    /// The 104-byte payload is long enough for the folded CRC path.
    const WRITTEN_BY_3E42A50: &str = "\
        45414331048000006800000008070605040302010300000007000000020000000a000000\
        000080bf000040bf000000bf000080be000000000000803e0000003f0000403f0000803f\
        0000a03f090000000000803f0000003fabaaaa3e0000803ecdcc4c3eabaa2a3e2549123e\
        0000003e398ee33d8f287772";

    #[test]
    fn a_checkpoint_from_before_the_fast_checksum_loads_and_is_rewritten_identically() {
        let file: Vec<u8> = (0..WRITTEN_BY_3E42A50.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&WRITTEN_BY_3E42A50[i..i + 2], 16).unwrap())
            .collect();
        let cp = RefCheckpoint::capture_range(
            0x0102_0304_0506_0708,
            vec![
                (0..10).map(|i| i as f32 * 0.25 - 1.0).collect(),
                (0..9).map(|i| 1.0 / (i as f32 + 1.0)).collect(),
            ],
            3,
            7,
        );
        assert_eq!(RefCheckpoint::decode(&file).unwrap(), cp, "old file loads");
        assert_eq!(cp.encode().unwrap(), file, "and what is written now, the old binary reads");
    }

    #[test]
    fn every_torn_or_damaged_file_is_rejected() {
        let bytes = small().encode().unwrap();
        for cut in 0..bytes.len() {
            assert!(is_invalid_data(RefCheckpoint::decode(&bytes[..cut])), "prefix of {cut} bytes");
        }
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut damaged = bytes.clone();
                damaged[at] ^= 1 << bit;
                assert!(is_invalid_data(RefCheckpoint::decode(&damaged)), "byte {at} bit {bit}");
            }
        }
        let mut padded = bytes;
        padded.push(0);
        assert!(is_invalid_data(RefCheckpoint::decode(&padded)), "one trailing byte");
    }

    #[test]
    fn an_inconsistent_shard_map_or_inflated_count_is_rejected() {
        // Fields are public, so such a snapshot can be built and written;
        // it must not load. Each frame here carries a valid CRC.
        let beyond_total = RefCheckpoint { total_shards: 4, ..small() };
        assert!(is_invalid_data(RefCheckpoint::decode(&beyond_total.encode().unwrap())));

        let mut payload = 7u64.to_le_bytes().to_vec();
        for word in [0u32, u32::MAX, u32::MAX] {
            payload.extend_from_slice(&word.to_le_bytes()); // base, total, n
        }
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // first shard's length
        let mut file = Vec::new();
        encode_frame(tag::FILE_REF_CHECKPOINT, &payload, &mut file);
        assert!(is_invalid_data(RefCheckpoint::decode(&file)));
    }

    #[test]
    fn the_old_text_format_and_garbage_are_rejected() {
        let json = br#"{"version":1,"round":7,"shard_base":0,"total_shards":1,"shards":[[1.0]],"checksum":null}"#;
        assert!(is_invalid_data(RefCheckpoint::decode(json)));
        assert!(is_invalid_data(RefCheckpoint::decode(b"not a checkpoint")));
        assert!(is_invalid_data(RefCheckpoint::decode(b"")));
    }

    #[test]
    fn a_wire_message_is_not_a_checkpoint_and_a_checkpoint_is_not_a_message() {
        let msg = Message::PullReply { shard: 0, version: 7, weights: vec![1.0, 2.0] };
        let (mut payload, mut frame) = (Vec::new(), Vec::new());
        msg.encode_payload(&mut payload);
        encode_frame(msg.wire_type(), &payload, &mut frame);
        assert!(is_invalid_data(RefCheckpoint::decode(&frame)));

        let file = small().encode().unwrap();
        let (ty, payload) = read_frame(&mut file.as_slice()).unwrap().unwrap();
        assert_eq!(Message::decode_payload(ty, &payload), Err(FrameError::UnknownType(ty)));
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join("avgpipe_ckpt_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");
        // Overwrite an existing checkpoint; the directory must only ever
        // contain the finished file.
        small().save(&path).unwrap();
        let newer = RefCheckpoint { round: 8, ..small() };
        newer.save(&path).unwrap();
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(entries, vec!["ckpt.bin"], "no temp files left behind");
        assert_eq!(RefCheckpoint::load(&path).unwrap(), newer);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
