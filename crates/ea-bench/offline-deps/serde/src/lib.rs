//! Offline stand-in for `serde` 1.x. This workspace's run path derives
//! `Serialize`/`Deserialize` on a few config types and never serializes
//! them, so the traits are markers and the derives (feature `derive`)
//! expand to nothing.

pub trait Serialize {}
pub trait Deserialize<'de>: Sized {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
