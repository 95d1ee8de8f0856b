//! Offline stand-in for `serde_json`: present so the workspace's dependency
//! graph resolves without a registry. Nothing `ea-bench` builds calls it.
