//! Offline stand-in for `proptest`: present so the workspace's dependency
//! graph resolves without a registry. Nothing `ea-bench` builds calls it.
