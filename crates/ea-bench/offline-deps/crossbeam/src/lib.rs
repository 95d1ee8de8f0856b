//! Offline stand-in for `crossbeam`: present so the workspace's dependency
//! graph resolves without a registry. Nothing `ea-bench` builds calls it.
