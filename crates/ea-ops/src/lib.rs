//! `ea-ops`: fleet-wide observability for multi-process elastic
//! averaging — trace collection, clock-aligned round timelines, and
//! straggler detection.
//!
//! `ea-trace` gives each process near-free spans, counters and
//! histograms, but a sharded deployment (PR 8) is K server processes
//! and P worker processes, each with its own ring buffers, its own
//! Prometheus registry, and — crucially — its own clock. This crate
//! turns those islands into one fleet view:
//!
//! * [`context`] — deterministic cross-process span ids. Worker and
//!   server both derive [`context::exchange_span_id`]`(round, pipe)`
//!   from fields already on the wire, so a worker's `submit` span and
//!   the server's apply span of the same elastic exchange carry the
//!   same correlation context with **zero** extra wire bytes.
//! * [`pusher`] — [`pusher::OpsPusher`]: a background thread in every
//!   process that drains the local trace rings and snapshots the
//!   metrics registry, ships them to a collector as `OpsPush` wire
//!   messages (tags 20–21), and NTP-filters the
//!   `OpsAck` timestamps into a clock-offset estimate
//!   ([`ea_comms::clock::OffsetEstimator`]).
//! * [`collector`] — the receiving [`ea_comms::ReactorHandler`]: acks
//!   every push with its own clock so senders can align, and folds the
//!   decoded batches into a shared [`fleet::FleetState`].
//! * [`fleet`] — the merge: one Chrome trace with per-process
//!   `process_name` metadata and all timestamps shifted onto the
//!   collector's clock, and one fleet Prometheus page with `process`
//!   (and derived `pipe`) labels where cross-process histograms are
//!   merged **bucket-wise** before quantiles are computed — never by
//!   averaging per-process percentiles.
//! * [`health`] — the live model on top: per-stage span statistics,
//!   per-round timelines decomposed into pull-wait / compute / submit
//!   wire time, an eviction/rejoin/degraded event log, and a median-
//!   based straggler detector.
//! * [`recorder`] — a flight recorder retaining the last W seconds of
//!   events, dumped to a Chrome trace on `SIGUSR1` or on runtime
//!   anomalies (eviction, lease expiry) via [`recorder::anomaly`].
//!
//! Two binaries ship with the crate: `ops_collector` (listen, merge,
//! write `fleet_trace.json` + `fleet.prom`, print health) and
//! `ops_report` (re-analyze a merged trace offline).

pub mod codec;
pub mod collector;
pub mod context;
pub mod fleet;
pub mod health;
pub mod pusher;
pub mod recorder;

pub use codec::{MetricsBatch, OwnedEvent, TraceBatch};
pub use collector::{CollectorServer, OpsCollector};
pub use context::exchange_span_id;
pub use fleet::{FleetState, ProcView};
pub use health::{analyze, HealthReport, RoundTimeline, StragglerConfig, StragglerFlag};
pub use pusher::{OpsPusher, PusherConfig};
pub use recorder::FlightRecorder;
