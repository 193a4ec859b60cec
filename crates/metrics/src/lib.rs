//! Metrics, time series and report rendering for experiments.
//!
//! * [`series::TimeSeries`] — (time, value) curves with time-to-threshold
//!   queries: the loss-vs-time/steps curves of a training report.
//! * [`table::Table`] — plain-text table rendering and CSV export for
//!   sweep summaries, the examples and the perf ledger.

pub mod series;
pub mod table;

pub use series::TimeSeries;
pub use table::Table;
