//! State shared by every phase of one benchmark run.

use crate::prov::GapMeter;
use crate::report::Report;
use crate::spans::Spans;

pub struct Run {
    /// Workload seed: chooses the fold split and the request streams.
    pub seed: u64,
    /// Measurement budget of the whole run.
    pub seconds: f64,
    pub sp: Spans,
    pub rep: Report,
    pub gap: GapMeter,
}
