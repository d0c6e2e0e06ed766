//! Cycle-level bit-serial systolic array simulator (paper §4).
//!
//! The paper's hardware contribution is a weight-stationary systolic array
//! built from **bit-serial** multiplier–accumulators, in three cell
//! flavours (Fig. 10):
//!
//! * **BL** (balanced): 8-bit input, 8-bit accumulation — I/O and compute
//!   both take 8 clocks (Fig. 8a);
//! * **IL** (interleaved): 32-bit accumulation takes 32 clocks while words
//!   arrive every 8 — the 24-clock gap is filled by interleaving four
//!   independent input streams (Fig. 8c);
//! * **MX** (multiplexed): an IL cell that accepts up to α input channels
//!   and selects the one its stored weight belongs to — the hardware
//!   support for column combining (Fig. 11c).
//!
//! This crate simulates the arithmetic *exactly* (bit-serial MAC validated
//! bit-for-bit against two's-complement reference arithmetic in [`mac`])
//! and accounts cycles with the dataflow model of Figs. 9/14a. Simulated
//! outputs of packed arrays are validated against reference sparse GEMMs.
//!
//! # Execution paths
//!
//! A packed layer runs one way: [`TiledScheduler::prepare_packed`] once,
//! then [`TiledScheduler::run_prepared_with`] per call on one array, or
//! [`TiledScheduler::run_bands`] to scatter row bands across several
//! (optionally heterogeneous, optionally fault-injected) arrays. Two
//! slower entry points are **test oracles**, kept only to validate and
//! benchmark that path bit for bit:
//! [`TiledScheduler::run_packed_reference`] (the seed indexed simulation)
//! and [`TiledScheduler::run_prepared_scalar_with`] (the one-op-at-a-time
//! sweep).
//!
//! # Examples
//!
//! ```
//! use cc_systolic::array::{ArrayConfig, SystolicArray};
//! use cc_tensor::quant::{AccumWidth, QuantMatrix};
//! use cc_tensor::Matrix;
//!
//! let w = Matrix::from_rows(&[&[0.5, -0.25], &[1.0, 0.75]]);
//! let d = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
//! let qw = QuantMatrix::quantize(&w);
//! let qd = QuantMatrix::quantize(&d);
//! let array = SystolicArray::new(ArrayConfig::new(2, 2, AccumWidth::Bits32));
//! let run = array.multiply(&qw, &qd);
//! assert_eq!(run.outputs[0], qw.get(0, 0) as i64 * qd.get(0, 0) as i64);
//! assert!(run.stats.cycles > 0);
//! ```

pub mod array;
pub mod blocks;
pub mod cell;
pub mod mac;
pub mod partition;
pub mod pipeline;
pub mod tiled;
pub mod wavefront;

pub use array::{ArrayConfig, ArrayGeometry, ArrayRun, SimStats, SystolicArray};
pub use cell::CellKind;
pub use partition::{partition_bottleneck, partition_min_max, partition_min_max_by};
pub use pipeline::{pipeline_latency, LayerShape, PipelineReport};
pub use tiled::{
    BandAction, BandOutcome, BandRun, PreparedPacked, RowBand, RunScratch, TiledRun,
    TiledScheduler,
};
