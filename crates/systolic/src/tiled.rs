//! Partitioned matrix multiplication over array-sized tiles (paper §5.4,
//! Fig. 14a).
//!
//! When the filter matrix exceeds the physical array, it is split into
//! tiles of at most `rows × cols`. Row bands produce independent output
//! rows; column bands produce partial sums that accumulate. The array
//! alternates between loading a tile's weights and multiplying, and — as in
//! the paper — the next tile's weight load overlaps the current tile's
//! compute ("every systolic cell is busy all the time"), so a tile
//! contributes `max(compute, next load)` cycles.
//!
//! ## The prepared fast path
//!
//! Deployed inference runs the *same* weights against a stream of data
//! matrices, so everything derivable from the weights alone is hoisted to
//! [`TiledScheduler::prepare_packed`]: each tile is lowered to a per-row
//! **op list** of `(channel, weight)` pairs with zero weights dropped, and
//! the tile's static counters (weight-load cycles, nonzero cells, occupied
//! cell slots, streamed input channels) are precomputed. A call to
//! [`TiledScheduler::run_prepared_with`] is then a branch-free sweep of
//! slice iterators — MACs against native-width accumulator lanes, the
//! `exact_bitserial` dispatch hoisted out of the inner loop — that writes
//! into a caller-owned [`RunScratch`] and assembles [`SimStats`] by
//! O(tiles) addition, with zero allocations once the scratch has warmed
//! up. The original per-call path survives as the test oracle
//! [`TiledScheduler::run_packed_reference`], the bit-exactness baseline
//! for tests and benchmarks.
//!
//! ## The batch-major lane sweep
//!
//! The kernel's innermost loop is **batch-major**: one `(channel, weight)`
//! op applies across all `l` batch positions of its output row as an
//! explicit chunked lane sweep (`LANE_CHUNK`-wide fixed-size chunks the
//! autovectorizer turns into vector MACs, ops fused in pairs so each
//! accumulator chunk is loaded and stored once per two MACs). The
//! one-op-at-a-time loop survives as the test oracle
//! [`TiledScheduler::run_prepared_scalar_with`], the live baseline
//! `kernel_bench`'s scalar-vs-lane rows and the CI lane gate measure
//! against. All kernels and the stats model share one tile/row/op walk
//! (`walk_band` + `BandVisitor`), so loop-structure changes land once.
//!
//! ## Row-band sharding
//!
//! One prepared matrix can also be carved across several simulated arrays:
//! a [`RowBand`] is a borrowing view of a contiguous run of a
//! [`PreparedPacked`]'s tile row-groups, so N shards share a single
//! prepared op list instead of re-preparing per shard.
//! [`PreparedPacked::partition_row_bands`] balances the bands by op count
//! (the min-max DP from [`crate::partition`]), and
//! [`TiledScheduler::run_bands`] — the one multi-band entry point —
//! scatters a plan across scoped threads (one simulated array each) and
//! gathers by construction: bands own disjoint output rows, so the gather
//! is pure row concatenation and the assembled plane is bit-identical to
//! the unsharded [`TiledScheduler::run_prepared_with`] (which runs the
//! same band kernel over the one-band [`PreparedPacked::full_band`]). The
//! same call carries an optional per-band [`BandAction`] (the
//! fault-injection plane) and reports each band's [`BandRun`].
//!
//! ## Heterogeneous fleets
//!
//! The arrays of a scatter need not be identical:
//! [`PreparedPacked::partition_row_bands_for`] weights the banding DP by
//! each target [`ArrayGeometry`]'s cycle model, and
//! [`TiledScheduler::run_bands`] runs band `i` under `fleet[i]`'s model.
//! Execution always sweeps the *shared* base op list — outputs stay
//! bit-identical to the unsharded run no matter the fleet — while each
//! band's [`SimStats`] re-tile its prepared tiles into geometry-sized
//! physical tiles (a smaller array pays more loads and more skew).

use crate::array::{ArrayConfig, ArrayGeometry, QuantPacked, SimStats, SystolicArray};
use crate::cell::CellKind;
use crate::mac::BitSerialMac;
use crate::partition::{partition_min_max, partition_min_max_by};
use cc_tensor::quant::{AccumWidth, QuantMatrix};
use std::ops::Range;
use std::time::Instant;

/// Result of a tiled execution.
#[derive(Clone, Debug, PartialEq)]
pub struct TiledRun {
    /// Output accumulator words, row-major `weight_rows × data_cols`.
    pub outputs: Vec<i64>,
    /// Merged cycle/operation counters (cycles account for load/compute
    /// overlap).
    pub stats: SimStats,
    /// Number of tiles executed.
    pub tiles: usize,
}

/// Schedules a full matrix multiplication as a sequence of tiles.
#[derive(Clone, Copy, Debug)]
pub struct TiledScheduler {
    cfg: ArrayConfig,
}

impl TiledScheduler {
    /// Creates a scheduler for the given array.
    pub fn new(cfg: ArrayConfig) -> Self {
        TiledScheduler { cfg }
    }

    /// The array configuration.
    pub fn config(&self) -> &ArrayConfig {
        &self.cfg
    }

    /// Multiplies an arbitrarily large unpacked weight matrix by `d`.
    ///
    /// # Panics
    ///
    /// Panics if `w.cols() != d.rows()`.
    pub fn run_unpacked(&self, w: &QuantMatrix, d: &QuantMatrix) -> TiledRun {
        assert_eq!(w.cols(), d.rows(), "weights/data dimension mismatch");
        let array = SystolicArray::new(self.cfg);
        let (n, m, l) = (w.rows(), w.cols(), d.cols());
        let mut outputs = vec![0i64; n * l];
        let mut stats = SimStats::default();
        let mut tiles = 0usize;
        let expected_tiles =
            n.div_ceil(self.cfg.rows.max(1)) * m.div_ceil(self.cfg.cols.max(1));
        let mut tile_cycles: Vec<(u64, u64)> = Vec::with_capacity(expected_tiles); // (load, compute)

        for r0 in (0..n).step_by(self.cfg.rows.max(1)) {
            let r1 = (r0 + self.cfg.rows).min(n);
            for c0 in (0..m).step_by(self.cfg.cols.max(1)) {
                let c1 = (c0 + self.cfg.cols).min(m);
                let wt = slice_quant(w, r0, r1, c0, c1);
                let dt = slice_quant(d, c0, c1, 0, l);
                let run = array.multiply(&wt, &dt);
                accumulate(&mut outputs, &run.outputs, r0, r1, l, self.cfg);
                tile_cycles.push((run.stats.load_cycles, run.stats.cycles - run.stats.load_cycles));
                stats.merge_ops(&run.stats);
                tiles += 1;
            }
        }
        stats.cycles = overlapped_cycles(&tile_cycles);
        stats.load_cycles = tile_cycles.iter().map(|t| t.0).sum();
        TiledRun { outputs, stats, tiles }
    }

    /// Multiplies a packed (column-combined) weight matrix by `d`, which
    /// carries the *original* channels.
    ///
    /// Prepares the weight matrix on every call; when the same weights run
    /// against many data matrices (deployed inference, serving), use
    /// [`TiledScheduler::prepare_packed`] once and
    /// [`TiledScheduler::run_prepared`] (or the allocation-free
    /// [`TiledScheduler::run_prepared_with`]) per call instead.
    ///
    /// # Panics
    ///
    /// Panics if `d` lacks channels the packing references.
    pub fn run_packed(&self, p: &QuantPacked, d: &QuantMatrix) -> TiledRun {
        self.run_prepared(&self.prepare_packed(p), d)
    }

    /// **Test oracle**, not a serving path — the seed per-call path: slices
    /// the packed matrix into array tiles and runs each through the
    /// indexed [`SystolicArray::multiply_packed`] simulation.
    /// Bit-identical to [`TiledScheduler::run_prepared`] on the same
    /// matrix — kept as the ground-truth baseline the prepared op-list
    /// kernel is validated (and benchmarked) against.
    ///
    /// # Panics
    ///
    /// Panics if `d` lacks channels the packing references.
    pub fn run_packed_reference(&self, p: &QuantPacked, d: &QuantMatrix) -> TiledRun {
        let array = SystolicArray::new(self.cfg);
        let (n, g, l) = (p.rows(), p.groups(), d.cols());
        let mut outputs = vec![0i64; n * l];
        let mut stats = SimStats::default();
        let mut tiles = 0usize;
        let expected_tiles =
            n.div_ceil(self.cfg.rows.max(1)) * g.div_ceil(self.cfg.cols.max(1));
        let mut tile_cycles: Vec<(u64, u64)> = Vec::with_capacity(expected_tiles);

        for r0 in (0..n).step_by(self.cfg.rows.max(1)) {
            let r1 = (r0 + self.cfg.rows).min(n);
            for g0 in (0..g).step_by(self.cfg.cols.max(1)) {
                let g1 = (g0 + self.cfg.cols).min(g);
                let wt = slice_packed(p, r0, r1, g0, g1);
                let run = array.multiply_packed(&wt, d);
                accumulate(&mut outputs, &run.outputs, r0, r1, l, self.cfg);
                tile_cycles.push((run.stats.load_cycles, run.stats.cycles - run.stats.load_cycles));
                stats.merge_ops(&run.stats);
                tiles += 1;
            }
        }
        stats.cycles = overlapped_cycles(&tile_cycles);
        stats.load_cycles = tile_cycles.iter().map(|t| t.0).sum();
        TiledRun { outputs, stats, tiles }
    }

    /// Lowers a packed weight matrix into this scheduler's prepared form:
    /// array-sized tiles, each reduced to per-row `(channel, weight)` op
    /// lists (zero weights dropped) plus precomputed static counters, so
    /// repeated runs do no per-call slicing, branching on empty cells, or
    /// stats recounting (weight-stationary reuse: a deployed layer's tiles
    /// never change between inferences).
    ///
    /// # Panics
    ///
    /// Panics if the packing's largest group exceeds the array's MX mux
    /// width (the same condition [`SystolicArray::multiply_packed`]
    /// enforces per call).
    pub fn prepare_packed(&self, p: &QuantPacked) -> PreparedPacked {
        if let CellKind::Multiplexed { mux_width } = self.cfg.cell {
            assert!(
                p.max_group_size() <= mux_width,
                "group size {} exceeds MX mux width {mux_width}",
                p.max_group_size()
            );
        }
        let array = SystolicArray::new(self.cfg);
        let (n, g) = (p.rows(), p.groups());
        let mut tiles = Vec::new();
        let mut static_stats = PreparedStatics::default();
        for r0 in (0..n).step_by(self.cfg.rows.max(1)) {
            let r1 = (r0 + self.cfg.rows).min(n);
            for g0 in (0..g).step_by(self.cfg.cols.max(1)) {
                let g1 = (g0 + self.cfg.cols).min(g);
                let tile = PreparedTile::lower(p, &array, r0, r1, g0, g1);
                static_stats.load_cycles += tile.load_cycles;
                static_stats.nonzero_cells += tile.ops.len() as u64;
                static_stats.cell_slots += (tile.rows * tile.groups) as u64;
                static_stats.streamed_channels += tile.streamed_channels;
                static_stats.output_rows += tile.rows as u64;
                tiles.push(tile);
            }
        }
        PreparedPacked {
            rows: n,
            groups: g,
            original_cols: p.original_cols(),
            cfg: self.cfg,
            tiles,
            statics: static_stats,
        }
    }

    /// Multiplies pre-lowered packed tiles by `d`. Bit-identical to
    /// [`TiledScheduler::run_packed`] on the matrix the tiles came from.
    ///
    /// Allocates a fresh result; the serving hot path should hold a
    /// [`RunScratch`] and call [`TiledScheduler::run_prepared_with`].
    ///
    /// # Panics
    ///
    /// Panics if the tiles were prepared for a different array
    /// configuration or `d` lacks channels the packing references.
    pub fn run_prepared(&self, p: &PreparedPacked, d: &QuantMatrix) -> TiledRun {
        let mut scratch = RunScratch::new();
        let stats = self.run_prepared_with(p, d, &mut scratch);
        TiledRun { outputs: scratch.take_outputs(), stats, tiles: p.tiles.len() }
    }

    /// The allocation-free kernel: multiplies pre-lowered packed tiles by
    /// `d`, leaving the output accumulators in `scratch` (read them via
    /// [`RunScratch::outputs`]) and returning the run's [`SimStats`].
    /// Reusing one scratch across calls performs zero steady-state heap
    /// allocations. Bit-identical to [`TiledScheduler::run_packed`] /
    /// [`TiledScheduler::run_packed_reference`], including stats.
    ///
    /// # Panics
    ///
    /// Panics if the tiles were prepared for a different array
    /// configuration or `d` lacks channels the packing references.
    pub fn run_prepared_with(
        &self,
        p: &PreparedPacked,
        d: &QuantMatrix,
        scratch: &mut RunScratch,
    ) -> SimStats {
        self.run_full(p, d, scratch, false)
    }

    /// Runs `band`'s tiles against `d` under `geom`'s cycle model,
    /// widening the band's output rows into `out` — the `band.rows()` row
    /// slice of the full output plane. `scratch` supplies the native
    /// accumulator lanes only. The outputs never depend on `geom` (the
    /// shared base op list is what executes); the returned [`SimStats`]
    /// model this band's array alone, its prepared tiles re-tiled into
    /// `geom`-sized physical tiles. `scalar` selects the one-op-at-a-time
    /// baseline sweep instead of the batch-major lane sweep.
    fn run_band_geom(
        &self,
        p: &PreparedPacked,
        band: &RowBand,
        geom: ArrayGeometry,
        d: &QuantMatrix,
        out: &mut [i64],
        scratch: &mut RunScratch,
        scalar: bool,
    ) -> SimStats {
        assert_eq!(p.cfg, self.cfg, "tiles prepared for a different array");
        assert!(d.rows() >= p.original_cols, "data matrix missing channels");
        let l = d.cols();
        assert_eq!(out.len(), band.rows.len() * l, "band output slice mis-sized");
        let data = d.as_slice();
        let tiles = &p.tiles[band.tiles.clone()];

        // The exact-bitserial dispatch happens once per run, not once per
        // MAC; the fast paths further specialize to the accumulator's
        // native lane width so per-MAC wrapping is free.
        if self.cfg.exact_bitserial {
            out.fill(0);
            let mut sweep = ExactSweep { data, l, acc: self.cfg.acc, out };
            walk_band(tiles, band.rows.start, l, &mut sweep);
        } else {
            match self.cfg.acc {
                AccumWidth::Bits32 => run_band_lanes::<i32>(
                    tiles, band.rows.start, data, l, &mut scratch.lane32, out, scalar,
                ),
                AccumWidth::Bits16 => run_band_lanes::<i16>(
                    tiles, band.rows.start, data, l, &mut scratch.lane16, out, scalar,
                ),
            }
        }
        // Stats are O(physical tiles) arithmetic over the prepared
        // per-tile counters — no per-cell recounting.
        band_stats_geom(tiles, geom, self.cfg.acc, l)
    }

    /// **Test oracle** for the lane kernel: bit-identical outputs and
    /// stats to [`TiledScheduler::run_prepared_with`], but the inner sweep
    /// applies one op at a time across the row instead of the batch-major
    /// fused lane sweep. Not a serving path — it exists so the lane kernel
    /// is always measured against a live scalar baseline (`kernel_bench`,
    /// the CI lane gate, and the kernel proptests). Under
    /// `exact_bitserial` both entry points run the same exact kernel.
    pub fn run_prepared_scalar_with(
        &self,
        p: &PreparedPacked,
        d: &QuantMatrix,
        scratch: &mut RunScratch,
    ) -> SimStats {
        self.run_full(p, d, scratch, true)
    }

    /// Runs the whole matrix as one band into `scratch`'s output plane.
    fn run_full(
        &self,
        p: &PreparedPacked,
        d: &QuantMatrix,
        scratch: &mut RunScratch,
        scalar: bool,
    ) -> SimStats {
        // The output plane moves out of the scratch for the duration of
        // the run so the band kernel can borrow the lane planes mutably
        // alongside it; capacity is preserved, so this stays
        // allocation-free once warm. Stale contents are fine — every band
        // kernel fully overwrites (or re-zeroes) its slice — so at a
        // steady-state size the resize is a no-op, not a memset.
        let mut out = std::mem::take(&mut scratch.out);
        out.resize(p.rows * d.cols(), 0);
        let (band, geom) = (p.full_band(), self.cfg.geometry());
        let stats = self.run_band_geom(p, &band, geom, d, &mut out, scratch, scalar);
        scratch.out = out;
        stats
    }

    /// Scatter/gather execution of a row-band shard `plan`: each band runs
    /// on its own simulated array with its own lane scratch, all writing
    /// disjoint row slices of `primary`'s output plane, so after a clean
    /// run [`RunScratch::outputs`] on `primary` holds exactly what
    /// [`TiledScheduler::run_prepared_with`] would have produced — the
    /// gather is row concatenation by construction. Band 0 executes on the
    /// calling thread with `primary`'s lanes; bands `i ≥ 1` execute on
    /// scoped threads with `aux[i-1]` (a one-band plan spawns no thread).
    ///
    /// Band `i` runs under `fleet[i]`'s cycle model (an empty `fleet`
    /// means the preparing config's geometry for every band) and under
    /// `actions[i]` (an empty `actions` means every band runs normally).
    /// `runs` is resized to the plan and receives each band's
    /// [`BandRun`]. With every outcome [`BandOutcome::Ran`] or
    /// [`BandOutcome::Stalled`] the gathered plane is bit-identical to the
    /// unsharded run; a `Poisoned` band's rows are corrupted and a `Dead`
    /// band's rows are stale — the caller owns detection (via the
    /// outcomes) and recovery (re-planning and re-running).
    ///
    /// # Panics
    ///
    /// Panics if `plan` is empty or does not cover the matrix's rows
    /// contiguously from 0, if `aux` is shorter than the plan requires, or
    /// if a non-empty `fleet` or `actions` is shorter than `plan`.
    pub fn run_bands(
        &self,
        p: &PreparedPacked,
        plan: &[RowBand],
        fleet: &[ArrayGeometry],
        actions: &[BandAction],
        d: &QuantMatrix,
        primary: &mut RunScratch,
        aux: &mut [RunScratch],
        runs: &mut Vec<BandRun>,
    ) {
        assert!(!plan.is_empty(), "empty shard plan");
        assert!(fleet.is_empty() || fleet.len() >= plan.len(), "need one geometry per band");
        assert!(actions.is_empty() || actions.len() >= plan.len(), "need one action per band");
        assert_eq!(plan[0].rows.start, 0, "plan must start at row 0");
        assert_eq!(plan[plan.len() - 1].rows.end, p.rows, "plan must cover every row");
        for pair in plan.windows(2) {
            assert_eq!(pair[0].rows.end, pair[1].rows.start, "plan bands must be contiguous");
        }
        assert!(aux.len() + 1 >= plan.len(), "need one aux scratch per extra band");
        let geom_of = |i: usize| fleet.get(i).copied().unwrap_or_else(|| self.cfg.geometry());
        let action_of = |i: usize| actions.get(i).copied().unwrap_or_default();
        runs.clear();
        runs.resize(plan.len(), BandRun::default());

        let l = d.cols();
        // As in run_full: every band fully overwrites its row slice, so no
        // zero-fill is needed at a steady-state size.
        let mut out = std::mem::take(&mut primary.out);
        out.resize(p.rows * l, 0);
        let (band0, rest) = plan.split_first().expect("non-empty plan");
        let (out0, mut out_tail) = out.split_at_mut(band0.rows.len() * l);
        let (run0, runs_rest) = runs.split_first_mut().expect("runs sized");
        if rest.is_empty() {
            *run0 = self.run_band_act(p, band0, geom_of(0), action_of(0), d, out0, primary);
        } else {
            std::thread::scope(|scope| {
                for (i, ((band, scratch), slot)) in
                    rest.iter().zip(aux.iter_mut()).zip(runs_rest.iter_mut()).enumerate()
                {
                    let (slice, tail) = out_tail.split_at_mut(band.rows.len() * l);
                    out_tail = tail;
                    let (sched, geom, action) = (*self, geom_of(i + 1), action_of(i + 1));
                    scope.spawn(move || {
                        *slot = sched.run_band_act(p, band, geom, action, d, slice, scratch);
                    });
                }
                *run0 = self.run_band_act(p, band0, geom_of(0), action_of(0), d, out0, primary);
            });
        }
        primary.out = out;
    }

    /// Runs one band under a fault-injection [`BandAction`], timing it on
    /// the host clock. `Run` and `Stall` produce the band's correct output
    /// rows (a stall merely sleeps first, modeling a slow array); `Poison`
    /// computes the correct rows and then corrupts them in place (a sick
    /// array returning garbage); `Dead` touches nothing — the band's slice
    /// of `out` keeps whatever stale contents it had, and its stats are
    /// zero.
    #[allow(clippy::too_many_arguments)]
    fn run_band_act(
        &self,
        p: &PreparedPacked,
        band: &RowBand,
        geom: ArrayGeometry,
        action: BandAction,
        d: &QuantMatrix,
        out: &mut [i64],
        scratch: &mut RunScratch,
    ) -> BandRun {
        let t0 = Instant::now();
        let mut run = |out: &mut [i64]| self.run_band_geom(p, band, geom, d, out, scratch, false);
        let (stats, outcome) = match action {
            BandAction::Run => (run(out), BandOutcome::Ran),
            BandAction::Stall(micros) => {
                std::thread::sleep(std::time::Duration::from_micros(u64::from(micros)));
                (run(out), BandOutcome::Stalled)
            }
            BandAction::Poison => {
                let stats = run(out);
                out.iter_mut().for_each(|word| *word = !*word);
                (stats, BandOutcome::Poisoned)
            }
            BandAction::Dead => (SimStats::default(), BandOutcome::Dead),
        };
        BandRun { stats, busy_nanos: t0.elapsed().as_nanos() as u64, outcome }
    }
}

/// What one band of a [`TiledScheduler::run_bands`] scatter did.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BandRun {
    /// The band's own array counters (zero for a dead band).
    pub stats: SimStats,
    /// Host nanoseconds the band spent, stall sleeps included.
    pub busy_nanos: u64,
    /// What happened to the band's output rows.
    pub outcome: BandOutcome,
}

/// What a fault-injection hook instructs one band execution (one shard
/// lane, one conv) to do. Produced by a deterministic fault plan and
/// consumed by [`TiledScheduler::run_bands`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BandAction {
    /// Execute normally.
    #[default]
    Run,
    /// Sleep this many microseconds, then execute normally — a slow
    /// array. Output is still correct.
    Stall(u32),
    /// Execute, then corrupt the band's output rows — a sick array
    /// returning garbage that gathers into a wrong result.
    Poison,
    /// Do nothing — a dead array. The band's output rows are left stale.
    Dead,
}

/// What actually happened to one band under a [`BandAction`] — the
/// detection signal a self-healing caller scores shard health from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BandOutcome {
    /// Executed normally; output rows are correct.
    #[default]
    Ran,
    /// Stalled first, then executed; output rows are correct.
    Stalled,
    /// Output rows are corrupted; the conv must be re-run.
    Poisoned,
    /// Output rows were never written; the conv must be re-run.
    Dead,
}

impl BandOutcome {
    /// True when this band's output rows are wrong or missing — the conv
    /// result cannot be used and the lane should be scored as erroring.
    pub fn is_error(self) -> bool {
        matches!(self, BandOutcome::Poisoned | BandOutcome::Dead)
    }
}

/// One MX cell's work in the prepared op list: the original input channel
/// it multiplexes and its stationary weight. Cells with zero weights (or
/// no assigned channel) are dropped at prepare time.
#[derive(Clone, Copy, Debug)]
struct TileOp {
    channel: u32,
    weight: i8,
}

/// Counters derivable from the weights alone, summed over all tiles; the
/// per-run [`SimStats`] is these times the stream length.
#[derive(Clone, Copy, Debug, Default)]
struct PreparedStatics {
    load_cycles: u64,
    nonzero_cells: u64,
    cell_slots: u64,
    streamed_channels: u64,
    output_rows: u64,
}

/// A packed weight matrix pre-lowered into array-sized op-list tiles by
/// [`TiledScheduler::prepare_packed`]; build once per deployed layer, run
/// many times.
#[derive(Clone, Debug)]
pub struct PreparedPacked {
    rows: usize,
    groups: usize,
    original_cols: usize,
    cfg: ArrayConfig,
    tiles: Vec<PreparedTile>,
    statics: PreparedStatics,
}

#[derive(Clone, Debug)]
struct PreparedTile {
    /// First global output row this tile contributes to.
    r0: usize,
    /// Tile height (output rows).
    rows: usize,
    /// Tile width (combined columns) — cycle model only; the op list has
    /// already collapsed the empty cells away.
    groups: usize,
    /// Concatenated per-row op lists; row `i` owns
    /// `ops[row_starts[i]..row_starts[i + 1]]`.
    ops: Vec<TileOp>,
    row_starts: Vec<u32>,
    /// Static weight-load cost of this tile.
    load_cycles: u64,
    /// Distinct channels wired into this tile's combined columns.
    streamed_channels: u64,
}

impl PreparedTile {
    /// Lowers the `(r0..r1) × (g0..g1)` slice of `p` to an op-list tile.
    fn lower(
        p: &QuantPacked,
        array: &SystolicArray,
        r0: usize,
        r1: usize,
        g0: usize,
        g1: usize,
    ) -> Self {
        let mut ops = Vec::new();
        let mut row_starts = Vec::with_capacity(r1 - r0 + 1);
        row_starts.push(0u32);
        for r in r0..r1 {
            for g in g0..g1 {
                if let Some(ch) = p.channel_at(r, g) {
                    let weight = p.weight_at(r, g);
                    if weight != 0 {
                        ops.push(TileOp { channel: ch as u32, weight });
                    }
                }
            }
            row_starts.push(ops.len() as u32);
        }
        // Input bandwidth: every member channel of every group streams
        // into its combined column (the MX cell takes all and selects).
        let streamed_channels =
            crate::array::packed_slice_stream_width(p, r0..r1, g0..g1) as u64;
        PreparedTile {
            r0,
            rows: r1 - r0,
            groups: g1 - g0,
            ops,
            row_starts,
            load_cycles: array.weight_load_cycles(r1 - r0, g1 - g0),
            streamed_channels,
        }
    }
}

/// A contiguous row band of a [`PreparedPacked`]: the tiles whose output
/// rows fall in `rows`. Bands are *views* — shards built from one plan all
/// borrow the same prepared op list, they never re-prepare — and a full
/// partition's bands own disjoint output rows, so concatenating their
/// outputs reproduces the unsharded result bit for bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowBand {
    rows: Range<usize>,
    tiles: Range<usize>,
}

impl RowBand {
    /// The global output rows this band produces.
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// Number of prepared tiles the band executes.
    pub fn num_tiles(&self) -> usize {
        self.tiles.len()
    }
}

impl PreparedPacked {
    /// Output rows (filters) of the full matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The whole matrix as a single band — the view
    /// [`TiledScheduler::run_prepared_with`] runs.
    pub fn full_band(&self) -> RowBand {
        RowBand { rows: 0..self.rows, tiles: 0..self.tiles.len() }
    }

    /// Carves the matrix into at most `shards` contiguous [`RowBand`]s,
    /// balanced by op-list length (the work the per-inference kernel
    /// actually sweeps). Band boundaries fall on tile row-group
    /// boundaries — a row band owns whole tiles, never part of one — so
    /// the effective shard count is capped by the matrix's row-group
    /// count (`rows / array_rows`, rounded up).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn partition_row_bands(&self, shards: usize) -> Vec<RowBand> {
        assert!(shards > 0, "need at least one shard");
        if self.tiles.is_empty() {
            return vec![self.full_band()];
        }
        let groups = self.row_groups();
        let costs: Vec<u64> = groups.iter().map(|g| g.2).collect();
        self.bands_from_groups(&groups, partition_min_max(&costs, shards))
    }

    /// Cost-weighted banding for a heterogeneous fleet: carves the matrix
    /// into at most `fleet.len()` contiguous [`RowBand`]s where band `i`
    /// targets `fleet[i]`, weighting the min-max DP by each geometry's own
    /// simulated cycle model at stream length `l` (the batch width the
    /// plan is sized for) — a slower/smaller array gets fewer rows, so the
    /// fleet's makespan beats any single array running everything.
    /// Execution stays bit-identical regardless of the plan; only the
    /// balance changes.
    ///
    /// # Panics
    ///
    /// Panics if `fleet` is empty.
    pub fn partition_row_bands_for(&self, fleet: &[ArrayGeometry], l: usize) -> Vec<RowBand> {
        assert!(!fleet.is_empty(), "need at least one shard");
        if self.tiles.is_empty() {
            return vec![self.full_band()];
        }
        let groups = self.row_groups();
        let cost = |j: usize, r: Range<usize>| {
            let tiles = groups[r.start].1.start..groups[r.end - 1].1.end;
            band_stats_geom(&self.tiles[tiles], fleet[j], self.cfg.acc, l).cycles
        };
        let ranges = partition_min_max_by(groups.len(), fleet.len(), cost);
        self.bands_from_groups(&groups, ranges)
    }

    /// Row-groups: consecutive tiles sharing a first output row, each with
    /// its row span, tile span, and op-count cost (op-list length plus one
    /// per tile — a loaded tile is never free, even when all its weights
    /// pruned to zero).
    #[allow(clippy::type_complexity)]
    fn row_groups(&self) -> Vec<(Range<usize>, Range<usize>, u64)> {
        let mut groups: Vec<(Range<usize>, Range<usize>, u64)> = Vec::new();
        for (i, tile) in self.tiles.iter().enumerate() {
            match groups.last_mut() {
                Some((rows, tiles, cost)) if rows.start == tile.r0 => {
                    tiles.end = i + 1;
                    *cost += tile.ops.len() as u64 + 1;
                }
                _ => groups.push((
                    tile.r0..tile.r0 + tile.rows,
                    i..i + 1,
                    tile.ops.len() as u64 + 1,
                )),
            }
        }
        groups
    }

    fn bands_from_groups(
        &self,
        groups: &[(Range<usize>, Range<usize>, u64)],
        ranges: Vec<Range<usize>>,
    ) -> Vec<RowBand> {
        ranges
            .into_iter()
            .map(|r| RowBand {
                rows: groups[r.start].0.start..groups[r.end - 1].0.end,
                tiles: groups[r.start].1.start..groups[r.end - 1].1.end,
            })
            .collect()
    }

    /// The cycle count one array takes to stream all tiles sequentially
    /// against an `l`-column data matrix — the unsharded
    /// [`TiledScheduler::run_prepared_with`] cycle total, computable
    /// without running. A sharded gather uses this as the
    /// sequential-equivalent cycle count so merged stats stay bit-identical
    /// to the unsharded run's regardless of the shard plan.
    pub fn sequential_cycles(&self, l: usize) -> u64 {
        self.sequential_stats(l).cycles
    }

    /// The full [`SimStats`] of the unsharded sequential run at stream
    /// length `l`, computable without running. A sharded gather merges
    /// these — not the per-geometry band stats, whose load cycles and
    /// makespans differ by fleet — so merged stats stay plan- and
    /// fleet-invariant.
    pub fn sequential_stats(&self, l: usize) -> SimStats {
        band_stats(&self.tiles, self.cfg, l)
    }

    /// Combined columns (groups) of the full matrix.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Columns of the original unpacked matrix.
    pub fn original_cols(&self) -> usize {
        self.original_cols
    }

    /// Number of pre-lowered tiles.
    pub fn num_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Total weight words loaded across all tiles per run — the
    /// weight-stationary load volume of one pass over the matrix. Stage
    /// partitioning for pipelined serving uses this as a per-layer cost
    /// proxy (`cc-deploy`'s layer cost model).
    pub fn load_words(&self) -> u64 {
        self.tiles.iter().map(|t| (t.rows * t.groups) as u64).sum()
    }

    /// Nonzero weight cells across all tiles — the op-list length the
    /// per-inference kernel actually sweeps.
    pub fn nonzero_cells(&self) -> u64 {
        self.statics.nonzero_cells
    }

    /// The array configuration the tiles were lowered for.
    pub fn config(&self) -> &ArrayConfig {
        &self.cfg
    }
}

/// Reusable output storage for [`TiledScheduler::run_prepared_with`]: the
/// `i64` accumulator plane handed back to callers plus the native-width
/// lane planes the fast kernels accumulate in. Hold one per worker (or per
/// pipeline stage) and reuse it across inferences — after the first call
/// at a given size, runs perform no heap allocation.
#[derive(Clone, Debug, Default)]
pub struct RunScratch {
    out: Vec<i64>,
    lane32: Vec<i32>,
    lane16: Vec<i16>,
}

impl RunScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Output accumulator words of the last run, row-major
    /// `weight_rows × data_cols`.
    pub fn outputs(&self) -> &[i64] {
        &self.out
    }

    /// Moves the last run's outputs out of the scratch (leaving it empty
    /// but with its lane capacity intact).
    pub fn take_outputs(&mut self) -> Vec<i64> {
        std::mem::take(&mut self.out)
    }
}

/// A native accumulator lane: wrapping add of an `i8 × i8` product is
/// bit-identical to the simulator's per-MAC `AccumWidth::wrap` because the
/// running value always fits the lane and the product never wraps
/// (|w·x| ≤ 2¹⁴ < 2¹⁵ − 1).
trait Lane: Copy {
    const ZERO: Self;
    fn mac(self, w: i8, x: i8) -> Self;
    fn widen(self) -> i64;
}

impl Lane for i32 {
    const ZERO: Self = 0;
    #[inline(always)]
    fn mac(self, w: i8, x: i8) -> Self {
        self.wrapping_add(w as i32 * x as i32)
    }
    #[inline(always)]
    fn widen(self) -> i64 {
        self as i64
    }
}

impl Lane for i16 {
    const ZERO: Self = 0;
    #[inline(always)]
    fn mac(self, w: i8, x: i8) -> Self {
        self.wrapping_add(w as i16 * x as i16)
    }
    #[inline(always)]
    fn widen(self) -> i64 {
        self as i64
    }
}

/// One pass over a band's prepared tiles — the single tile/row/op walk
/// shared by the batch-major lane kernel, the scalar baseline, the exact
/// bit-serial kernel, and the stats model, so loop-structure changes land
/// once instead of three times.
trait BandVisitor {
    /// Called once per tile in stream order, before the tile's rows.
    fn tile(&mut self, _tile: &PreparedTile) {}
    /// Called per tile row holding a non-empty op list; `start` is the
    /// row's offset into the band's output plane.
    fn row(&mut self, _start: usize, _ops: &[TileOp]) {}
}

fn walk_band<V: BandVisitor>(tiles: &[PreparedTile], row0: usize, l: usize, v: &mut V) {
    for tile in tiles {
        v.tile(tile);
        for local in 0..tile.rows {
            let ops =
                &tile.ops[tile.row_starts[local] as usize..tile.row_starts[local + 1] as usize];
            if ops.is_empty() {
                continue;
            }
            v.row((tile.r0 - row0 + local) * l, ops);
        }
    }
}

/// Width of the batch-major kernel's explicit lane chunks: fixed-size
/// `i32`/`i16` blocks the autovectorizer maps onto vector registers
/// (16 × i32 = one AVX-512 register, two AVX2, four NEON — small enough to
/// stay register-resident everywhere, wide enough to amortize the loop).
const LANE_CHUNK: usize = 16;

/// The batch-major lane kernel: the output row is walked in
/// `LANE_CHUNK`-wide fixed-size blocks, and each block is copied into a
/// register-resident accumulator array that *every op of the row* MACs
/// into before it is stored back — one plane load/store per row instead
/// of one per op, with the fixed-size inner loop left to the
/// autovectorizer. Column-band partial sums accumulate directly in the
/// lanes — per-MAC wrapping commutes with the tile-boundary wrap of the
/// reference path (modular addition is associative) and the op order per
/// lane is unchanged, so the result is bit-identical to [`ScalarSweep`]
/// and the seed indexed path.
struct LaneSweep<'a, L: Lane> {
    data: &'a [i8],
    l: usize,
    plane: &'a mut [L],
}

impl<L: Lane> BandVisitor for LaneSweep<'_, L> {
    fn row(&mut self, start: usize, ops: &[TileOp]) {
        let l = self.l;
        let row = &mut self.plane[start..start + l];
        let chunks = l / LANE_CHUNK;
        for c in 0..chunks {
            let base = c * LANE_CHUNK;
            let a: &mut [L; LANE_CHUNK] =
                (&mut row[base..base + LANE_CHUNK]).try_into().expect("exact chunk");
            let mut acc = *a;
            for op in ops {
                let b: &[i8; LANE_CHUNK] = self.data[op.channel as usize * l + base..]
                    [..LANE_CHUNK]
                    .try_into()
                    .expect("exact chunk");
                let w = op.weight;
                for i in 0..LANE_CHUNK {
                    acc[i] = acc[i].mac(w, b[i]);
                }
            }
            *a = acc;
        }
        // Tail positions past the last full chunk: the scalar sweep.
        let base = chunks * LANE_CHUNK;
        if base < l {
            let tail = &mut row[base..];
            for op in ops {
                let stream = &self.data[op.channel as usize * l + base..op.channel as usize * l + l];
                for (a, &x) in tail.iter_mut().zip(stream) {
                    *a = a.mac(op.weight, x);
                }
            }
        }
    }
}

/// The PR 4 scalar op-list kernel, kept verbatim: one op at a time, one
/// position at a time. The live baseline the lane kernel is benchmarked
/// and property-tested against.
struct ScalarSweep<'a, L: Lane> {
    data: &'a [i8],
    l: usize,
    plane: &'a mut [L],
}

impl<L: Lane> BandVisitor for ScalarSweep<'_, L> {
    fn row(&mut self, start: usize, ops: &[TileOp]) {
        let l = self.l;
        let row = &mut self.plane[start..start + l];
        for op in ops {
            let stream = &self.data[op.channel as usize * l..op.channel as usize * l + l];
            for (acc, &x) in row.iter_mut().zip(stream) {
                *acc = acc.mac(op.weight, x);
            }
        }
    }
}

/// The validation kernel: identical sweep, but every MAC runs the
/// bit-level datapath ([`BitSerialMac`]) on the `i64` plane directly.
struct ExactSweep<'a> {
    data: &'a [i8],
    l: usize,
    acc: AccumWidth,
    out: &'a mut [i64],
}

impl BandVisitor for ExactSweep<'_> {
    fn row(&mut self, start: usize, ops: &[TileOp]) {
        let l = self.l;
        let row = &mut self.out[start..start + l];
        for op in ops {
            let mac = BitSerialMac::new(op.weight, self.acc);
            let stream = &self.data[op.channel as usize * l..op.channel as usize * l + l];
            for (y, &x) in row.iter_mut().zip(stream) {
                *y = mac.run(x, *y).0;
            }
        }
    }
}

/// Runs one of the native-lane kernels over a band: resize the lane
/// plane, sweep (batch-major by default, the scalar baseline on demand),
/// widen into the caller's `i64` slice.
fn run_band_lanes<L: Lane>(
    tiles: &[PreparedTile],
    row0: usize,
    data: &[i8],
    l: usize,
    plane: &mut Vec<L>,
    out: &mut [i64],
    scalar: bool,
) {
    plane.clear();
    plane.resize(out.len(), L::ZERO);
    if scalar {
        let mut sweep = ScalarSweep { data, l, plane };
        walk_band(tiles, row0, l, &mut sweep);
    } else {
        let mut sweep = LaneSweep { data, l, plane };
        walk_band(tiles, row0, l, &mut sweep);
    }
    for (o, v) in out.iter_mut().zip(plane.iter()) {
        *o = v.widen();
    }
}

/// Streams the overlap cycle model over a band's tiles as re-tiled for an
/// [`ArrayGeometry`]: each prepared tile splits into `geom`-sized physical
/// tiles (row-major), every physical tile feeding the load/compute overlap
/// chain. When `geom` equals the preparing config's geometry each prepared
/// tile is exactly one physical tile, reproducing the base model. The op
/// counters stay per-prepared-tile (the work is geometry-independent)
/// except `input_words`, which re-streams a tile's channels once per
/// physical row chunk, and `load_cycles`, which sums the physical loads.
struct GeomStats {
    geom: ArrayGeometry,
    acc: AccumWidth,
    l: usize,
    cycles: u64,
    prev_compute: u64,
    any: bool,
    statics: PreparedStatics,
}

impl GeomStats {
    fn new(geom: ArrayGeometry, acc: AccumWidth, l: usize) -> Self {
        GeomStats {
            geom,
            acc,
            l,
            cycles: 0,
            prev_compute: 0,
            any: false,
            statics: PreparedStatics::default(),
        }
    }

    /// Feeds one physical tile into the overlap chain: the first load is
    /// exposed, afterwards each step costs `max(prev compute, this load)`.
    fn physical_tile(&mut self, rows: usize, cols: usize) {
        let load = self.geom.weight_load_cycles(rows, cols);
        let compute = self.geom.compute_cycles(self.acc, rows, cols, self.l);
        if self.any {
            self.cycles += self.prev_compute.max(load);
        } else {
            self.cycles += load;
            self.any = true;
        }
        self.prev_compute = compute;
        self.statics.load_cycles += load;
    }

    /// Closes the chain (the last compute is fully exposed) and assembles
    /// the [`SimStats`].
    fn finish(mut self) -> SimStats {
        self.cycles += self.prev_compute;
        let l = self.l as u64;
        SimStats {
            cycles: self.cycles,
            load_cycles: self.statics.load_cycles,
            mac_ops: self.statics.nonzero_cells * l,
            cell_word_slots: self.statics.cell_slots * l,
            input_words: self.statics.streamed_channels * l,
            output_words: self.statics.output_rows * l,
        }
    }
}

impl BandVisitor for GeomStats {
    fn tile(&mut self, tile: &PreparedTile) {
        let (gr, gc) = (self.geom.rows.max(1), self.geom.cols.max(1));
        let row_chunks = tile.rows.div_ceil(gr) as u64;
        for r0 in (0..tile.rows).step_by(gr) {
            let rows = gr.min(tile.rows - r0);
            for c0 in (0..tile.groups).step_by(gc) {
                let cols = gc.min(tile.groups - c0);
                self.physical_tile(rows, cols);
            }
        }
        self.statics.nonzero_cells += tile.ops.len() as u64;
        self.statics.cell_slots += (tile.rows * tile.groups) as u64;
        self.statics.streamed_channels += tile.streamed_channels * row_chunks;
        self.statics.output_rows += tile.rows as u64;
    }
}

/// [`SimStats`] of one array streaming `tiles` back to back against an
/// `l`-column data matrix: the overlap cycle model over the subsequence
/// plus the tiles' summed static counters. Over a full partition's bands
/// everything except `cycles` sums exactly to the unsharded run's stats
/// (the counters are per-tile sums); `cycles` is each band's own makespan.
fn band_stats(tiles: &[PreparedTile], cfg: ArrayConfig, l: usize) -> SimStats {
    band_stats_geom(tiles, cfg.geometry(), cfg.acc, l)
}

/// [`band_stats`] under an arbitrary [`ArrayGeometry`] (see [`GeomStats`]
/// for the re-tiling model).
fn band_stats_geom(
    tiles: &[PreparedTile],
    geom: ArrayGeometry,
    acc: AccumWidth,
    l: usize,
) -> SimStats {
    let row0 = tiles.first().map_or(0, |t| t.r0);
    let mut v = GeomStats::new(geom, acc, l);
    walk_band(tiles, row0, l, &mut v);
    v.finish()
}

/// Total cycles with weight-load / compute overlap: the first load is
/// exposed; afterwards each step costs `max(compute_i, load_{i+1})`, and the
/// last tile's compute is fully exposed.
fn overlapped_cycles(tiles: &[(u64, u64)]) -> u64 {
    if tiles.is_empty() {
        return 0;
    }
    let mut total = tiles[0].0; // first load exposed
    for i in 0..tiles.len() {
        let compute = tiles[i].1;
        let next_load = tiles.get(i + 1).map_or(0, |t| t.0);
        total += compute.max(next_load);
    }
    total
}

fn accumulate(
    outputs: &mut [i64],
    tile_out: &[i64],
    r0: usize,
    r1: usize,
    l: usize,
    cfg: ArrayConfig,
) {
    for (ri, r) in (r0..r1).enumerate() {
        for j in 0..l {
            let idx = r * l + j;
            outputs[idx] = cfg.acc.wrap(outputs[idx] + tile_out[ri * l + j]);
        }
    }
}

fn slice_quant(m: &QuantMatrix, r0: usize, r1: usize, c0: usize, c1: usize) -> QuantMatrix {
    let mut data = Vec::with_capacity((r1 - r0) * (c1 - c0));
    for r in r0..r1 {
        for c in c0..c1 {
            data.push(m.get(r, c));
        }
    }
    QuantMatrix::from_raw(r1 - r0, c1 - c0, data, m.params())
}

fn slice_packed(p: &QuantPacked, r0: usize, r1: usize, g0: usize, g1: usize) -> QuantPacked {
    let mut weights = Vec::with_capacity((r1 - r0) * (g1 - g0));
    let mut channels = Vec::with_capacity(weights.capacity());
    for r in r0..r1 {
        for g in g0..g1 {
            weights.push(p.weight_at(r, g));
            channels.push(p.channel_at(r, g));
        }
    }
    QuantPacked::from_raw(
        r1 - r0,
        g1 - g0,
        p.original_cols(),
        weights,
        channels,
        p.params(),
        p.max_group_size(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_packing::{group_columns, pack_columns, GroupingConfig};
    use cc_tensor::init::sparse_matrix;
    use cc_tensor::quant::{quant_matmul, AccumWidth, QuantParams};

    fn cfg32() -> ArrayConfig {
        ArrayConfig::new(32, 32, AccumWidth::Bits32)
    }

    fn packed_fixture(rows: usize, cols: usize, density: f64, seed: u64) -> QuantPacked {
        let f = sparse_matrix(rows, cols, density, seed);
        let groups = group_columns(&f, &GroupingConfig::paper_default());
        QuantPacked::quantize(&pack_columns(&f, &groups))
    }

    #[test]
    fn tiled_unpacked_matches_reference() {
        let w = QuantMatrix::quantize(&sparse_matrix(96, 94, 0.16, 1));
        let d = QuantMatrix::quantize(&sparse_matrix(94, 20, 1.0, 2));
        let run = TiledScheduler::new(cfg32()).run_unpacked(&w, &d);
        assert_eq!(run.tiles, 9); // Fig. 14a
        assert_eq!(run.outputs, quant_matmul(&w, &d, AccumWidth::Bits32));
    }

    #[test]
    fn tiled_packed_matches_reference_and_reduces_tiles() {
        let f = sparse_matrix(96, 94, 0.16, 3);
        let groups = group_columns(&f, &GroupingConfig::paper_default());
        let packed = pack_columns(&f, &groups);
        let params = QuantParams::calibrate(f.as_slice());
        let qp = QuantPacked::quantize_with(&packed, params);
        let q_pruned = QuantMatrix::quantize_with(&packed.unpack(), params);
        let d = QuantMatrix::quantize(&sparse_matrix(94, 20, 1.0, 4));

        let sched = TiledScheduler::new(cfg32());
        let run = sched.run_packed(&qp, &d);
        assert_eq!(run.outputs, quant_matmul(&q_pruned, &d, AccumWidth::Bits32));

        let unpacked_run = sched.run_unpacked(&QuantMatrix::quantize_with(&f, params), &d);
        assert!(
            run.tiles * 2 <= unpacked_run.tiles,
            "packing should cut tiles: {} vs {}",
            run.tiles,
            unpacked_run.tiles
        );
        assert!(run.stats.cycles < unpacked_run.stats.cycles);
    }

    #[test]
    fn prepared_tiles_match_per_call_slicing() {
        let qp = packed_fixture(96, 94, 0.16, 11);
        let sched = TiledScheduler::new(cfg32());
        let prepared = sched.prepare_packed(&qp);

        for seed in [12u64, 13, 14] {
            let d = QuantMatrix::quantize(&sparse_matrix(94, 20, 1.0, seed));
            let fresh = sched.run_packed_reference(&qp, &d);
            let reused = sched.run_prepared(&prepared, &d);
            assert_eq!(fresh, reused, "prepared run must be bit-identical");
        }
        assert_eq!(
            prepared.num_tiles(),
            sched.run_packed(&qp, &QuantMatrix::quantize(&sparse_matrix(94, 4, 1.0, 15))).tiles
        );
        assert_eq!(prepared.rows(), 96);
        assert_eq!(prepared.original_cols(), 94);
        // Tiles cover the packed matrix exactly once, so the load volume is
        // the full matrix's weight-slot count.
        assert_eq!(prepared.load_words(), (prepared.rows() * prepared.groups()) as u64);
    }

    /// The allocation-free kernel must be bit-identical (outputs *and*
    /// stats) to the seed indexed path across accumulator widths, cell
    /// kinds, and the exact-bitserial datapath — with one scratch reused
    /// across every call.
    #[test]
    fn scratch_kernel_is_bit_identical_across_configs() {
        let qp = packed_fixture(70, 66, 0.2, 21);
        let mut scratch = RunScratch::new();
        for acc in [AccumWidth::Bits16, AccumWidth::Bits32] {
            for cell in [CellKind::Interleaved, CellKind::Multiplexed { mux_width: 8 }] {
                for exact in [false, true] {
                    let cfg = ArrayConfig { rows: 24, cols: 24, acc, cell, exact_bitserial: exact };
                    let sched = TiledScheduler::new(cfg);
                    let prepared = sched.prepare_packed(&qp);
                    for seed in [31u64, 32] {
                        let d = QuantMatrix::quantize(&sparse_matrix(66, 9, 1.0, seed));
                        let reference = sched.run_packed_reference(&qp, &d);
                        let stats = sched.run_prepared_with(&prepared, &d, &mut scratch);
                        assert_eq!(
                            scratch.outputs(),
                            &reference.outputs[..],
                            "outputs diverged: acc {acc:?} cell {cell:?} exact {exact}"
                        );
                        assert_eq!(
                            stats, reference.stats,
                            "stats diverged: acc {acc:?} cell {cell:?} exact {exact}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prepared_statics_count_the_op_list() {
        let qp = packed_fixture(40, 40, 0.3, 23);
        let prepared = TiledScheduler::new(cfg32()).prepare_packed(&qp);
        assert_eq!(prepared.nonzero_cells(), qp.count_nonzero() as u64);
    }

    #[test]
    fn scratch_take_outputs_leaves_reusable_scratch() {
        let qp = packed_fixture(20, 18, 0.4, 25);
        let sched = TiledScheduler::new(cfg32());
        let prepared = sched.prepare_packed(&qp);
        let d = QuantMatrix::quantize(&sparse_matrix(18, 5, 1.0, 26));
        let mut scratch = RunScratch::new();
        sched.run_prepared_with(&prepared, &d, &mut scratch);
        let first = scratch.take_outputs();
        assert_eq!(first.len(), 20 * 5);
        sched.run_prepared_with(&prepared, &d, &mut scratch);
        assert_eq!(scratch.outputs(), &first[..], "reused scratch must reproduce the run");
    }

    #[test]
    #[should_panic(expected = "prepared for a different array")]
    fn prepared_tiles_reject_foreign_config() {
        let qp = packed_fixture(40, 40, 0.3, 16);
        let prepared = TiledScheduler::new(cfg32()).prepare_packed(&qp);
        let other = TiledScheduler::new(ArrayConfig::new(16, 16, AccumWidth::Bits32));
        let d = QuantMatrix::quantize(&sparse_matrix(40, 4, 1.0, 17));
        other.run_prepared(&prepared, &d);
    }

    #[test]
    #[should_panic(expected = "mux width")]
    fn prepare_rejects_oversized_groups() {
        let f = sparse_matrix(16, 16, 0.1, 27);
        let groups = group_columns(&f, &GroupingConfig::new(4, 1.0));
        let packed = pack_columns(&f, &groups);
        assert!(packed.groups().max_group_size() > 2);
        let qp = QuantPacked::quantize(&packed);
        let cfg = ArrayConfig::new(32, 32, AccumWidth::Bits32)
            .with_cell(CellKind::Multiplexed { mux_width: 2 });
        TiledScheduler::new(cfg).prepare_packed(&qp);
    }

    #[test]
    fn single_tile_fast_path() {
        let w = QuantMatrix::quantize(&sparse_matrix(16, 16, 0.5, 5));
        let d = QuantMatrix::quantize(&sparse_matrix(16, 8, 1.0, 6));
        let run = TiledScheduler::new(cfg32()).run_unpacked(&w, &d);
        assert_eq!(run.tiles, 1);
    }

    #[test]
    fn overlap_model_bounds() {
        // cycles must be ≥ sum of computes + first load, and ≤ naive sum.
        let tiles = vec![(10u64, 100u64), (10, 100), (10, 5)];
        let c = overlapped_cycles(&tiles);
        assert!(c >= 10 + 100 + 100 + 5);
        assert!(c <= 30 + 205);
        assert_eq!(overlapped_cycles(&[]), 0);
    }

    #[test]
    fn column_band_partials_accumulate_with_wrap() {
        // Force 16-bit accumulation overflow across column bands and check
        // the wrap matches the monolithic reference.
        let w = QuantMatrix::quantize_with(
            &sparse_matrix(4, 64, 1.0, 7),
            QuantParams::from_max_abs(1.0),
        );
        let d = QuantMatrix::quantize_with(
            &sparse_matrix(64, 3, 1.0, 8),
            QuantParams::from_max_abs(1.0),
        );
        let cfg = ArrayConfig::new(4, 16, AccumWidth::Bits16);
        let run = TiledScheduler::new(cfg).run_unpacked(&w, &d);
        assert_eq!(run.outputs, quant_matmul(&w, &d, AccumWidth::Bits16));
        assert_eq!(run.tiles, 4);
    }

    /// Row-band shards must reproduce the unsharded run exactly: the
    /// gathered output plane bit for bit, the op counters and load cycles
    /// by exact summation, and each band's makespan bounded by the
    /// sequential run.
    #[test]
    fn row_band_scatter_gather_is_bit_identical() {
        let qp = packed_fixture(100, 60, 0.25, 33);
        for cell in [CellKind::Interleaved, CellKind::Multiplexed { mux_width: 8 }] {
            for exact in [false, true] {
                let cfg = ArrayConfig {
                    rows: 16,
                    cols: 24,
                    acc: AccumWidth::Bits32,
                    cell,
                    exact_bitserial: exact,
                };
                let sched = TiledScheduler::new(cfg);
                let prepared = sched.prepare_packed(&qp);
                let d = QuantMatrix::quantize(&sparse_matrix(60, 7, 1.0, 34));
                let mut reference = RunScratch::new();
                let ref_stats = sched.run_prepared_with(&prepared, &d, &mut reference);

                for shards in 1..=4 {
                    let plan = prepared.partition_row_bands(shards);
                    assert!(plan.len() <= shards);
                    let mut primary = RunScratch::new();
                    let mut aux = vec![RunScratch::new(); plan.len().saturating_sub(1)];
                    let mut runs = Vec::new();
                    sched.run_bands(
                        &prepared, &plan, &[], &[], &d, &mut primary, &mut aux, &mut runs,
                    );
                    assert_eq!(runs.len(), plan.len());
                    assert_eq!(
                        primary.outputs(),
                        reference.outputs(),
                        "gathered plane diverged at {shards} shards (exact={exact})"
                    );
                    let mut summed = SimStats::default();
                    for run in &runs {
                        assert_eq!(run.outcome, BandOutcome::Ran);
                        summed.merge(&run.stats);
                        assert!(run.stats.cycles <= ref_stats.cycles, "a band outran the full run");
                    }
                    // Work is conserved exactly; only cycles redistribute.
                    assert_eq!(summed.mac_ops, ref_stats.mac_ops);
                    assert_eq!(summed.cell_word_slots, ref_stats.cell_word_slots);
                    assert_eq!(summed.input_words, ref_stats.input_words);
                    assert_eq!(summed.output_words, ref_stats.output_words);
                    assert_eq!(summed.load_cycles, ref_stats.load_cycles);
                    assert!(
                        runs.iter().all(|r| r.busy_nanos > 0),
                        "every band must record busy time"
                    );
                }
            }
        }
    }

    /// The batch-major fused lane sweep must be bit-identical (outputs and
    /// stats) to the scalar op-list baseline at every batch width,
    /// including the chunk-remainder widths around [`LANE_CHUNK`].
    #[test]
    fn lane_kernel_matches_scalar_baseline_at_every_width() {
        let qp = packed_fixture(70, 66, 0.2, 41);
        for acc in [AccumWidth::Bits16, AccumWidth::Bits32] {
            let sched = TiledScheduler::new(ArrayConfig::new(24, 24, acc));
            let prepared = sched.prepare_packed(&qp);
            let mut lane = RunScratch::new();
            let mut scalar = RunScratch::new();
            for l in [1usize, 3, 8, 15, 16, 17, 33, 64] {
                let d = QuantMatrix::quantize(&sparse_matrix(66, l, 1.0, 42 + l as u64));
                let ls = sched.run_prepared_with(&prepared, &d, &mut lane);
                let ss = sched.run_prepared_scalar_with(&prepared, &d, &mut scalar);
                assert_eq!(lane.outputs(), scalar.outputs(), "outputs diverged at l={l}");
                assert_eq!(ls, ss, "stats diverged at l={l}");
            }
        }
    }

    /// A geometry equal to the preparing config must reproduce the base
    /// stats model exactly; a strictly smaller geometry re-tiles, paying
    /// more loads and more cycles, without touching the outputs.
    #[test]
    fn geometry_stats_reduce_to_base_and_scale_down() {
        let qp = packed_fixture(64, 48, 0.25, 43);
        let cfg = ArrayConfig::new(16, 16, AccumWidth::Bits32);
        let sched = TiledScheduler::new(cfg);
        let prepared = sched.prepare_packed(&qp);
        let d = QuantMatrix::quantize(&sparse_matrix(48, 9, 1.0, 44));
        let band = prepared.full_band();

        let mut base_scratch = RunScratch::new();
        let base = sched.run_prepared_with(&prepared, &d, &mut base_scratch);
        let out_base = base_scratch.outputs().to_vec();

        let mut geom_scratch = RunScratch::new();
        let mut out_same = vec![0i64; out_base.len()];
        let same = sched.run_band_geom(
            &prepared, &band, cfg.geometry(), &d, &mut out_same, &mut geom_scratch, false,
        );
        assert_eq!(same, base, "matching geometry must reproduce base stats");
        assert_eq!(out_same, out_base);

        let mut out_small = vec![0i64; out_base.len()];
        let small = sched.run_band_geom(
            &prepared,
            &band,
            ArrayGeometry::new(4, 8),
            &d,
            &mut out_small,
            &mut geom_scratch,
            false,
        );
        assert_eq!(out_small, out_base, "geometry must never change outputs");
        assert!(small.cycles > base.cycles, "a smaller array must be slower");
        assert!(small.load_cycles > base.load_cycles, "re-tiling loads more");
        // Work counters are geometry-independent.
        assert_eq!(small.mac_ops, base.mac_ops);
        assert_eq!(small.cell_word_slots, base.cell_word_slots);
        assert_eq!(small.output_words, base.output_words);
    }

    /// A heterogeneous fleet plan must gather bit-identically, give the
    /// weaker geometry fewer rows than uniform banding would, and beat the
    /// worst single array's makespan.
    #[test]
    fn hetero_fleet_bands_are_bit_identical_and_weighted() {
        let qp = packed_fixture(96, 60, 0.3, 45);
        let cfg = ArrayConfig::new(8, 16, AccumWidth::Bits32);
        let sched = TiledScheduler::new(cfg);
        let prepared = sched.prepare_packed(&qp);
        let d = QuantMatrix::quantize(&sparse_matrix(60, 8, 1.0, 46));
        let mut reference = RunScratch::new();
        sched.run_prepared_with(&prepared, &d, &mut reference);

        let strong = cfg.geometry();
        let weak = ArrayGeometry::new(2, 4);
        let fleet = [strong, weak];
        let plan = prepared.partition_row_bands_for(&fleet, d.cols());
        assert_eq!(plan.len(), 2);
        assert!(
            plan[0].rows().len() > plan[1].rows().len(),
            "the weak array must receive fewer rows: {:?}",
            plan.iter().map(|b| b.rows()).collect::<Vec<_>>()
        );

        let mut primary = RunScratch::new();
        let mut aux = vec![RunScratch::new(); 1];
        let mut runs = Vec::new();
        sched.run_bands(&prepared, &plan, &fleet, &[], &d, &mut primary, &mut aux, &mut runs);
        assert_eq!(primary.outputs(), reference.outputs(), "hetero gather diverged");

        // Makespan beats the worst single array running everything.
        let worst_single = band_stats_geom(&prepared.tiles, weak, cfg.acc, d.cols()).cycles;
        let makespan = runs.iter().map(|r| r.stats.cycles).max().unwrap();
        assert!(
            makespan < worst_single,
            "fleet makespan {makespan} must beat the weak array alone {worst_single}"
        );
    }

    #[test]
    fn row_band_plan_covers_rows_contiguously() {
        let qp = packed_fixture(90, 50, 0.3, 35);
        let prepared = TiledScheduler::new(ArrayConfig::new(16, 16, AccumWidth::Bits32))
            .prepare_packed(&qp);
        for shards in 1..=6 {
            let plan = prepared.partition_row_bands(shards);
            assert_eq!(plan[0].rows().start, 0);
            assert_eq!(plan.last().unwrap().rows().end, prepared.rows());
            for pair in plan.windows(2) {
                assert_eq!(pair[0].rows().end, pair[1].rows().start);
            }
            assert_eq!(
                plan.iter().map(RowBand::num_tiles).sum::<usize>(),
                prepared.num_tiles(),
                "bands must own every tile exactly once"
            );
        }
        // 90 rows on a 16-row array → 6 row-groups: more shards than
        // groups clamps to the group count.
        assert_eq!(prepared.partition_row_bands(100).len(), 6);
    }

    #[test]
    fn sequential_cycles_match_the_run() {
        let qp = packed_fixture(64, 40, 0.2, 36);
        let sched = TiledScheduler::new(cfg32());
        let prepared = sched.prepare_packed(&qp);
        for l in [1usize, 5, 16] {
            let d = QuantMatrix::quantize(&sparse_matrix(40, l, 1.0, 37));
            let run = sched.run_prepared(&prepared, &d);
            assert_eq!(prepared.sequential_cycles(l), run.stats.cycles);
        }
    }

    #[test]
    fn merge_concurrent_takes_makespan() {
        let a = SimStats { cycles: 10, load_cycles: 3, mac_ops: 5, ..SimStats::default() };
        let b = SimStats { cycles: 7, load_cycles: 2, mac_ops: 4, ..SimStats::default() };
        let mut m = a;
        m.merge_concurrent(&b);
        assert_eq!(m.cycles, 10, "concurrent arrays finish at the slowest one");
        assert_eq!(m.load_cycles, 5);
        assert_eq!(m.mac_ops, 9);
    }

    /// Same overflow pressure on the packed path: 16-bit lanes must wrap
    /// exactly like the reference simulation across column-band tiles.
    #[test]
    fn packed_sixteen_bit_wrap_is_bit_identical() {
        let f = sparse_matrix(6, 72, 0.9, 29);
        let groups = group_columns(&f, &GroupingConfig::paper_default());
        let qp = QuantPacked::quantize_with(
            &pack_columns(&f, &groups),
            QuantParams::from_max_abs(1.0),
        );
        let d = QuantMatrix::quantize_with(
            &sparse_matrix(72, 5, 1.0, 30),
            QuantParams::from_max_abs(1.0),
        );
        let sched = TiledScheduler::new(ArrayConfig::new(6, 16, AccumWidth::Bits16));
        let reference = sched.run_packed_reference(&qp, &d);
        let prepared = sched.prepare_packed(&qp);
        assert_eq!(sched.run_prepared(&prepared, &d), reference);
    }
}
