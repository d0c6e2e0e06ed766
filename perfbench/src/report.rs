//! The metric catalogue and the result line. `BENCHMARK.json` at the
//! repository root lists the same names and units; the benchmark's tests
//! check that the two agree.

use std::collections::BTreeMap;

/// Which clock a metric is read on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall-clock (or host memory).
    Host,
    /// Simulated systolic-array cycles and counters.
    Sim,
    /// A count or ratio that no clock measures.
    None,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::None => "-",
        }
    }
}

/// Top-level deployed layers the per-layer metrics name individually;
/// ResNet-20 has the most, and a network with fewer reports 0 beyond its
/// last layer.
pub const MAX_LAYERS: usize = 22;

/// The end-to-end metrics, printed by every untraced run. Latency
/// (`p50_ms`, `p99_ms`) and capacity (`slo_rps`) are per-layer metrics
/// instead: on shared hosts the serving ones follow the host's stolen time
/// more than the program (see `perfbench/README.md`).
pub const END_TO_END: &[(&str, &str, Clock)] = &[
    ("setup_s", "s", Clock::Host),
    ("peak_rss_mb", "MB", Clock::Host),
    ("images_per_s", "1/s", Clock::Host),
    ("slo_attainment", "share", Clock::Host),
    ("sim_cycles_per_image", "cycles", Clock::Sim),
    ("sim_utilization", "share", Clock::Sim),
];

/// The per-layer metrics, printed by every traced run (0 where a workload
/// does not run the layer).
pub fn per_layer() -> Vec<(String, &'static str, Clock)> {
    let fixed: &[(&str, &str, Clock)] = &[
        ("p50_ms", "ms", Clock::Host),
        ("p99_ms", "ms", Clock::Host),
        ("slo_rps", "1/s", Clock::Host),
        ("setup.dataset_s", "s", Clock::Host),
        ("setup.combine_s", "s", Clock::Host),
        ("setup.deploy_build_s", "s", Clock::Host),
        ("setup.warmup_s", "s", Clock::Host),
        ("deploy.top1_accuracy", "share", Clock::None),
        ("deploy.quantize.ns", "ns", Clock::Host),
        ("deploy.shift.ns", "ns", Clock::Host),
        ("deploy.packed_conv.ns", "ns", Clock::Host),
        ("deploy.conv_epilogue.ns", "ns", Clock::Host),
        ("deploy.pool.ns", "ns", Clock::Host),
        ("deploy.relu.ns", "ns", Clock::Host),
        ("deploy.residual_add.ns", "ns", Clock::Host),
        ("deploy.linear.ns", "ns", Clock::Host),
        ("deploy.scratch_allocs", "count", Clock::None),
        ("systolic.kernel.ns", "ns", Clock::Host),
        ("systolic.tiles", "count", Clock::Sim),
        ("systolic.mac_ops", "count", Clock::Sim),
        ("systolic.cell_word_slots", "count", Clock::Sim),
        ("systolic.load_cycles", "cycles", Clock::Sim),
        ("packing.density", "share", Clock::Sim),
        ("bands.lane0.busy_ns", "ns", Clock::Host),
        ("bands.lane1.busy_ns", "ns", Clock::Host),
        ("bands.overhead_ns", "ns", Clock::Host),
        ("bands.makespan_cycles", "cycles", Clock::Sim),
        ("bands.balance", "share", Clock::Sim),
        ("serve.queue_wait_p50_ms", "ms", Clock::Host),
        ("serve.queue_wait_p99_ms", "ms", Clock::Host),
        ("serve.execute_p50_ms", "ms", Clock::Host),
        ("serve.execute_p99_ms", "ms", Clock::Host),
        ("serve.batch_occupancy", "requests", Clock::None),
        ("serve.batches", "count", Clock::None),
        ("serve.shed", "count", Clock::None),
        ("serve.failed", "count", Clock::None),
        ("serve.gen_late_p99_ms", "ms", Clock::Host),
        ("control.retunes", "count", Clock::None),
        ("phase.trickle.p99_ms", "ms", Clock::Host),
        ("phase.burst.p99_ms", "ms", Clock::Host),
        ("phase.steady.p99_ms", "ms", Clock::Host),
        ("phase.trickle.completed_share", "share", Clock::None),
        ("phase.burst.completed_share", "share", Clock::None),
        ("phase.steady.completed_share", "share", Clock::None),
        ("trace_overhead", "ratio", Clock::Host),
    ];
    let mut out: Vec<(String, &'static str, Clock)> = fixed
        .iter()
        .map(|&(n, u, c)| (n.to_string(), u, c))
        .collect();
    out.extend((0..MAX_LAYERS).map(|i| (layer_metric(i), "ns", Clock::Host)));
    out
}

/// The metrics a run prints in its result object.
fn catalogue(traced: bool) -> Vec<(String, &'static str, Clock)> {
    if traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u, c)| (n.to_string(), u, c))
            .collect()
    }
}

/// The per-layer metric of top-level layer `i`.
pub fn layer_metric(i: usize) -> String {
    format!("deploy.layer.{i:02}.ns")
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    /// Operations checked (batches' images, or requests sent).
    pub attempted: u64,
    /// Failed operations: mismatched logits, error resolutions, shed or
    /// refused requests, and waits that hit their bound.
    pub failed: u64,
    /// Output mismatches against the reference (a subset of `failed`);
    /// any makes the run incorrect.
    pub mismatches: u64,
    /// Broken determinism checks (setups or sim counters that differ).
    pub inconsistent: Vec<String>,
    /// Free-form lines printed before the metrics.
    notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Books `ops` checked operations of which `bad` mismatched the
    /// reference.
    pub fn check(&mut self, ops: u64, bad: u64) {
        self.attempted += ops;
        self.failed += bad;
        self.mismatches += bad;
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.mismatches == 0 && self.inconsistent.is_empty()
    }

    /// Prints the notes, one line per metric, and the result object as the
    /// last line. `traced` picks the per-layer catalogue over the
    /// end-to-end one. Returns whether the run is correct.
    pub fn print(&self, traced: bool) -> bool {
        for line in &self.notes {
            println!("# {line}");
        }
        for broken in &self.inconsistent {
            println!("# INCONSISTENT: {broken}");
        }
        let shown = catalogue(traced);
        let mut correct = self.correct() && self.attempted > 0;
        let mut json = Vec::new();
        for (name, unit, clock) in &shown {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                // Per-layer metrics of layers a workload does not run stay 0;
                // an end-to-end metric must always be measured.
                None if traced => 0.0,
                _ => {
                    println!("# MISSING: {name} was not measured");
                    correct = false;
                    0.0
                }
            };
            println!("{name} = {value} {unit} [{}]", clock.label());
            json.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        // Everything else the run measured, outside the result object.
        for (name, unit, clock) in &catalogue(!traced) {
            if let Some(value) = self.values.get(name) {
                println!(
                    "# also measured: {name} = {value} {unit} [{}]",
                    clock.label()
                );
            }
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            json.join(", ")
        );
        correct
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
