//! Building a workload's network from its seed: synthetic dataset,
//! Algorithm 1 (column combining under joint optimization), deploy build,
//! and the serial reference logits every output is checked against.

use crate::layers;
use crate::stats::{median, Rng};
use cc_dataset::{Dataset, SyntheticSpec};
use cc_deploy::DeployedNetwork;
use cc_nn::models::{lenet5_shift, resnet20_shift, ModelConfig};
use cc_packing::{ColumnCombineConfig, GroupingPolicy};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    /// Combine-prune ResNet-20 (α = 8, γ = 0.5) on CIFAR-shaped input at
    /// the repository's quick experiment scale.
    ResNet20,
    /// The serving LeNet-5 (width 1.0, 16×16 MNIST-shaped input) with a
    /// shortened combining run.
    LeNet5,
}

/// `Full` is the measured size; `Tiny` only exercises the plumbing (the
/// benchmark's own tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Seconds spent in each setup step.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub dataset_s: f64,
    pub combine_s: f64,
    pub deploy_build_s: f64,
    /// Reference logits plus the workload's own warm-up.
    pub warmup_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.dataset_s + self.combine_s + self.deploy_build_s + self.warmup_s
    }
}

/// A built network with its test images and their reference logits.
pub struct Built {
    pub net: DeployedNetwork,
    pub test: Dataset,
    /// `DeployedNetwork::logits` of every test image (the serial path).
    pub reference: Vec<Vec<f32>>,
    /// Top-1 accuracy of the deployed integer network on the test set.
    pub accuracy: f64,
    pub times: SetupTimes,
}

struct Recipe {
    spec: SyntheticSpec,
    model: ModelConfig,
    combine: ColumnCombineConfig,
    /// Share of the initial nonzero pointwise weights Algorithm 1 keeps.
    keep: f64,
}

fn recipe(model: Model, size: Size, model_seed: u64) -> Recipe {
    let tiny = size == Size::Tiny;
    let (train, test) = if tiny { (64, 32) } else { (512, 256) };
    let base = ColumnCombineConfig {
        alpha: 8,
        gamma: 0.5,
        beta: 0.20,
        rho: 0,
        beta_decay: 0.9,
        epochs_per_iteration: 2,
        final_epochs: 6,
        max_iterations: 8,
        eta: 0.05,
        batch_size: 32,
        seed: 7,
        policy: GroupingPolicy::DenseColumnFirst,
    };
    let short = ColumnCombineConfig {
        epochs_per_iteration: 1,
        final_epochs: 1,
        max_iterations: if tiny { 1 } else { 4 },
        ..base
    };
    match model {
        Model::ResNet20 => {
            let hw = if tiny { 8 } else { 12 };
            Recipe {
                spec: SyntheticSpec::cifar_like()
                    .with_size(hw, hw)
                    .with_samples(train, test),
                model: ModelConfig::new(3, hw, hw, 10)
                    .with_width(if tiny { 0.25 } else { 0.5 })
                    .with_seed(model_seed),
                combine: if tiny { short } else { base },
                keep: 0.20,
            }
        }
        Model::LeNet5 => {
            let hw = if tiny { 8 } else { 16 };
            Recipe {
                spec: SyntheticSpec::mnist_like()
                    .with_size(hw, hw)
                    .with_samples(train, test),
                model: ModelConfig::new(1, hw, hw, 10)
                    .with_width(if tiny { 0.5 } else { 1.0 })
                    .with_seed(model_seed),
                combine: short,
                keep: 0.5,
            }
        }
    }
}

/// Runs the whole setup for `model` from `seed` (without the workload's
/// own warm-up, which the caller adds to `times.warmup_s`).
pub fn build(model: Model, size: Size, seed: u64) -> Built {
    let mut rng = Rng::new(seed);
    let (data_seed, model_seed) = (rng.next_u64(), rng.next_u64());
    let recipe = recipe(model, size, model_seed);
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let (train, test) = layers::dataset(&recipe.spec, data_seed);
    times.dataset_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut net = match model {
        Model::ResNet20 => resnet20_shift(&recipe.model),
        Model::LeNet5 => lenet5_shift(&recipe.model),
    };
    let rho = (net.nonzero_conv_weights() as f64 * recipe.keep) as usize;
    let groups = layers::combine(
        ColumnCombineConfig {
            rho,
            ..recipe.combine
        },
        &mut net,
        &train,
    );
    times.combine_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let deployed = layers::deploy_build(&net, &groups, &train);
    times.deploy_build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let reference: Vec<Vec<f32>> = (0..test.len())
        .map(|i| layers::reference_logits(&deployed, test.image(i)))
        .collect();
    times.warmup_s = t.elapsed().as_secs_f64();

    let correct = (0..test.len())
        .filter(|&i| argmax(&reference[i]) == test.label(i))
        .count();
    Built {
        net: deployed,
        accuracy: correct as f64 / test.len().max(1) as f64,
        test,
        reference,
        times,
    }
}

/// Index of the largest logit, with `DeployedNetwork::classify`'s
/// tie-break (the last maximum).
pub fn argmax(logits: &[f32]) -> usize {
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)
}

/// Bit-for-bit equality of two logit vectors.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Set-ups per run: `setup_s` is their median, so set-up cost is measured
/// as steadily as the workload itself.
pub const SETUPS: usize = 3;

/// What [`build_repeated`] returns.
pub struct Repeated<W> {
    /// The last build and its warm state.
    pub built: Built,
    pub state: W,
    /// Median of each step over the set-ups.
    pub times: SetupTimes,
    /// Median of the set-ups' totals: the `setup_s` metric.
    pub total_s: f64,
    /// False when a set-up did not reproduce the first one's reference
    /// logits bit for bit.
    pub consistent: bool,
}

/// Runs the set-up [`SETUPS`] times from one seed, each followed by the
/// workload's `warm` step (timed as warm-up).
pub fn build_repeated<W>(
    model: Model,
    size: Size,
    seed: u64,
    mut warm: impl FnMut(&Built) -> W,
) -> Repeated<W> {
    let mut runs: Vec<SetupTimes> = Vec::with_capacity(SETUPS);
    let mut first: Option<Vec<Vec<f32>>> = None;
    let mut consistent = true;
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let mut built = build(model, size, seed);
        let t = Instant::now();
        let state = warm(&built);
        built.times.warmup_s += t.elapsed().as_secs_f64();
        runs.push(built.times);
        match &first {
            None => first = Some(built.reference.clone()),
            Some(reference) => {
                consistent &= reference.len() == built.reference.len()
                    && reference
                        .iter()
                        .zip(&built.reference)
                        .all(|(a, b)| same_bits(a, b));
            }
        }
        last = Some((built, state));
    }
    let med = |f: fn(&SetupTimes) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let times = SetupTimes {
        dataset_s: med(|t| t.dataset_s),
        combine_s: med(|t| t.combine_s),
        deploy_build_s: med(|t| t.deploy_build_s),
        warmup_s: med(|t| t.warmup_s),
    };
    let total_s = med(SetupTimes::total);
    let (built, state) = last.expect("at least one set-up");
    Repeated {
        built,
        state,
        times,
        total_s,
        consistent,
    }
}
