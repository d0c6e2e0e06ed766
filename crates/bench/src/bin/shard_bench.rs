//! Shard benchmark: row-banded kernel makespans, model runs sharded by
//! row bands and by layer cuts, and a shards × workers × batch
//! serving sweep. Run with `--release`; writes `results/bench_shard.json`
//! alongside the CSVs.

fn main() {
    let scale = cc_bench::scale::Scale::from_env();
    let tables = cc_bench::experiments::shard_bench::run(&scale);
    cc_bench::emit("shard_bench", &tables);
}
