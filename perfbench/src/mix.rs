//! The seeded request mix shared by every workload's request phase.
//!
//! A mix is a warm set of (workload, config) pairs, primed before the
//! timed phase, and a sequence of blocks. A block has one slot per
//! paper workload plus a second slot for grr; each slot asks its
//! workload for 9 warm pairs and 1 pair never asked before. Each block
//! holds 63 hits and 7 cold misses, in a seeded order.
//!
//! A request's cost depends mostly on the length of its trace, and the
//! six traces fall into a cheap half (grr, liver, ccom) and a dear half
//! (met, yacc, linpack). With one slot each, the median of hits and of
//! misses would sit in the gap between the halves and jump from run to
//! run; the second grr slot moves it inside a cluster of like costs.
//!
//! Every config is set-associative and none is 8 KB. No experiment in
//! either figure list simulates such a config through `Lab::outcome`
//! (the associative sweep of `ext_assoc` stays at 8 KB), so a cold
//! pair is cold for the batch `Lab` after a figure pass as well as for
//! a fresh server.

use cwp_cache::{CacheConfig, WriteHitPolicy, WriteMissPolicy};
use cwp_core::lab::WORKLOAD_NAMES;

use crate::stats::Rng;

/// The workload of each slot of a block.
const SLOTS: [&str; 7] = ["ccom", "grr", "yacc", "met", "linpack", "liver", "grr"];
/// Warm pairs per workload.
pub const WARM_PER_WORKLOAD: usize = 4;
/// Warm requests per slot (9 warm : 1 cold).
pub const HITS_PER_SLOT: usize = 9;
/// Requests in one block.
pub const BLOCK: usize = (HITS_PER_SLOT + 1) * SLOTS.len();
/// Blocks in one request phase: 1008 hits and 112 misses, so the hit
/// p99 and the miss p90 each have at least ten samples beyond them,
/// and every workload's misses cover the cold grid whole.
pub const BLOCKS: usize = 16;

/// One (workload, config) simulation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pair {
    pub workload: &'static str,
    pub config: CacheConfig,
}

/// One request of the timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    pub pair: Pair,
    /// `true` for a pair asked for the first time.
    pub cold: bool,
}

/// The whole input set of a request phase.
pub struct Mix {
    pub warm: Vec<Pair>,
    pub queries: Vec<Query>,
}

impl Mix {
    /// The mix for `seed`.
    pub fn new(seed: u64) -> Mix {
        let mut rng = Rng::new(seed ^ 0x6d69_785f_7365_6564);
        let mut warm = Vec::new();
        let mut cold: Vec<Vec<Pair>> = Vec::new();
        for &workload in &WORKLOAD_NAMES {
            let mut configs = config_space();
            rng.shuffle(&mut configs);
            let taken = &configs[..WARM_PER_WORKLOAD];
            let slots = SLOTS.iter().filter(|&&s| s == workload).count();
            cold.push(
                cold_grid(&mut rng, BLOCKS * slots, taken)
                    .into_iter()
                    .map(|config| Pair { workload, config })
                    .collect(),
            );
            warm.extend(taken.iter().map(|&config| Pair { workload, config }));
        }
        let mut queries = Vec::with_capacity(BLOCKS * BLOCK);
        for _ in 0..BLOCKS {
            let mut batch = Vec::with_capacity(BLOCK);
            for slot in SLOTS {
                let w = WORKLOAD_NAMES
                    .iter()
                    .position(|&name| name == slot)
                    .expect("slots name paper workloads");
                let own = &warm[w * WARM_PER_WORKLOAD..(w + 1) * WARM_PER_WORKLOAD];
                for _ in 0..HITS_PER_SLOT {
                    let pair = own[rng.below(own.len())];
                    batch.push(Query { pair, cold: false });
                }
                let pair = cold[w].pop().expect("one cold pair per slot and block");
                batch.push(Query { pair, cold: true });
            }
            rng.shuffle(&mut batch);
            queries.extend(batch);
        }
        Mix { warm, queries }
    }

    pub fn cold_count(&self) -> usize {
        self.queries.iter().filter(|q| q.cold).count()
    }

    /// Every distinct pair the mix touches: the reference set.
    pub fn pairs(&self) -> Vec<Pair> {
        let mut pairs = self.warm.clone();
        pairs.extend(self.queries.iter().filter(|q| q.cold).map(|q| q.pair));
        pairs
    }
}

const POLICIES: [(WriteHitPolicy, WriteMissPolicy); 6] = [
    (WriteHitPolicy::WriteBack, WriteMissPolicy::FetchOnWrite),
    (WriteHitPolicy::WriteBack, WriteMissPolicy::WriteValidate),
    (WriteHitPolicy::WriteThrough, WriteMissPolicy::FetchOnWrite),
    (WriteHitPolicy::WriteThrough, WriteMissPolicy::WriteValidate),
    (WriteHitPolicy::WriteThrough, WriteMissPolicy::WriteAround),
    (
        WriteHitPolicy::WriteThrough,
        WriteMissPolicy::WriteInvalidate,
    ),
];
const SIZES_KB: [u32; 7] = [1, 2, 4, 16, 32, 64, 128];
const LINES: [u32; 5] = [4, 8, 16, 32, 64];
const WAYS: [u32; 2] = [2, 4];

fn config(size_kb: u32, line: u32, ways: u32, policy: usize) -> CacheConfig {
    let (hit, miss) = POLICIES[policy];
    CacheConfig::builder()
        .size_bytes(size_kb * 1024)
        .line_bytes(line)
        .associativity(ways)
        .write_hit(hit)
        .write_miss(miss)
        .build()
        .expect("every axis value is valid")
}

/// Set-associative, fault-free configs over the paper's size, line and
/// policy axes, without 8 KB: 7 sizes x 5 lines x 2 ways x 6 policy
/// pairs = 420 per workload.
fn config_space() -> Vec<CacheConfig> {
    let mut space = Vec::new();
    for size_kb in SIZES_KB {
        for line in LINES {
            for ways in WAYS {
                for policy in 0..POLICIES.len() {
                    space.push(config(size_kb, line, ways, policy));
                }
            }
        }
    }
    space
}

/// The cold grid: 4 cache sizes x 4 line sizes. A per-config
/// simulation costs mostly what its size and line size make it cost
/// (several times apart), so every workload's misses cover the grid
/// whole, with a seeded associativity and policy per cell, and miss
/// latencies do not move with the seed. The grid keeps to the cheaper
/// half of the data-carrying engine's costs (16 KB and up, lines up to
/// 32 B), which halves the figure workloads' request phase.
const COLD_SIZES_KB: [u32; 4] = [16, 32, 64, 128];
const COLD_LINES: [u32; 4] = [4, 8, 16, 32];

/// `n` (a multiple of 16) distinct configs, none in `taken`: each run
/// of 16 covers every cold-grid cell once, in a seeded order.
fn cold_grid(rng: &mut Rng, n: usize, taken: &[CacheConfig]) -> Vec<CacheConfig> {
    let mut cells: Vec<(u32, u32)> = COLD_SIZES_KB
        .iter()
        .flat_map(|&size| COLD_LINES.iter().map(move |&line| (size, line)))
        .collect();
    let mut configs: Vec<CacheConfig> = Vec::with_capacity(n);
    while configs.len() < n {
        rng.shuffle(&mut cells);
        for &(size, line) in &cells {
            let mut variants: Vec<(u32, usize)> = WAYS
                .iter()
                .flat_map(|&ways| (0..POLICIES.len()).map(move |p| (ways, p)))
                .collect();
            rng.shuffle(&mut variants);
            let fresh = variants
                .into_iter()
                .map(|(ways, policy)| config(size, line, ways, policy))
                .find(|c| !taken.contains(c) && !configs.contains(c))
                .expect("a cell has 12 variants; the warm set takes at most 4");
            configs.push(fresh);
        }
    }
    configs
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    #[test]
    fn blocks_are_balanced_and_cold_pairs_unique() {
        let mix = Mix::new(3);
        assert_eq!(mix.queries.len(), BLOCKS * BLOCK);
        assert_eq!(mix.cold_count(), BLOCKS * SLOTS.len());
        let warm: HashSet<Pair> = mix.warm.iter().copied().collect();
        let mut seen = HashSet::new();
        for q in &mix.queries {
            if q.cold {
                assert!(!warm.contains(&q.pair) && seen.insert(q.pair));
            } else {
                assert!(warm.contains(&q.pair));
            }
        }
        for block in mix.queries.chunks(BLOCK) {
            assert_eq!(block.iter().filter(|q| q.cold).count(), SLOTS.len());
            assert_eq!(
                block.iter().filter(|q| q.pair.workload == "grr").count(),
                20
            );
            assert_eq!(
                block.iter().filter(|q| q.pair.workload == "yacc").count(),
                10
            );
        }
        let cells: HashSet<(u32, u32)> = mix
            .queries
            .iter()
            .filter(|q| q.cold && q.pair.workload == "yacc")
            .map(|q| (q.pair.config.size_bytes(), q.pair.config.line_bytes()))
            .collect();
        assert_eq!(cells.len(), 16, "yacc's misses cover the cold grid");
    }

    #[test]
    fn the_seed_decides_the_mix() {
        let a = Mix::new(1);
        let b = Mix::new(1);
        let c = Mix::new(2);
        assert_eq!(a.warm, b.warm);
        assert_ne!(a.warm, c.warm);
    }
}
