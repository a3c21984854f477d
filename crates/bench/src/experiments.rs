//! Shared set-up for the Section-6 experiments: datasets, probe
//! workloads, and the fpp × storage-configuration sweeps that back
//! Figures 5–10 and Tables 2–3.

use bftree_storage::tuple::{ATT1_OFFSET, PK_OFFSET};
use bftree_storage::{Duplicates, IoContext, Relation, StorageConfig};
use bftree_workloads::synthetic::{att1_domain, build_relation_r};
use bftree_workloads::{probes_from_domain, SyntheticConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::indexes::{build_bftree, build_btree, run_probes, RunResult};

/// A relation plus the label an experiment reports under.
pub struct Dataset {
    /// The relation: heap file + indexed attribute + duplicate layout.
    pub relation: Relation,
    /// Human label for report titles.
    pub label: &'static str,
}

impl Dataset {
    /// Shorthand for [`Relation::is_unique`].
    pub fn unique(&self) -> bool {
        self.relation.is_unique()
    }
}

/// Relation R, `mb` megabytes of it, with the PK as the indexed
/// attribute (§6.2).
pub fn relation_r_pk(mb: u64) -> Dataset {
    let config = SyntheticConfig::scaled_mb(mb);
    let relation = Relation::new(build_relation_r(&config), PK_OFFSET, Duplicates::Unique)
        .expect("conventional layout");
    Dataset {
        relation,
        label: "PK",
    }
}

/// Relation R with ATT1 as the indexed attribute (§6.3).
pub fn relation_r_att1(mb: u64) -> Dataset {
    let config = SyntheticConfig::scaled_mb(mb);
    let relation = Relation::new(
        build_relation_r(&config),
        ATT1_OFFSET,
        Duplicates::Contiguous,
    )
    .expect("conventional layout");
    Dataset {
        relation,
        label: "ATT1",
    }
}

/// The §6.2 probe workload: `n` random existing PKs (every probe
/// matches).
pub fn pk_probes(ds: &Dataset, n: usize) -> Vec<u64> {
    let domain: Vec<u64> = (0..ds.relation.heap().tuple_count()).collect();
    probes_from_domain(&domain, n, 0xF165)
}

/// The §6.3 probe workload: `n` random timestamps with the paper's
/// 14 % average hit rate.
///
/// Misses are timestamps *after* the data's time range — ATT1 "is a
/// timestamp attribute" and random timestamps mostly postdate the
/// archive. (This is the reading consistent with Table 3's magnitudes:
/// its ATT1 false-read counts match `hit_rate × fpp × S`, i.e. misses
/// are rejected by the leaf's `[min_key, max_key]` check and only hits
/// pay the full filter sweep.)
pub fn att1_probes(ds: &Dataset, n: usize) -> Vec<u64> {
    let domain = att1_domain(ds.relation.heap());
    let max = *domain.last().expect("non-empty relation");
    probes_at_hit_rate(&domain, n, 0.14, 0xF168, |rng| {
        max + 1 + rng.random_range(0..domain.len() as u64)
    })
}

/// `n` probes of which exactly the `hit_rate` share, evenly spread
/// through the stream, are random keys of `domain`; `miss` draws the
/// others.
pub fn probes_at_hit_rate(
    domain: &[u64],
    n: usize,
    hit_rate: f64,
    seed: u64,
    mut miss: impl FnMut(&mut StdRng) -> u64,
) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let want_hit = (((i + 1) as f64) * hit_rate).floor() > ((i as f64) * hit_rate).floor();
            if want_hit {
                domain[rng.random_range(0..domain.len())]
            } else {
                miss(&mut rng)
            }
        })
        .collect()
}

/// One cell of the Figure-5/8 grid.
pub struct SweepPoint {
    /// BF-Tree false-positive probability.
    pub fpp: f64,
    /// Storage configuration.
    pub config: StorageConfig,
    /// Measured outcome.
    pub result: RunResult,
}

/// Run the BF-Tree over every `(fpp, config)` pair. With `warm`, the
/// index device's LRU pool is prewarmed with everything above the leaf
/// level (§6.2 "Warm caches").
pub fn sweep_bftree(
    ds: &Dataset,
    probes: &[u64],
    fpps: &[f64],
    configs: &[StorageConfig],
    warm: bool,
) -> Vec<SweepPoint> {
    let mut out = Vec::with_capacity(fpps.len() * configs.len());
    for &fpp in fpps {
        let tree = build_bftree(&ds.relation, fpp);
        for &config in configs {
            let io = make_io(config, warm, || tree.upper_page_ids());
            let result = run_probes(&tree, &ds.relation, probes, &io);
            out.push(SweepPoint {
                fpp,
                config,
                result,
            });
        }
    }
    out
}

/// Run the B+-Tree baseline over each configuration.
pub fn baseline_btree(
    ds: &Dataset,
    probes: &[u64],
    configs: &[StorageConfig],
    warm: bool,
) -> Vec<(StorageConfig, RunResult)> {
    let tree = build_btree(&ds.relation);
    configs
        .iter()
        .map(|&config| {
            let io = make_io(config, warm, || tree.internal_node_ids());
            (config, run_probes(&tree, &ds.relation, probes, &io))
        })
        .collect()
}

/// Devices for one run; `upper` supplies the page ids to prewarm.
fn make_io(config: StorageConfig, warm: bool, upper: impl FnOnce() -> Vec<u64>) -> IoContext {
    if warm {
        let pages = upper();
        let io = IoContext::warm(config, pages.len().max(1));
        io.prewarm_index(pages);
        io
    } else {
        IoContext::cold(config)
    }
}

/// Pick, per configuration, the fpp whose BF-Tree has the lowest mean
/// response time — the paper's "optimal BF-Tree".
pub fn best_per_config(sweep: &[SweepPoint]) -> Vec<(StorageConfig, f64, RunResult)> {
    let mut best: Vec<(StorageConfig, f64, RunResult)> = Vec::new();
    for p in sweep {
        match best.iter_mut().find(|(c, _, _)| *c == p.config) {
            Some(slot) if p.result.mean_us < slot.2.mean_us => *slot = (p.config, p.fpp, p.result),
            Some(_) => {}
            None => best.push((p.config, p.fpp, p.result)),
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_pk() -> Dataset {
        let config = SyntheticConfig {
            n_tuples: 20_000,
            ..SyntheticConfig::scaled_mb(8)
        };
        let relation =
            Relation::new(build_relation_r(&config), PK_OFFSET, Duplicates::Unique).unwrap();
        Dataset {
            relation,
            label: "PK",
        }
    }

    #[test]
    fn sweep_covers_the_grid() {
        let ds = tiny_pk();
        let probes: Vec<u64> = (0..50u64).map(|i| i * 399).collect();
        let sweep = sweep_bftree(
            &ds,
            &probes,
            &[1e-2, 1e-6],
            &[StorageConfig::MemSsd, StorageConfig::SsdSsd],
            false,
        );
        assert_eq!(sweep.len(), 4);
        for p in &sweep {
            assert_eq!(p.result.hit_rate, 1.0);
            assert!(p.result.mean_us > 0.0);
        }
    }

    #[test]
    fn warm_is_never_slower_than_cold() {
        let ds = tiny_pk();
        let probes: Vec<u64> = (0..50u64).map(|i| i * 399).collect();
        for &config in &StorageConfig::WARMABLE {
            let cold = sweep_bftree(&ds, &probes, &[1e-4], &[config], false);
            let warm = sweep_bftree(&ds, &probes, &[1e-4], &[config], true);
            assert!(
                warm[0].result.mean_us <= cold[0].result.mean_us + 1e-9,
                "{config}: warm {} vs cold {}",
                warm[0].result.mean_us,
                cold[0].result.mean_us
            );
        }
    }

    #[test]
    fn best_per_config_picks_minima() {
        let ds = tiny_pk();
        let probes: Vec<u64> = (0..30u64).map(|i| i * 599).collect();
        let sweep = sweep_bftree(&ds, &probes, &[0.2, 1e-4], &[StorageConfig::MemHdd], false);
        let best = best_per_config(&sweep);
        assert_eq!(best.len(), 1);
        let min = sweep
            .iter()
            .map(|p| p.result.mean_us)
            .fold(f64::MAX, f64::min);
        assert_eq!(best[0].2.mean_us, min);
    }

    #[test]
    fn att1_probe_hit_rate_is_14_percent() {
        let config = SyntheticConfig {
            n_tuples: 30_000,
            ..SyntheticConfig::scaled_mb(8)
        };
        let relation = Relation::new(
            build_relation_r(&config),
            ATT1_OFFSET,
            Duplicates::Contiguous,
        )
        .unwrap();
        let ds = Dataset {
            relation,
            label: "ATT1",
        };
        let probes = att1_probes(&ds, 1_000);
        let domain = att1_domain(ds.relation.heap());
        let hits = probes
            .iter()
            .filter(|k| domain.binary_search(k).is_ok())
            .count();
        let rate = hits as f64 / probes.len() as f64;
        assert!((rate - 0.14).abs() < 0.01, "rate = {rate}");
    }
}
