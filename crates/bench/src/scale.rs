//! Experiment scale control.
//!
//! The paper's relations are 1 GB; every figure defaults to a
//! scaled-down relation that preserves all the ratios the figures are
//! about (index-to-data size, height transitions, false-read rates)
//! while finishing in seconds. Four environment variables resize a
//! run, read once by [`Scale::from_env`] and handed to every figure
//! as a `&Scale`; an unset variable means the default, a malformed
//! one is an error (a mistyped "smoke" run must not silently become a
//! full one).

/// Sizing of one `figures` run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Relation size in MB for the synthetic-R experiments
    /// (`BFTREE_SCALE_MB`, default 64; 1024 is the paper's 1 GB).
    pub relation_mb: u64,
    /// Probes per experiment point (`BFTREE_PROBES`, default 1 000 as
    /// in the paper).
    pub n_probes: usize,
    /// TPCH scale factor for Figure 11 (`BFTREE_TPCH_SF`, default
    /// 0.05; paper: SF 1).
    pub tpch_sf: f64,
    /// Distinct SHD timestamps for Figure 12 (`BFTREE_SHD_TIMESTAMPS`,
    /// default 4 000, ~208 k readings at mean cardinality 52).
    pub shd_timestamps: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Self {
            relation_mb: 64,
            n_probes: 1_000,
            tpch_sf: 0.05,
            shd_timestamps: 4_000,
        }
    }
}

impl Scale {
    /// The scale the process environment asks for.
    pub fn from_env() -> Result<Self, String> {
        Self::from_vars(|name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned()))
    }

    /// [`Scale::from_env`] over any variable lookup.
    fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let d = Self::default();
        let finite = |v: &f64| *v > 0.0 && v.is_finite();
        Ok(Self {
            relation_mb: parsed(&var, "BFTREE_SCALE_MB", "integer", d.relation_mb, |&v| {
                v > 0
            })?,
            n_probes: parsed(&var, "BFTREE_PROBES", "integer", d.n_probes, |&v| v > 0)?,
            tpch_sf: parsed(&var, "BFTREE_TPCH_SF", "number", d.tpch_sf, finite)?,
            shd_timestamps: parsed(
                &var,
                "BFTREE_SHD_TIMESTAMPS",
                "integer",
                d.shd_timestamps,
                |&v| v > 0,
            )?,
        })
    }
}

/// `name`'s value parsed as a `T` that `positive` accepts; `default`
/// when unset.
fn parsed<T: std::str::FromStr>(
    var: impl Fn(&str) -> Option<String>,
    name: &str,
    kind: &str,
    default: T,
    positive: impl Fn(&T) -> bool,
) -> Result<T, String> {
    let Some(raw) = var(name) else {
        return Ok(default);
    };
    match raw.parse::<T>() {
        Ok(v) if positive(&v) => Ok(v),
        _ => Err(format!("{name}={raw}: expected a positive {kind}")),
    }
}

/// The paper's fpp sweep for Figures 5/8 and Tables 2/3: 0.2 down to
/// 10⁻¹⁵ (union of the values the tables call out).
pub fn paper_fpp_sweep() -> Vec<f64> {
    vec![0.2, 0.1, 1.9e-2, 1.8e-3, 1.72e-4, 1.5e-7, 1e-11, 1e-15]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with(name: &'static str, value: &'static str) -> Result<Scale, String> {
        Scale::from_vars(|n| (n == name).then(|| value.to_string()))
    }

    #[test]
    fn unset_means_the_defaults() {
        assert_eq!(Scale::from_vars(|_| None), Ok(Scale::default()));
    }

    #[test]
    fn each_variable_sets_its_field() {
        assert_eq!(with("BFTREE_SCALE_MB", "8").unwrap().relation_mb, 8);
        assert_eq!(with("BFTREE_PROBES", "100").unwrap().n_probes, 100);
        assert_eq!(with("BFTREE_TPCH_SF", "0.005").unwrap().tpch_sf, 0.005);
        assert_eq!(
            with("BFTREE_SHD_TIMESTAMPS", "500").unwrap().shd_timestamps,
            500
        );
    }

    #[test]
    fn a_malformed_value_is_an_error_naming_the_variable() {
        assert_eq!(
            with("BFTREE_SCALE_MB", "abc"),
            Err("BFTREE_SCALE_MB=abc: expected a positive integer".into())
        );
        assert_eq!(
            with("BFTREE_SCALE_MB", "0"),
            Err("BFTREE_SCALE_MB=0: expected a positive integer".into())
        );
        assert_eq!(
            with("BFTREE_PROBES", "1e3"),
            Err("BFTREE_PROBES=1e3: expected a positive integer".into())
        );
        assert_eq!(
            with("BFTREE_TPCH_SF", "-1"),
            Err("BFTREE_TPCH_SF=-1: expected a positive number".into())
        );
        assert!(with("BFTREE_TPCH_SF", "inf").is_err());
        assert!(with("BFTREE_TPCH_SF", "NaN").is_err());
        assert_eq!(
            with("BFTREE_SHD_TIMESTAMPS", ""),
            Err("BFTREE_SHD_TIMESTAMPS=: expected a positive integer".into())
        );
    }

    #[test]
    fn sweep_is_strictly_decreasing() {
        let s = paper_fpp_sweep();
        assert!(s.windows(2).all(|w| w[1] < w[0]));
        assert_eq!(s[0], 0.2);
        assert_eq!(*s.last().unwrap(), 1e-15);
    }
}
